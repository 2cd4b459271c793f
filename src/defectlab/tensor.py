"""Dense tensor-product utilities and the truncated multi-species Fock space.

Matrices are plain complex128 ndarrays.  Auxiliary-space indices follow the
physics convention and are 1-based in every public signature; array indices
underneath are 0-based as usual.
"""

from __future__ import annotations

import math
from functools import reduce

import numpy as np

COMPLEX = np.complex128


def as_matrix(m) -> np.ndarray:
    a = np.asarray(m, dtype=COMPLEX)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {a.shape}")
    return a


def kron(*factors) -> np.ndarray:
    """Kronecker product of one or more square matrices, left factor slowest."""
    if not factors:
        raise ValueError("kron of no factors")
    return reduce(np.kron, (as_matrix(f) for f in factors))


def matrix_unit(n: int, k: int, l: int) -> np.ndarray:
    """e_{kl} on an n-dimensional space, 1-based indices."""
    if not (1 <= k <= n and 1 <= l <= n):
        raise ValueError(f"matrix unit indices ({k},{l}) out of range for n={n}")
    m = np.zeros((n, n), dtype=COMPLEX)
    m[k - 1, l - 1] = 1.0
    return m


def permutation_op(n: int) -> np.ndarray:
    """P = sum_{kl} e_kl (x) e_lk; swaps the two n-dimensional factors."""
    p = np.zeros((n * n, n * n), dtype=COMPLEX)
    for k in range(n):
        for l in range(n):
            p[k * n + l, l * n + k] = 1.0
    return p


def reversal_op(n: int) -> np.ndarray:
    """Anti-diagonal of ones; maps basis vector k to n+1-k."""
    return np.fliplr(np.eye(n, dtype=COMPLEX))


def dagger(m) -> np.ndarray:
    return as_matrix(m).conj().T


def partial_transpose(m, dims, factor: int) -> np.ndarray:
    """Transpose in one tensor factor of a two-factor operator.

    dims is (d0, d1) with d0*d1 matching the matrix; factor is 0 or 1.
    """
    d0, d1 = dims
    a = as_matrix(m)
    if a.shape[0] != d0 * d1:
        raise ValueError(f"dims {dims} incompatible with shape {a.shape}")
    t = a.reshape(d0, d1, d0, d1)
    if factor == 0:
        t = t.transpose(2, 1, 0, 3)
    elif factor == 1:
        t = t.transpose(0, 3, 2, 1)
    else:
        raise ValueError("factor must be 0 or 1")
    return t.reshape(d0 * d1, d0 * d1)


def partial_trace(m, dims, factor: int) -> np.ndarray:
    """Trace out one factor of a two-factor operator."""
    d0, d1 = dims
    a = as_matrix(m)
    if a.shape[0] != d0 * d1:
        raise ValueError(f"dims {dims} incompatible with shape {a.shape}")
    t = a.reshape(d0, d1, d0, d1)
    if factor == 0:
        return np.einsum("abad->bd", t)
    if factor == 1:
        return np.einsum("abcb->ac", t)
    raise ValueError("factor must be 0 or 1")


def embed_pair(op, aux_dim: int, site_dims, slot: int) -> np.ndarray:
    """Embed an operator acting on (auxiliary, site ``slot``) into
    auxiliary (x) site_1 (x) ... (x) site_K, auxiliary factor leftmost.

    slot is 1-based.  The embedding keeps the auxiliary space first and
    inserts identities on all other sites.
    """
    site_dims = list(site_dims)
    if not (1 <= slot <= len(site_dims)):
        raise ValueError(f"slot {slot} out of range for {len(site_dims)} sites")
    d_slot = site_dims[slot - 1]
    op = as_matrix(op)
    if op.shape[0] != aux_dim * d_slot:
        raise ValueError(
            f"operator dim {op.shape[0]} != aux {aux_dim} x site {d_slot}"
        )
    pre = int(np.prod(site_dims[: slot - 1], dtype=np.int64))
    post = int(np.prod(site_dims[slot:], dtype=np.int64))
    blocks = op.reshape(aux_dim, d_slot, aux_dim, d_slot)
    q = pre * d_slot * post
    out = np.zeros((aux_dim * q, aux_dim * q), dtype=COMPLEX)
    i_pre = np.eye(pre, dtype=COMPLEX)
    i_post = np.eye(post, dtype=COMPLEX)
    for i in range(aux_dim):
        for j in range(aux_dim):
            out[i * q : (i + 1) * q, j * q : (j + 1) * q] = kron(
                i_pre, blocks[i, :, j, :], i_post
            )
    return out


def _compositions(m: int, total: int):
    # lexicographic order in (n_1, ..., n_m)
    if m == 1:
        yield (total,)
        return
    for first in range(total + 1):
        for rest in _compositions(m - 1, total - first):
            yield (first,) + rest


class FockSpace:
    """Bosonic Fock space with ``species`` oscillators, truncated by total
    occupation sum(n_j) <= cutoff.

    Basis order is graded lexicographic: states sorted by total occupation,
    ties broken lexicographically in (n_1, ..., n_m).  The vacuum is index 0.
    Raising out of the truncated space maps to zero, so operator identities
    that involve one creation step are exact only on the block with total
    occupation <= cutoff - 1; :meth:`sub_cutoff_indices` selects that block.
    """

    def __init__(self, species: int, cutoff: int):
        if species < 1:
            raise ValueError("need at least one species")
        if cutoff < 1:
            raise ValueError("cutoff must be >= 1")
        self.species = species
        self.cutoff = cutoff
        basis = []
        for total in range(cutoff + 1):
            basis.extend(sorted(_compositions(species, total)))
        self.basis = tuple(basis)
        self.index = {occ: i for i, occ in enumerate(self.basis)}
        self.dim = len(self.basis)
        expected = math.comb(cutoff + species, species)
        if self.dim != expected:
            raise AssertionError("basis enumeration does not match C(D+m,m)")

    def __repr__(self):
        return f"FockSpace(species={self.species}, cutoff={self.cutoff})"

    def vacuum(self) -> np.ndarray:
        v = np.zeros(self.dim, dtype=COMPLEX)
        v[0] = 1.0
        return v

    def annihilator(self, j: int) -> np.ndarray:
        """a^(j), 1-based species index; amplitude sqrt(n_j)."""
        if not (1 <= j <= self.species):
            raise ValueError(f"species {j} out of range 1..{self.species}")
        a = np.zeros((self.dim, self.dim), dtype=COMPLEX)
        for occ in self.basis:
            if occ[j - 1] > 0:
                low = list(occ)
                low[j - 1] -= 1
                a[self.index[tuple(low)], self.index[occ]] = math.sqrt(occ[j - 1])
        return a

    def creator(self, j: int) -> np.ndarray:
        return dagger(self.annihilator(j))

    def total_occupation(self) -> np.ndarray:
        return np.diag([float(sum(occ)) for occ in self.basis]).astype(COMPLEX)

    def number_op(self, ordering: str = "normal") -> np.ndarray:
        """Total number operator.

        "normal" is sum_j adag_j a_j (vacuum eigenvalue 0).  "antinormal" is
        the diagonal realization of sum_j a_j adag_j, which on the full space
        equals the normal form shifted by the species count.
        """
        n = self.total_occupation()
        if ordering == "normal":
            return n
        if ordering == "antinormal":
            return n + self.species * np.eye(self.dim, dtype=COMPLEX)
        raise ValueError(f"unknown ordering {ordering!r}")

    def sub_cutoff_indices(self, margin: int = 1) -> np.ndarray:
        """Indices of basis states with total occupation <= cutoff - margin."""
        return np.array(
            [i for i, occ in enumerate(self.basis) if sum(occ) <= self.cutoff - margin],
            dtype=np.intp,
        )


def restrict(matrix, indices) -> np.ndarray:
    """Submatrix on the given row/column index set."""
    m = as_matrix(matrix)
    idx = np.asarray(indices, dtype=np.intp)
    return m[np.ix_(idx, idx)]


def aux_block_indices(aux_dim: int, fock_indices, fock_dim: int) -> np.ndarray:
    """Indices selecting (every auxiliary index) x (given Fock indices) in a
    matrix on auxiliary (x) Fock, auxiliary slowest."""
    fock_indices = np.asarray(fock_indices, dtype=np.intp)
    return (
        np.arange(aux_dim, dtype=np.intp)[:, None] * fock_dim + fock_indices[None, :]
    ).ravel()
