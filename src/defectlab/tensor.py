"""Local operator application, the dense-array byte budget, the
permutation operator, and the truncated multi-species Fock space.

Matrices are plain complex128 ndarrays.  Auxiliary-space indices follow the
physics convention and are 1-based in every public signature; array indices
underneath are 0-based as usual.  An operator on two factors (dimensions
d_a, d_b) of a dim-dimensional product space is applied to a block of n
columns by contraction, :func:`apply_local`, at cost O(dim * n * d_a * d_b)
per factor, not the O(dim^2 * n) of multiplying a full embedding.  Dense
arrays whose size follows from the input are checked against
``MATRIX_BYTE_BUDGET`` before allocation.
"""

from __future__ import annotations

import math

import numpy as np

COMPLEX = np.complex128

MATRIX_BYTE_BUDGET = 1 << 28  # 256 MiB: the largest dense complex array built


def require_budget(shape, what: str) -> None:
    """Refuse, before allocating it, a dense complex array above the budget."""
    nbytes = math.prod(int(k) for k in shape) * np.dtype(COMPLEX).itemsize
    if nbytes > MATRIX_BYTE_BUDGET:
        size = " x ".join(str(int(k)) for k in shape)
        raise ValueError(
            f"{what} needs a {size} complex array ({nbytes / 1e9:.3g} GB), over the "
            f"{MATRIX_BYTE_BUDGET / 1e9:.3g} GB budget; reduce sites, rank or the Fock cutoff"
        )


def as_matrix(m) -> np.ndarray:
    a = np.asarray(m, dtype=COMPLEX)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {a.shape}")
    return a


def permutation_op(n: int) -> np.ndarray:
    """P = sum_{kl} e_kl (x) e_lk; swaps the two n-dimensional factors."""
    require_budget((n * n, n * n), "permutation operator")
    p = np.zeros((n * n, n * n), dtype=COMPLEX)
    for k in range(n):
        for l in range(n):
            p[k * n + l, l * n + k] = 1.0
    return p


def apply_local(op, x, dims, slots) -> np.ndarray:
    """The embedding of ``op`` times ``x``, without forming the embedding.

    ``x`` has one row per basis state of dims[0] (x) dims[1] (x) ...,
    leftmost factor slowest, and any number of columns (1-d: one column).
    ``op`` acts on factors ``slots = (a, b)``, 0-based, either order, its
    left factor being ``a``; the others see the identity.  ``x`` is
    transposed so that the two factors index the rows, multiplied by ``op``
    in one BLAS product and transposed back: O(rows * columns * dims[a] *
    dims[b]) work, and no array larger than ``x``."""
    dims = tuple(int(d) for d in dims)
    a, b = slots
    if a == b or not (0 <= a < len(dims) and 0 <= b < len(dims)):
        raise ValueError(f"slots {tuple(slots)} invalid for {len(dims)} factors")
    op = as_matrix(op)
    pair = dims[a] * dims[b]
    if op.shape[0] != pair:
        raise ValueError(f"operator dim {op.shape[0]} != {dims[a]} x {dims[b]}")
    x = np.asarray(x, dtype=COMPLEX)
    rows = math.prod(dims)
    if x.ndim not in (1, 2) or x.shape[0] != rows:
        raise ValueError(f"block of shape {x.shape} does not have {rows} rows")
    order = (a, b) + tuple(k for k in range(len(dims) + 1) if k not in (a, b))
    moved = x.reshape(dims + (x.size // rows,)).transpose(order)
    out = (op @ moved.reshape(pair, -1)).reshape(moved.shape)
    return out.transpose(np.argsort(order)).reshape(x.shape)


def embed_pair(op, aux_dim: int, site_dims, slot: int) -> np.ndarray:
    """The full matrix of an operator on (auxiliary, site ``slot``, 1-based)
    inside auxiliary (x) site_1 (x) ... (x) site_K.  Products should use
    :func:`apply_local`, which never forms this matrix."""
    site_dims = [int(d) for d in site_dims]
    dim = aux_dim * math.prod(site_dims)
    require_budget((dim, dim), "embedded operator")
    return apply_local(op, np.eye(dim, dtype=COMPLEX), [aux_dim] + site_dims, (0, slot))


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
        expected = math.comb(cutoff + species, species)
        require_budget((expected, expected), f"Fock operator at cutoff {cutoff}")
        self.species = species
        self.cutoff = cutoff
        basis = []
        for total in range(cutoff + 1):
            basis.extend(sorted(_compositions(species, total)))
        self.basis = tuple(basis)
        self.index = {occ: i for i, occ in enumerate(self.basis)}
        self.dim = len(self.basis)
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
        return self.annihilator(j).conj().T

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

