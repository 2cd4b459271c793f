"""Operator constructors: R-matrix, defect Lax operators, scattering and
transmission matrices, monodromy and transfer matrices.

Conventions.  The auxiliary space is rank-dimensional and always the leftmost
Kronecker factor.  The rational R-matrix is R(lambda) = lambda + i P with P
the permutation.  The defect carries a truncated Fock space with rank-1
oscillator species; the Lax operator puts the spectral parameter only in the
(1,1) auxiliary entry,

    L(lambda) = e_11 (x) (lambda + i c + i N) + i sum_{j>=2} e_jj (x) 1
                + i sum_{j>=2} (e_1j (x) a^(j-1) + e_j1 (x) adag^(j-1)),

with N the number operator in the configured ordering and c the configured
constant.  N is the Fock space's occupation plus ``LaxSpec.offset``, 0 for
normal ordering and rank - 1 for antinormal (sum_j a_j adag_j), so shifting
c or reordering N translates the spectral parameter, and exchange relations
hold for every convention; the shipped default (normal ordering, c = 1) is
the one whose reference state satisfies N|vacuum> = 0 with the (1,1) vacuum
weight lambda + i.

The builders of R, S, L, its conjugate, the transmission matrices and their
crossing transforms take lambda as a number (one N x N matrix) or an array
(a stack of shape lambda.shape + (N, N)), by the same code: a
lambda-independent skeleton is copied per entry and its diagonal head block
written, into a fresh array, or into the kept work array of ``role`` if the
caller names one (:func:`defectlab.tensor.kept`; the stacked checks do),
taken only after the builder's own budget check.  A Fock space keeps each
oscillator skeleton, one N x N matrix per pattern (at most four), for its
life.  Gamma prefactors are per entry.

The monodromy and the transfer matrix exist only as actions on blocks of
columns, through one loop that applies each local factor (defect Lax
operator or bulk R-matrix, four legs on the auxiliary space and one slot of
dimension d) by one contraction, O(dim * rank * d) per column and factor: no
dim x dim or q x q (q = dim/rank) array.  The transfer matrix's term k runs
the loop with slot 1's factor cut to auxiliary column k and the last slot's
to row k, so no factor multiplies the zero blocks of e_k (x) x or the rows
the trace drops.  Both build the local factors once per call, at lambda
or at each point of a stack, and keep the products between them.  Both run
only on the Fock shells (states of one total occupation; those up to a
shell are a prefix of the basis, FockSpace.shells long) that the block
occupies at the defect, and on one shell more after it: L holds each
ladder operator once, so it moves the total occupation by at most one
quantum.  Every skipped row and term is an exact zero; what is kept agrees
with an uncut run to round-off, since BLAS may group a shorter sum
differently.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .kernels import defect_side
from .special import gamma_ratio, guard_nonzero, log_gamma_psi
from .tensor import COMPLEX, FockSpace, apply_local, kept, permutation_op, require_budget, stack_depth

VARIANT_L = "L"
VARIANT_LHAT = "Lhat"

NORMAL = "normal"
ANTINORMAL = "antinormal"


@dataclass(frozen=True)
class LaxSpec:
    """Convention choices for the defect Lax operator."""

    rank: int
    variant: str = VARIANT_L
    ordering: str = NORMAL
    shift: float = 1.0

    def __post_init__(self):
        if self.rank < 2:
            raise ValueError("rank must be >= 2")
        if self.variant not in (VARIANT_L, VARIANT_LHAT):
            raise ValueError(f"unknown variant {self.variant!r}")
        if self.ordering not in (NORMAL, ANTINORMAL):
            raise ValueError(f"unknown ordering {self.ordering!r}")

    @property
    def offset(self) -> int:
        """N minus the occupation: rank - 1 antinormal, 0 normal."""
        return self.rank - 1 if self.ordering == ANTINORMAL else 0

    def effective_shift(self) -> float:
        """Shift after rewriting antinormal ordering in normal terms."""
        return self.shift + self.offset


@dataclass(frozen=True)
class ChainSpec:
    """An inhomogeneous chain: ``sites`` bulk fundamental sites plus one
    defect, the defect occupying slot ``defect_site`` in 1..sites+1.

    ``fock`` is the defect's Fock space and ``dims`` the dimensions of
    auxiliary (x) slot_1 (x) ... (x) slot_{sites+1}: the Fock dimension at
    the defect, rank elsewhere.  Both are built once, with the spec."""

    rank: int
    sites: int
    fock_cutoff: int
    defect_site: int = 1
    theta: complex = 0j
    lax: LaxSpec | None = None
    fock: FockSpace = field(init=False, compare=False, repr=False)
    dims: tuple = field(init=False, compare=False, repr=False)

    def __post_init__(self):
        if self.rank < 2:
            raise ValueError("rank must be >= 2")
        if self.sites < 0:
            raise ValueError("sites must be >= 0")
        if not (1 <= self.defect_site <= self.sites + 1):
            raise ValueError(
                f"defect_site {self.defect_site} outside 1..{self.sites + 1}"
            )
        if self.lax is None:
            object.__setattr__(self, "lax", LaxSpec(self.rank))
        elif self.lax.rank != self.rank:
            raise ValueError("lax.rank disagrees with chain rank")
        fock = FockSpace(self.rank - 1, self.fock_cutoff)
        dims = tuple(fock.dim if p == self.defect_site else self.rank for p in range(self.sites + 2))
        object.__setattr__(self, "fock", fock)
        object.__setattr__(self, "dims", dims)


def _stacked(skeleton: np.ndarray, rows, diagonal, what: str, role=None) -> np.ndarray:
    """One copy of ``skeleton`` per leading index of ``diagonal``, each with
    that entry's last axis added to its diagonal entries ``rows``: an array
    of shape diagonal.shape[:-1] + skeleton.shape, kept by ``role`` if given."""
    lead = diagonal.shape[:-1]
    require_budget(lead + skeleton.shape, what)
    out = kept(lead + skeleton.shape, role)
    out[...] = skeleton
    out[..., rows, rows] += diagonal
    return out


def r_matrix(rank: int, lam, role=None) -> np.ndarray:
    """R(lambda) = lambda + i P on the rank^2-dimensional double space."""
    if rank < 2:
        raise ValueError("rank must be >= 2")
    lam = np.asarray(lam, dtype=COMPLEX)[..., None]
    return _stacked(1j * permutation_op(rank), np.arange(rank * rank), lam, "R-matrix", role)


def _oscillator_operator(rank: int, fock: FockSpace, head, coef, reverse: bool, role=None) -> np.ndarray:
    """The pattern shared by the Lax and transmission operators on auxiliary
    (x) Fock: the diagonal ``head`` in auxiliary block (h, h),
    ``coef`` times the identity in the other diagonal blocks (j, j), and
    ``coef`` times a^(j-1) in block (h, j) and its adjoint in block (j, h),
    for j = 2..rank.  h is 1; reversed, h is rank, j becomes rank+1-j, and
    a^(j-1) and its adjoint trade blocks.  All but the head is built once
    per Fock space; ``head`` has shape lambda.shape + (d,) and the result
    lambda.shape + (rank d, rank d)."""
    if fock.species != rank - 1:
        raise ValueError(f"Fock space has {fock.species} species, rank {rank} needs {rank - 1}")
    n, d = rank, fock.dim
    h = n - 1 if reverse else 0

    def build():
        require_budget((n * d, n * d), "oscillator operator")
        out = np.zeros((n, d, n, d), dtype=COMPLEX)
        for j in range(2, n + 1):
            jj = n - j if reverse else j - 1
            a, adag = fock.annihilator(j - 1), fock.creator(j - 1)
            up, down = (adag, a) if reverse else (a, adag)
            out[jj, :, jj, :] = coef * np.eye(d)
            out[h, :, jj, :] = coef * up
            out[jj, :, h, :] = coef * down
        return out.reshape(n * d, n * d)

    skeleton = fock._once(("oscillator", coef, reverse), build)
    return _stacked(skeleton, h * d + np.arange(d), head, "oscillator operator", role)


def _i_number(spec: LaxSpec, fock: FockSpace) -> np.ndarray:
    """i N, N the occupation plus the spec's offset, once per Fock space."""
    return fock._once(("i N", spec.offset), lambda: 1j * (fock.occupation + spec.offset))


def l_matrix(spec: LaxSpec, fock: FockSpace, lam, role=None) -> np.ndarray:
    """Defect Lax operator on auxiliary (x) Fock, with the (1,1) entry
    lambda + i c + i N: c the spec's shift, N the occupation plus its offset."""
    lam = np.asarray(lam, dtype=COMPLEX)[..., None]
    head = lam + 1j * spec.shift + _i_number(spec, fock)
    return _oscillator_operator(spec.rank, fock, head, 1j, False, role)


def l_hat_matrix(spec: LaxSpec, fock: FockSpace, lam, role=None) -> np.ndarray:
    """Conjugate defect Lax operator, written out explicitly.

    Index j maps to its reversal jbar = rank+1-j; the spectral entry sits at
    (rank, rank) with argument -lambda - i rank/2.  Must agree with
    :func:`crossed_l_matrix` identically; the independent construction is the
    point of keeping both.
    """
    n = spec.rank
    lam = np.asarray(lam, dtype=COMPLEX)[..., None]
    head = (-lam - 1j * n / 2) + 1j * spec.shift + _i_number(spec, fock)
    return _oscillator_operator(n, fock, head, 1j, True, role)


def _cross(raw: np.ndarray, rank: int, role=None) -> np.ndarray:
    """V_1 raw^{t_1} V_1, V the reversal k -> rank+1-k of the auxiliary
    index: entry ((a,i),(b,j)) is raw[(rank-1-b, i), (rank-1-a, j)], 0-based,
    for each matrix of a stack, kept by ``role`` if given."""
    d = raw.shape[-1] // rank
    t = raw.reshape(raw.shape[:-2] + (rank, d, rank, d))[..., ::-1, :, ::-1, :].swapaxes(-4, -2)
    out = kept(raw.shape, role)
    np.copyto(out.reshape(t.shape), t)
    return out


def crossed_l_matrix(spec: LaxSpec, fock: FockSpace, lam, role=None) -> np.ndarray:
    """V_1 L^{t_1}(-lambda - i rank/2) V_1, the crossing transform of L."""
    n = spec.rank
    lam = -np.asarray(lam, dtype=COMPLEX) - 1j * n / 2
    return _cross(l_matrix(spec, fock, lam, "uncrossed"), n, role)


def defect_lax(spec: LaxSpec, fock: FockSpace, lam, role=None) -> np.ndarray:
    """Dispatch on the variant: L itself or the conjugate operator."""
    if spec.variant == VARIANT_L:
        return l_matrix(spec, fock, lam, role)
    return l_hat_matrix(spec, fock, lam, role)


# ---------------------------------------------------------------------------
# scattering and transmission amplitudes


def s_amplitude(rank: int, lam) -> complex:
    """Scalar soliton-soliton amplitude, a ratio of four Gamma functions."""
    z = 1j * complex(lam) / rank
    return gamma_ratio(
        [z + 1, -z + 1 - 1 / rank],
        [-z + 1, z + 1 - 1 / rank],
    )


def _scale(out: np.ndarray, scalar, lam: np.ndarray) -> np.ndarray:
    """Each matrix of the stack ``out``, in place, times scalar(z) of its
    entry z of lam as a Python complex: a log-Gamma pass in cmath costs
    microseconds, special's array path a fixed hundred or more, which a
    stack of at most twenty points does not repay."""
    values = np.array([scalar(z) for z in lam.ravel().tolist()], dtype=COMPLEX)
    return np.multiply(values.reshape(lam.shape + (1, 1)), out, out=out)


def s_matrix(rank: int, lam, role=None) -> np.ndarray:
    """Full two-particle S-matrix S(lambda)/(i lambda + 1) (i lambda + P)."""
    def scalar(z):
        denom = guard_nonzero(1j * z + 1, what="S-matrix prefactor i*lambda + 1")
        return s_amplitude(rank, z) / denom

    lam = np.asarray(lam, dtype=COMPLEX)
    out = _stacked(permutation_op(rank), np.arange(rank * rank), 1j * lam[..., None], "S-matrix", role)
    return _scale(out, scalar, lam)


def amplitude_gamma_args(rank: int, sign: str, lam) -> tuple:
    """Gamma arguments (num, den) of the transmission amplitude T^+ or T^-,
    complex numbers for a scalar lambda and complex arrays for an array.

    With z = -side i lambda/n and a shift of 0 for '+' and 1/2 for '-',
    num = z + 1/(2n) + shift and den = z - 1/(2n) + 1 - shift: both move
    with slope dz/dlambda = -side i/n.
    """
    side = defect_side(sign)
    z = -side * 1j * (lam if isinstance(lam, np.ndarray) else complex(lam)) / rank
    shift = 0.0 if side > 0 else 0.5
    return z + 1 / (2 * rank) + shift, z - 1 / (2 * rank) + (1 - shift)


def transmission_amplitude(rank: int, sign: str, lam) -> tuple:
    """Closed-form transmission amplitude T^+ or T^- and its log-derivative
    d/dlambda log T, from one log-Gamma and digamma pass per Gamma argument:
    complex numbers for a scalar lambda, complex arrays for an array.

    T^+(lambda) = Gamma(-i lambda/n + 1/(2n)) / Gamma(-i lambda/n - 1/(2n) + 1)
    T^-(lambda) = Gamma(i lambda/n + 1/(2n) + 1/2) / Gamma(i lambda/n - 1/(2n) + 1/2)
    d/dlambda log T = (-side i/n) (psi(num) - psi(den))
    """
    num, den = amplitude_gamma_args(rank, sign, lam)
    log_num, psi_num = log_gamma_psi(num)
    log_den, psi_den = log_gamma_psi(den)
    slope = -defect_side(sign) * 1j / rank
    t = np.exp(log_num - log_den)
    return (t if isinstance(t, np.ndarray) else complex(t)), slope * (psi_num - psi_den)


def _nbar(fock: FockSpace, rank: int) -> np.ndarray:
    """Diagonal of the shifted number operator entering the transmission
    matrices, built once per Fock space: the antinormal number operator (the
    occupation plus its offset) plus rank/2 - 3/2.  The normal ordering
    would be a spectral-parameter translation of it."""
    return fock._once(
        ("nbar", rank), lambda: fock.occupation + LaxSpec(rank, ordering=ANTINORMAL).offset + (rank / 2 - 1.5))


def _amplitude(rank: int, sign: str, z: complex) -> complex:
    """T^+ or T^- at one point, without the log-derivative: bit for bit
    transmission_amplitude(rank, sign, z)[0]."""
    num, den = amplitude_gamma_args(rank, sign, z)
    return gamma_ratio([num], [den])


def transmission_matrix(rank: int, fock: FockSpace, lam, role=None) -> np.ndarray:
    """Transmission matrix for right-movers on auxiliary (x) Fock."""
    def scalar(z):
        denom = guard_nonzero(1j * z + rank / 2 - 0.5, what="transmission prefactor denominator")
        return _amplitude(rank, "-", z) / denom

    lam = np.asarray(lam, dtype=COMPLEX)
    out = _oscillator_operator(rank, fock, 1j * lam[..., None] + 1 + _nbar(fock, rank), 1, False, role)
    return _scale(out, scalar, lam)


def conjugate_transmission_matrix(rank: int, fock: FockSpace, lam, role=None) -> np.ndarray:
    """Transmission matrix for left-movers; reversed auxiliary indices."""
    lam = np.asarray(lam, dtype=COMPLEX)
    head = (-1j * lam[..., None] - rank / 2 + 1) + _nbar(fock, rank)
    out = _oscillator_operator(rank, fock, head, 1, True, role)
    return _scale(out, lambda z: _amplitude(rank, "+", z), lam)


def crossed_transmission_matrix(rank: int, fock: FockSpace, lam, role=None) -> np.ndarray:
    """V_1 T^{t_1}(-lambda + i rank/2) V_1: 1/rank times the conjugate
    matrix, by the ratio of their Gamma prefactors."""
    lam = -np.asarray(lam, dtype=COMPLEX) + 1j * rank / 2
    return _cross(transmission_matrix(rank, fock, lam, "uncrossed"), rank, role)


# ---------------------------------------------------------------------------
# monodromy


def _local_factors(chain: ChainSpec, lam) -> list:
    """The monodromy's local factor of each slot, slot 1 first, as a
    four-leg view (out_aux, out_slot, in_aux, in_slot) after lam's axes.
    The defect slot carries the Lax operator at lambda - theta, every bulk
    slot the same R-matrix at lambda."""
    n, d, lead = chain.rank, chain.fock.dim, np.shape(lam)
    bulk = r_matrix(n, lam).reshape(lead + (n, n, n, n)) if chain.sites else None
    defect = defect_lax(chain.lax, chain.fock, np.subtract(lam, chain.theta)).reshape(lead + (n, d, n, d))
    return [defect if p == chain.defect_site else bulk for p in range(1, chain.sites + 2)]


def _apply_factors(factors, x) -> np.ndarray:
    """The factors applied to the block ``x`` in turn, slot 1 first, each on
    the auxiliary space and its slot: the product over slots sites+1 down
    to 1, in kept work arrays of two alternating roles.  Each factor's legs
    give the dimensions it reads and writes: its in_aux and in_slot legs
    those of the block it is applied to, and its out_slot leg its slot's
    dimension from then on, so a factor cut to a Fock shell's prefix reads
    and writes only that prefix."""
    slots = [factor.shape[-1] for factor in factors]
    for p, factor in enumerate(factors, 1):
        x = apply_local(factor, x, (factor.shape[-2], *slots), p, ("factor product", p % 2))
        slots[p - 1] = factor.shape[-3]
    return x


def _on_shells(chain: ChainSpec, factors, x, run) -> np.ndarray:
    """``run(factors, x)``, a fresh product of the local factors applied to
    the block ``x``, run on the Fock shells that x occupies at the defect.
    s is the highest total occupation of a nonzero row of x (a NaN or
    infinite row counts).  x and the defect's in_slot leg are cut to the
    prefix of shells <= s, its out_slot leg to shells <= s + 1, which is all
    that the one ladder operator per entry reaches, and the result is
    padded back to every Fock state with zero rows.  For a finite block
    each skipped row and term is an exact zero; past a NaN or an infinity
    the padded rows stay zero, where an uncut run's zero products spread
    NaN through its column.  A block that reaches the cutoff shell runs on
    full slices, and one whose s + 1 is the cutoff unpadded."""
    fock, p = chain.fock, chain.defect_site
    x = np.asarray(x)
    lead, (rows, m) = x.shape[:-2], x.shape[-2:]
    d, post = fock.dim, math.prod(chain.dims[p + 1 :])
    view = x.reshape(lead + (rows // (d * post), d, post * m))
    occupied = np.flatnonzero(np.any(view, axis=tuple(range(view.ndim - 3)) + (-3, -1)))
    shell = fock.occupation[occupied[-1]] if occupied.size else 0
    inner, outer = fock.shells(shell), fock.shells(shell + 1)
    cut = list(factors)
    cut[p - 1] = factors[p - 1][..., :outer, :, :inner]
    y = run(cut, view[..., :inner, :].reshape(lead + (rows // d * inner, m)))
    if outer == d:
        return y
    out = np.zeros(y.shape[:-2] + (y.shape[-2] // (outer * post), d, post * m), dtype=COMPLEX)
    out[..., :outer, :] = y.reshape(out.shape[:-2] + (outer, post * m))
    return out.reshape(y.shape[:-2] + (y.shape[-2] // outer * d, m))


def monodromy(chain: ChainSpec, lam, x) -> np.ndarray:
    """The monodromy at lambda (or a stack, as :func:`transfer`) applied to the
    block ``x``, one row per state of auxiliary (x) slot_1 (x) ... (x) slot_{sites+1},
    on the Fock shells x occupies (:func:`_on_shells`)."""
    product = lambda factors, y: _apply_factors(factors, y).copy()  # fresh: the product is kept
    return _on_shells(chain, _local_factors(chain, lam), x, product)


def transfer(chain: ChainSpec, lam, x) -> np.ndarray:
    """The transfer matrix applied to the q x m block ``x`` of quantum-space
    columns: the sum over k of row block k of the monodromy applied to
    e_k (x) x.  Slot 1's factor is cut to its auxiliary column k, which maps
    x to a rank*q x m block, and the last slot's factor to its row k, which
    maps that block back to q x m; at sites = 0 both cuts fall on the one
    factor.  The local factors are built once for all k, and every term
    runs on the Fock shells x occupies (:func:`_on_shells`).  At a stack of
    lambda, ``x`` is one block or a stack (leading axes broadcast), each entry
    is bit for bit its point's call, one point's block passes the budget, and
    a 1-d stack runs in as many points at a time as ``stack_depth`` admits."""
    q, m = np.shape(x)[-2:]
    require_budget((chain.rank * q, m), "monodromy block")
    depth = stack_depth((chain.rank * q, m))
    if np.ndim(lam) == 1 and len(lam) > depth:
        return np.concatenate([transfer(chain, lam[i : i + depth], x[i : i + depth] if np.ndim(x) > 2 else x)
                               for i in range(0, len(lam), depth)])

    def trace(factors, y):
        out = 0.0  # the first term's kept product is added into a fresh array
        for k in range(chain.rank):
            cut = [factors[0][..., k : k + 1, :]] + factors[1:]
            cut[-1] = cut[-1][..., k : k + 1, :, :, :]
            out += _apply_factors(cut, y)
        return out

    return _on_shells(chain, _local_factors(chain, lam), x, trace)


def bulk_reference(rank: int) -> int:
    """The basis state, 0-based, of every bulk site in the reference state:
    the highest-weight vector e_1."""
    return 0


def chain_vacuum(chain: ChainSpec) -> np.ndarray:
    """The reference state: the Fock vacuum (basis state 0) at the defect
    and basis state ``bulk_reference`` at every bulk site."""
    slots, bulk = chain.dims[1:], bulk_reference(chain.rank)
    state = [0 if p == chain.defect_site else bulk for p in range(1, chain.sites + 2)]
    out = np.zeros(math.prod(slots), dtype=COMPLEX)
    out[np.ravel_multi_index(state, slots)] = 1.0
    return out
