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
constant.  Shifting c or reordering N translates the spectral parameter, so
exchange relations hold for every convention; the shipped default
(normal ordering, c = 1) is the one whose reference state satisfies
N|vacuum> = 0 with the (1,1) vacuum weight lambda + i.

The monodromy exists only as an action on a block of columns: each local
factor (defect Lax operator or bulk R-matrix, on the auxiliary space and one
slot of dimension d) is applied by contraction, O(dim * rank * d) per column
and factor.  The transfer matrix, its auxiliary trace, likewise acts only on
blocks of quantum-space columns: no dim x dim or q x q (q = dim/rank) array.
Both build the local factors at lambda once per call.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .kernels import defect_side
from .special import gamma_ratio, guard_nonzero, log_gamma_psi
from .tensor import COMPLEX, FockSpace, apply_local, permutation_op, require_budget

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

    def effective_shift(self) -> float:
        """Shift after rewriting antinormal ordering in normal terms."""
        extra = (self.rank - 1) if self.ordering == ANTINORMAL else 0
        return self.shift + extra


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


def r_matrix(rank: int, lam) -> np.ndarray:
    """R(lambda) = lambda + i P on the rank^2-dimensional double space."""
    if rank < 2:
        raise ValueError("rank must be >= 2")
    n2 = rank * rank
    return complex(lam) * np.eye(n2, dtype=COMPLEX) + 1j * permutation_op(rank)


def _oscillator_operator(rank: int, fock: FockSpace, head, coef, reverse: bool) -> np.ndarray:
    """The pattern shared by the Lax and transmission operators on auxiliary
    (x) Fock: ``head`` in auxiliary block (h, h),
    ``coef`` times the identity in the other diagonal blocks (j, j), and
    ``coef`` times a^(j-1) in block (h, j) and its adjoint in block (j, h),
    for j = 2..rank.  h is 1; reversed, h is rank, j becomes rank+1-j, and
    a^(j-1) and its adjoint trade blocks."""
    if fock.species != rank - 1:
        raise ValueError(f"Fock space has {fock.species} species, rank {rank} needs {rank - 1}")
    n, d = rank, fock.dim
    require_budget((n * d, n * d), "oscillator operator")
    out = np.zeros((n, d, n, d), dtype=COMPLEX)
    h = n - 1 if reverse else 0
    out[h, :, h, :] = head
    for j in range(2, n + 1):
        jj = n - j if reverse else j - 1
        a = fock.annihilator(j - 1)
        up, down = (a.conj().T, a) if reverse else (a, a.conj().T)
        out[jj, :, jj, :] = coef * np.eye(d)
        out[h, :, jj, :] = coef * up
        out[jj, :, h, :] = coef * down
    return out.reshape(n * d, n * d)


def l_matrix(spec: LaxSpec, fock: FockSpace, lam) -> np.ndarray:
    """Defect Lax operator on auxiliary (x) Fock."""
    eye_f = np.eye(fock.dim, dtype=COMPLEX)
    num = fock.number_op(spec.ordering)
    head = complex(lam) * eye_f + 1j * spec.shift * eye_f + 1j * num
    return _oscillator_operator(spec.rank, fock, head, 1j, reverse=False)


def l_hat_matrix(spec: LaxSpec, fock: FockSpace, lam) -> np.ndarray:
    """Conjugate defect Lax operator, written out explicitly.

    Index j maps to its reversal jbar = rank+1-j; the spectral entry sits at
    (rank, rank) with argument -lambda - i rank/2.  Must agree with
    :func:`crossed_l_matrix` identically; the independent construction is the
    point of keeping both.
    """
    n = spec.rank
    lam = complex(lam)
    eye_f = np.eye(fock.dim, dtype=COMPLEX)
    num = fock.number_op(spec.ordering)
    head = (-lam - 1j * n / 2) * eye_f + 1j * spec.shift * eye_f + 1j * num
    return _oscillator_operator(n, fock, head, 1j, reverse=True)


def _cross(raw: np.ndarray, rank: int) -> np.ndarray:
    """V_1 raw^{t_1} V_1, V the reversal k -> rank+1-k of the auxiliary
    index: entry ((a,i),(b,j)) is raw[(rank-1-b, i), (rank-1-a, j)], 0-based."""
    d = raw.shape[0] // rank
    t = raw.reshape(rank, d, rank, d)[::-1, :, ::-1, :]
    return t.transpose(2, 1, 0, 3).reshape(rank * d, rank * d)


def crossed_l_matrix(spec: LaxSpec, fock: FockSpace, lam) -> np.ndarray:
    """V_1 L^{t_1}(-lambda - i rank/2) V_1, the crossing transform of L."""
    n = spec.rank
    return _cross(l_matrix(spec, fock, -complex(lam) - 1j * n / 2), n)


def defect_lax(spec: LaxSpec, fock: FockSpace, lam) -> np.ndarray:
    """Dispatch on the variant: L itself or the conjugate operator."""
    if spec.variant == VARIANT_L:
        return l_matrix(spec, fock, lam)
    return l_hat_matrix(spec, fock, lam)


# ---------------------------------------------------------------------------
# scattering and transmission amplitudes


def s_amplitude(rank: int, lam) -> complex:
    """Scalar soliton-soliton amplitude, a ratio of four Gamma functions."""
    z = 1j * complex(lam) / rank
    return gamma_ratio(
        [z + 1, -z + 1 - 1 / rank],
        [-z + 1, z + 1 - 1 / rank],
    )


def s_matrix(rank: int, lam) -> np.ndarray:
    """Full two-particle S-matrix S(lambda)/(i lambda + 1) (i lambda + P)."""
    lam = complex(lam)
    guard_nonzero(1j * lam + 1, what="S-matrix prefactor i*lambda + 1")
    scalar = s_amplitude(rank, lam) / (1j * lam + 1)
    return scalar * (
        1j * lam * np.eye(rank * rank, dtype=COMPLEX) + permutation_op(rank)
    )


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


def nbar_op(fock: FockSpace, rank: int) -> np.ndarray:
    """Shifted number operator entering the transmission matrices: the
    antinormal number operator (FockSpace.number_op) plus rank/2 - 3/2,
    which realizes sum_j a_j adag_j + rank/2 - 3/2 on the diagonal.  The
    normal ordering would be a spectral-parameter translation of it."""
    return fock.number_op(ANTINORMAL) + (rank / 2 - 1.5) * np.eye(fock.dim, dtype=COMPLEX)


def transmission_matrix(rank: int, fock: FockSpace, lam) -> np.ndarray:
    """Transmission matrix for right-movers on auxiliary (x) Fock."""
    lam = complex(lam)
    n = rank
    eye_f = np.eye(fock.dim, dtype=COMPLEX)
    nbar = nbar_op(fock, rank)
    out = _oscillator_operator(n, fock, 1j * lam * eye_f + eye_f + nbar, 1, reverse=False)
    denom = guard_nonzero(1j * lam + n / 2 - 0.5, what="transmission prefactor denominator")
    return (transmission_amplitude(rank, "-", lam)[0] / denom) * out


def conjugate_transmission_matrix(rank: int, fock: FockSpace, lam) -> np.ndarray:
    """Transmission matrix for left-movers; reversed auxiliary indices."""
    lam = complex(lam)
    n = rank
    eye_f = np.eye(fock.dim, dtype=COMPLEX)
    nbar = nbar_op(fock, rank)
    head = (-1j * lam - n / 2 + 1) * eye_f + nbar
    out = _oscillator_operator(n, fock, head, 1, reverse=True)
    return transmission_amplitude(rank, "+", lam)[0] * out


def crossed_transmission_matrix(rank: int, fock: FockSpace, lam) -> np.ndarray:
    """V_1 T^{t_1}(-lambda + i rank/2) V_1; equals the conjugate matrix up to
    a constant that the crossing check measures rather than assumes."""
    n = rank
    lam_crossed = -complex(lam) + 1j * n / 2
    return _cross(transmission_matrix(rank, fock, lam_crossed), n)


# ---------------------------------------------------------------------------
# monodromy


def _local_factors(chain: ChainSpec, lam) -> list:
    """The monodromy's local factor of each slot, slot 1 first.  The defect
    slot carries the Lax operator at lambda - theta, every bulk slot the same
    R-matrix at lambda."""
    bulk = r_matrix(chain.rank, lam) if chain.sites else None
    defect = defect_lax(chain.lax, chain.fock, complex(lam) - chain.theta)
    return [defect if p == chain.defect_site else bulk for p in range(1, chain.sites + 2)]


def _apply_factors(chain: ChainSpec, factors, x) -> np.ndarray:
    for p, factor in enumerate(factors, 1):
        x = apply_local(factor, x, chain.dims, (0, p))
    return x


def monodromy(chain: ChainSpec, lam, x) -> np.ndarray:
    """The monodromy at lambda applied to the columns of ``x``, which has
    one row per state of auxiliary (x) slot_1 (x) ... (x) slot_{sites+1}.

    The monodromy is the ordered product over slots sites+1 down to 1, so
    the slot-1 factor acts first."""
    return _apply_factors(chain, _local_factors(chain, lam), x)


def transfer(chain: ChainSpec, lam, x) -> np.ndarray:
    """The transfer matrix applied to the q x m block ``x`` of quantum-space
    columns: the sum over k of row block k of the monodromy applied to
    e_k (x) x, one rank*q x m block at a time, with the local factors built
    once for all k."""
    n = chain.rank
    q, m = np.shape(x)
    require_budget((n * q, m), "monodromy block")
    factors = _local_factors(chain, lam)
    out = np.zeros((q, m), dtype=COMPLEX)
    for k in range(n):
        cols = np.zeros((n, q, m), dtype=COMPLEX)
        cols[k] = x
        out += _apply_factors(chain, factors, cols.reshape(n * q, m))[k * q : (k + 1) * q]
    return out


def chain_vacuum(chain: ChainSpec) -> np.ndarray:
    """The reference state: the Fock vacuum (basis state 0) at the defect
    and the highest-weight vector e_1 at every bulk site."""
    slots, bulk = chain.dims[1:], 0
    state = [0 if p == chain.defect_site else bulk for p in range(1, chain.sites + 2)]
    out = np.zeros(math.prod(slots), dtype=COMPLEX)
    out[np.ravel_multi_index(state, slots)] = 1.0
    return out
