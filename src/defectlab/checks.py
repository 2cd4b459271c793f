"""Numerical certification of the operator identities.

Every check computes both sides of an identity, takes the Chebyshev norm
(largest absolute entry) of the difference, and wraps the verdict in a
:class:`CheckReport`.  Products of operators that act on two tensor factors
are applied by contraction (:func:`defectlab.tensor.apply_local`) to just
the columns a check reads.  The Yang-Baxter equation, RLL and the
transmission algebra share the form P12 X1 X2 = X2 X1 P12 and one routine
that evaluates it, after checking its column block against the byte budget.
Identities that create one oscillator quantum are compared on the
sub-cutoff block, where truncation is exact.
"""

from __future__ import annotations

import math
import zlib
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from . import lax
from .lax import (
    ANTINORMAL,
    NORMAL,
    VARIANT_L,
    ChainSpec,
    LaxSpec,
)
from .tensor import COMPLEX, FockSpace, apply_local, require_budget


@dataclass(frozen=True)
class CheckReport:
    """Outcome of one identity check.

    residual is the largest absolute entry of the defect matrix (or the
    documented scalar measure for aggregate checks); passed is equivalent to
    residual <= tolerance.  block describes which matrix block the residual
    was taken on.
    """

    name: str
    parameters: tuple
    residual: float
    tolerance: float
    passed: bool
    block: str

    @classmethod
    def from_residual(cls, name, parameters, residual, tolerance, block) -> CheckReport:
        """The report of a measured residual against its tolerance."""
        residual = float(residual)
        return cls(
            name=name,
            parameters=tuple(parameters),
            residual=residual,
            tolerance=float(tolerance),
            passed=residual <= tolerance,
            block=block,
        )

    def to_dict(self) -> dict:
        return {
            "name": self.name,
            "parameters": [[k, _encode(v)] for k, v in self.parameters],
            "residual": float(self.residual),
            "tolerance": float(self.tolerance),
            "passed": bool(self.passed),
            "block": self.block,
        }


def _encode(v):
    if isinstance(v, complex):
        return [v.real, v.imag]
    if isinstance(v, (np.floating, np.integer)):
        return v.item()
    if isinstance(v, (list, tuple)):
        return [_encode(x) for x in v]
    return v


def cheb(m) -> float:
    m = np.asarray(m)
    return float(np.max(np.abs(m))) if m.size else 0.0


def worst_of(*residuals: float) -> float:
    """The largest residual, or a NaN if any is one.  max() keeps a NaN only
    in first place (nan > x is False), and a NaN residual must fail."""
    for r in residuals:
        if r != r:
            return r
    return max(residuals)


def rng_for(seed: int, label: str) -> np.random.Generator:
    """Deterministic per-check generator: the label is folded in via CRC32 so
    distinct checks draw independent, reproducible streams."""
    return np.random.default_rng([int(seed), zlib.crc32(label.encode())])


def sample_points(rng, count, box=2.0, avoid=(), min_dist=0.05):
    """Complex points in the centered box, redrawn away from given spots."""
    out = []
    while len(out) < count:
        z = complex(rng.uniform(-box, box), rng.uniform(-box, box))
        if all(abs(z - a) > min_dist for a in avoid):
            out.append(z)
    return out


# ---------------------------------------------------------------------------
# Yang-Baxter


def ybe_residual(rank: int, lam1, lam2, matrix: str = "R") -> float:
    """Chebyshev residual of R12 R13 R23 - R23 R13 R12 (or the same for S):
    RLL with the matrix itself as the Lax operator on a fundamental site."""
    if matrix == "R":
        build = lambda z: lax.r_matrix(rank, z)
    elif matrix == "S":
        build = lambda z: lax.s_matrix(rank, z)
    else:
        raise ValueError(f"matrix must be 'R' or 'S', got {matrix!r}")
    lhs, rhs = _exchange_sides(
        rank, build(lam1 - lam2), build(lam1), build(lam2), rank, range(rank)
    )
    return cheb(lhs - rhs)


def check_ybe(rank: int, lam1, lam2, tol: float = 1e-12, matrix: str = "R") -> CheckReport:
    res = ybe_residual(rank, lam1, lam2, matrix)
    return CheckReport.from_residual(
        "ybe",
        [("rank", rank), ("matrix", matrix), ("lambda1", complex(lam1)), ("lambda2", complex(lam2))],
        res,
        tol,
        "full triple tensor space",
    )


# ---------------------------------------------------------------------------
# exchange relation with the defect


def _exchange_sides(n: int, pair_op, x1, x2, d: int, keep):
    """Both sides of P12 X1 X2 = X2 X1 P12 on aux1 (x) aux2 (x) V, dim V = d,
    on the columns and rows whose V index is in ``keep``.  P12 acts on the
    two auxiliary spaces, X1 and X2 on one auxiliary space each and V.  A
    column of a product depends only on the same column of its rightmost
    factor, so the factors are applied to the block's columns alone."""
    dims = (n, n, d)
    idx = (np.arange(n * n)[:, None] * d + np.asarray(keep, dtype=np.intp)[None, :]).ravel()
    require_budget((n * n * d, len(idx)), "exchange-relation column block")
    cols = np.zeros((n * n * d, len(idx)), dtype=COMPLEX)
    cols[idx, np.arange(len(idx))] = 1.0
    on_p, on_1, on_2 = (0, 1), (0, 2), (1, 2)
    lhs = apply_local(pair_op, apply_local(x1, apply_local(x2, cols, dims, on_2), dims, on_1), dims, on_p)
    rhs = apply_local(x2, apply_local(x1, apply_local(pair_op, cols, dims, on_p), dims, on_1), dims, on_2)
    return lhs[idx], rhs[idx]


def rll_residual(spec: LaxSpec, fock: FockSpace, lam1, lam2) -> float:
    """Chebyshev residual of R12 L1 L2 - L2 L1 R12 on the sub-cutoff block."""
    n = spec.rank
    lhs, rhs = _exchange_sides(
        n,
        lax.r_matrix(n, complex(lam1) - complex(lam2)),
        lax.defect_lax(spec, fock, lam1),
        lax.defect_lax(spec, fock, lam2),
        fock.dim,
        fock.sub_cutoff_indices(1),
    )
    return cheb(lhs - rhs)


def check_rll(spec: LaxSpec, fock: FockSpace, lam1, lam2, tol: float = 1e-10) -> CheckReport:
    res = rll_residual(spec, fock, lam1, lam2)
    return CheckReport.from_residual(
        "rll",
        [
            ("rank", spec.rank),
            ("variant", spec.variant),
            ("ordering", spec.ordering),
            ("shift", spec.shift),
            ("cutoff", fock.cutoff),
            ("lambda1", complex(lam1)),
            ("lambda2", complex(lam2)),
        ],
        res,
        tol,
        "total occupation <= cutoff-1",
    )


def calibrate_ordering(
    rank: int,
    fock: FockSpace,
    seed: int,
    pairs: int = 4,
    tol: float = 1e-8,
) -> tuple[LaxSpec, CheckReport]:
    """Scan number-operator ordering and constant-shift conventions against
    the exchange relation.

    The scan cannot produce a unique minimizer: reordering or shifting only
    translates the spectral parameter, so every candidate satisfies the
    relation identically and the measured residuals tie at rounding level.
    The scan therefore certifies the whole family and the returned spec is
    the representative fixed by the reference-state requirements (number
    operator annihilating the vacuum, unit constant in the (1,1) entry).
    Candidates with equal effective shift build the same operator, so the
    relation is evaluated once per such class and every member reports that
    residual; the winner's class is reported as its equivalence class.  If
    no candidate passes, the canonical spec is returned with a failed report.
    """
    rng = rng_for(seed, "calibrate_ordering")
    points = sample_points(rng, 2 * pairs)
    shifts = dict.fromkeys((0.0, 1.0, float(rank - 1), float(rank)))
    candidates = [
        LaxSpec(rank, VARIANT_L, ordering, shift)
        for ordering in (NORMAL, ANTINORMAL)
        for shift in shifts
    ]
    by_shift = {}  # candidates with equal effective shift build the same L
    for cand in candidates:
        if cand.effective_shift() not in by_shift:
            by_shift[cand.effective_shift()] = worst_of(*(
                rll_residual(cand, fock, a, b) for a, b in zip(points[0::2], points[1::2])
            ))
    results = [(cand, by_shift[cand.effective_shift()]) for cand in candidates]
    passing = [(c, r) for c, r in results if r <= tol]
    canonical = LaxSpec(rank, VARIANT_L, NORMAL, 1.0)
    canonical_res = next(r for c, r in results if c == canonical)
    if canonical_res <= tol or not passing:
        winner, winner_res = canonical, canonical_res
    else:
        winner, winner_res = min(passing, key=lambda cr: cr[1])
    members = [
        f"{c.ordering}/{c.shift:g}"
        for c, r in passing
        if c.effective_shift() == winner.effective_shift()
    ]
    params = [("rank", rank), ("cutoff", fock.cutoff), ("seed", seed)]
    params += [(f"residual {c.ordering}/{c.shift:g}", r) for c, r in results]
    params += [
        ("winner", f"{winner.ordering}/{winner.shift:g}"),
        ("equivalence_class", ",".join(members)),
        (
            "note",
            "residual ties across candidates (shift acts as a spectral "
            "translation); winner fixed by vacuum conditions"
            if passing else "no candidate passed; the canonical normal/1 spec is returned",
        ),
    ]
    report = CheckReport.from_residual(
        "calibrate-ordering", params, winner_res, tol, "total occupation <= cutoff-1"
    )
    return winner, report


# ---------------------------------------------------------------------------
# oscillator algebra


def check_oscillator_algebra(fock: FockSpace, tol: float = 1e-13) -> CheckReport:
    m = fock.species
    eye = np.eye(fock.dim, dtype=COMPLEX)
    num = fock.number_op(NORMAL)
    sub = fock.sub_cutoff_indices(1)
    ladders = [(fock.annihilator(j), fock.creator(j)) for j in range(1, m + 1)]
    residuals = []
    for i, (ai, adi) in enumerate(ladders):
        for j, (aj, adj) in enumerate(ladders):
            comm = ai @ adj - adj @ ai
            target = eye if i == j else np.zeros_like(eye)
            residuals.append(cheb((comm - target)[np.ix_(sub, sub)]))
            residuals.append(cheb(ai @ aj - aj @ ai))
            residuals.append(cheb(adi @ adj - adj @ adi))
    for a, ad in ladders:
        residuals.append(cheb(num @ a - a @ num + a))
        residuals.append(cheb(num @ ad - ad @ num - ad))
    return CheckReport.from_residual(
        "oscillator-algebra",
        [("species", m), ("cutoff", fock.cutoff)],
        worst_of(*residuals),
        tol,
        "mixed commutator on total occupation <= cutoff-1, rest full space",
    )


# ---------------------------------------------------------------------------
# crossing of the defect Lax operator


def check_lax_crossing(
    spec: LaxSpec, fock: FockSpace, lams: Sequence[complex], tol: float = 1e-13
) -> CheckReport:
    worst = 0.0
    for z in lams:
        explicit = lax.l_hat_matrix(spec, fock, z)
        transformed = lax.crossed_l_matrix(spec, fock, z)
        worst = worst_of(worst, cheb(explicit - transformed))
    return CheckReport.from_residual(
        "lax-crossing",
        [
            ("rank", spec.rank),
            ("cutoff", fock.cutoff),
            ("points", len(list(lams))),
        ],
        worst,
        tol,
        "full auxiliary x Fock space",
    )


# ---------------------------------------------------------------------------
# highest weight structure of the monodromy


def _local_vacuum_weight(chain: ChainSpec, k: int, lam) -> complex:
    """Product over slots of the diagonal (k,k) weight on the local vacuum."""
    n = chain.rank
    c_eff = chain.lax.effective_shift()
    z = complex(lam)
    weight = 1.0 + 0.0j
    for p in range(1, chain.sites + 2):
        if p == chain.defect_site:
            if chain.lax.variant == VARIANT_L:
                weight *= (z - chain.theta + 1j * c_eff) if k == 1 else 1j
            else:
                if k == n:
                    weight *= -(z - chain.theta) - 1j * n / 2 + 1j * c_eff
                else:
                    weight *= 1j
        else:
            weight *= (z + 1j) if k == 1 else z
    return weight


def check_highest_weight(
    chain: ChainSpec, lams: Sequence[complex] = (0.37 + 0.11j, -1.1 + 0.6j), tol: float = 1e-12
) -> CheckReport:
    """Reference-state structure: the defect vacuum is annihilated by every
    a^(j) and by the number operator, the monodromy has vanishing
    off-diagonal vacuum expectations, and its diagonal vacuum weights match
    the product of local weights."""
    n = chain.rank
    fock = chain.fock
    omega = lax.chain_vacuum(chain)
    worst = 0.0
    for j in range(1, fock.species + 1):
        worst = worst_of(worst, cheb(fock.annihilator(j) @ fock.vacuum()))
    worst = worst_of(worst, cheb(fock.number_op(NORMAL) @ fock.vacuum()))
    scale_pow = chain.sites + 1
    # column l is e_l (x) Omega, which T maps to sum_k e_k (x) T_kl Omega
    columns = np.kron(np.eye(n, dtype=COMPLEX), omega[:, None])
    for z in lams:
        applied = lax.monodromy(chain, z, columns).reshape(n, omega.size, n)
        expects = omega.conj() @ applied
        targets = np.diag([_local_vacuum_weight(chain, k, z) for k in range(1, n + 1)])
        scale = max(1.0, (abs(z) + 2.0) ** scale_pow)
        worst = worst_of(worst, cheb(expects - targets) / scale)
    return CheckReport.from_residual(
        "highest-weight",
        [
            ("rank", n),
            ("sites", chain.sites),
            ("cutoff", chain.fock_cutoff),
            ("theta", complex(chain.theta)),
            ("points", len(list(lams))),
        ],
        worst,
        tol,
        "vacuum expectations, scaled by (|lambda|+2)^(sites+1)",
    )


# ---------------------------------------------------------------------------
# transmission exchange relation


def transmission_algebra_residual(
    rank: int,
    fock: FockSpace,
    lam1,
    lam2,
    conjugate: bool = False,
) -> float:
    """Normalized Chebyshev residual of S12 T1 T2 - T2 T1 S12.

    The residual is divided by the Chebyshev norm of the left side, so it is
    invariant under rescaling the transmission matrix by any nonzero scalar
    function of lambda.
    """
    n = rank
    build = lax.conjugate_transmission_matrix if conjugate else lax.transmission_matrix
    lhs, rhs = _exchange_sides(
        n, lax.s_matrix(n, complex(lam1) - complex(lam2)), build(n, fock, lam1),
        build(n, fock, lam2), fock.dim, fock.sub_cutoff_indices(1),
    )
    return cheb(lhs - rhs) / cheb(lhs)


def check_transmission_algebra(
    rank: int,
    fock: FockSpace,
    lam1,
    lam2,
    conjugate: bool = False,
    tol: float = 1e-10,
) -> CheckReport:
    res = transmission_algebra_residual(rank, fock, lam1, lam2, conjugate)
    which = "conjugate" if conjugate else "direct"
    return CheckReport.from_residual(
        "transmission-algebra",
        [
            ("rank", rank),
            ("matrix", which),
            ("nbar_ordering", ANTINORMAL),
            ("cutoff", fock.cutoff),
            ("lambda1", complex(lam1)),
            ("lambda2", complex(lam2)),
        ],
        res,
        tol,
        "scale-normalized, total occupation <= cutoff-1",
    )


def check_transmission_crossing(
    rank: int,
    fock: FockSpace,
    grid: Sequence[float] | None = None,
    tol: float = 1e-8,
) -> CheckReport:
    """Measure the proportionality constant between the conjugate
    transmission matrix and the crossing transform of the direct one.

    The constant is fit per grid point by least squares over the matrix
    entries above 1e-9 of the largest; the reported residual is the spread
    of the fitted constant across the grid plus the worst per-point fit
    error, so a lambda-dependent ratio cannot pass.
    """
    if grid is None:
        grid = np.linspace(-3.0, 3.0, 20)
    constants = []
    worst_fit = 0.0
    for lam in grid:
        lhs = lax.conjugate_transmission_matrix(rank, fock, lam)
        rhs = lax.crossed_transmission_matrix(rank, fock, lam)
        v_rhs = rhs.ravel()
        v_lhs = lhs.ravel()
        scale = np.max(np.abs(v_rhs))
        mask = np.abs(v_rhs) > 1e-9 * scale
        c = complex(
            (v_rhs[mask].conj() @ v_lhs[mask]) / (v_rhs[mask].conj() @ v_rhs[mask])
        )
        fit = cheb(v_lhs - c * v_rhs) / cheb(v_lhs)
        worst_fit = worst_of(worst_fit, fit)
        constants.append(c)
    constants = np.asarray(constants)
    center = complex(np.median(constants.real), np.median(constants.imag))
    spread = float(np.max(np.abs(constants - center)))
    residual = worst_of(spread, worst_fit)
    return CheckReport.from_residual(
        "transmission-crossing",
        [
            ("rank", rank),
            ("cutoff", fock.cutoff),
            ("nbar_ordering", ANTINORMAL),
            ("grid_points", len(list(grid))),
            ("constant", center),
            ("constant_spread", spread),
            ("worst_pointwise_fit", worst_fit),
        ],
        residual,
        tol,
        "entrywise least-squares constant across the rapidity grid",
    )


# ---------------------------------------------------------------------------
# transfer matrix commutativity


def faithful_columns(chain: ChainSpec, margin: int = 2) -> np.ndarray:
    """Quantum-space indices whose oscillator occupation stays at least
    margin below the cutoff.  Operator products inserting at most margin
    raising operators act on these columns exactly as in the untruncated
    theory."""
    fock = chain.fock
    pre = math.prod(chain.dims[1 : chain.defect_site])
    post = math.prod(chain.dims[chain.defect_site + 1 :])
    keep = fock.sub_cutoff_indices(margin)
    if len(keep) == 0:
        raise ValueError(
            f"cutoff {fock.cutoff} leaves no occupation-{margin} margin; raise the cutoff"
        )
    cols = [
        (a * fock.dim + f) * post + b
        for a in range(pre)
        for f in keep
        for b in range(post)
    ]
    return np.asarray(cols, dtype=np.int64)


def check_transfer_commute(
    chain: ChainSpec, lam1, lam2, tol: float = 1e-10
) -> CheckReport:
    """Commutator of transfer matrices at distinct spectral parameters.

    Columns are restricted to oscillator occupation <= cutoff - 2: the two
    transfer factors insert at most two raising operators, so on those
    columns the truncated product agrees with the untruncated theory and the
    commutator must vanish; outside them the cutoff shell pollutes it.  Both
    the commutator and its scale are computed on those columns alone."""
    cols = faithful_columns(chain, 2)
    q = math.prod(chain.dims[1:])
    require_budget((chain.rank * q, len(cols)), "monodromy block")  # before x is built
    x = np.zeros((q, len(cols)), dtype=COMPLEX)
    x[cols, np.arange(len(cols))] = 1.0
    t1x, t2x = lax.transfer(chain, lam1, x), lax.transfer(chain, lam2, x)
    scale = max(1.0, cheb(t1x) * cheb(t2x))
    res = cheb(lax.transfer(chain, lam1, t2x) - lax.transfer(chain, lam2, t1x)) / scale
    return CheckReport.from_residual(
        "transfer-commute",
        [
            ("rank", chain.rank),
            ("sites", chain.sites),
            ("cutoff", chain.fock_cutoff),
            ("theta", complex(chain.theta)),
            ("lambda1", complex(lam1)),
            ("lambda2", complex(lam2)),
        ],
        res,
        tol,
        "columns with occupation <= cutoff-2, scaled by transfer norms on those columns",
    )
