"""Numerical certification of the operator identities.

Every check computes both sides of an identity, takes the Chebyshev norm
(largest absolute entry) of the difference, and wraps the verdict in a
:class:`CheckReport`.  Chain operators are applied by contraction
(:func:`defectlab.tensor.apply_local`, through :mod:`defectlab.lax`) to
just the columns a check reads.  The Yang-Baxter equation, RLL and the
transmission algebra share the form P12 X1 X2 = X2 X1 P12 and one routine
that evaluates it: the product of the two local operators, contracted over
their shared leg and formed only on the kept rows and columns, times P12.
The crossing checks compare an explicit matrix with a crossed one, times
rank for the transmission matrices, as their Gamma prefactors fix.  Each
check evaluates its own spectral points as one stack: the lax builders take
the array of points, and the routine contracts the stacks over their leading
axes.  A residual checks one point's product against
the byte budget before it builds any operator, and a stack larger than
:func:`defectlab.tensor.stack_depth` admits is evaluated in consecutive
runs that it admits.  A run's operators, buffers and temporaries are this
thread's kept work arrays (:func:`defectlab.tensor.work_arrays`), and only
its residuals leave it: a check names each operator's role, and the builder
takes it after its own budget check; the routine takes its buffers itself
and checks no budget.  Identities that create one oscillator quantum are
compared on the sub-cutoff block, where truncation is exact, and the transfer
check reads the columns at least two quanta below the cutoff: each block is a
prefix of the Fock basis, :meth:`defectlab.tensor.FockSpace.shells` long.
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
    VARIANT_L,
    ChainSpec,
    LaxSpec,
)
from .tensor import COMPLEX, FockSpace, kept, require_budget, stack_depth, work_arrays


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


def cheb(m, axis=None):
    """Largest absolute entry, 0 for none: a float, or over ``axis`` an array.
    The moduli go to a kept work array."""
    m = np.asarray(m)
    moduli = np.abs(m, out=work_arrays().take("moduli", m.shape, float))
    out = np.max(moduli, axis=axis, initial=0.0)
    return float(out) if axis is None else out


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


def sample_points(rng, count):
    """Complex points uniform in the square |Re|, |Im| < 2, the real part
    drawn first."""
    return [complex(rng.uniform(-2.0, 2.0), rng.uniform(-2.0, 2.0)) for _ in range(count)]


PAIR_SEPARATION = 0.02  # the least distance of a pair's difference from 0 and each avoided one


def sample_pairs(rng, count, avoid_diff=()):
    """Argument pairs for exchange-relation checks, each of two sampled
    points, redrawn while their difference lies within PAIR_SEPARATION of 0
    or of a listed difference (the S-matrix's poles lie at +-i)."""
    pairs = []
    while len(pairs) < count:
        a, b = sample_points(rng, 2)
        if all(abs(a - b - s) >= PAIR_SEPARATION for s in (0.0, *avoid_diff)):
            pairs.append((a, b))
    return pairs


# ---------------------------------------------------------------------------
# Yang-Baxter


def _in_stacks(evaluate, shape, *lams) -> np.ndarray:
    """evaluate(*lams), one value (or row) per point of the points broadcast
    to one stack.  A stack of more points than ``stack_depth(shape)`` is
    evaluated in consecutive runs of that many."""
    lams = np.broadcast_arrays(*(np.asarray(lam, dtype=COMPLEX) for lam in lams))
    depth = stack_depth(shape)
    if lams[0].size <= depth:
        return evaluate(*lams)
    flat = [lam.ravel() for lam in lams]
    out = np.concatenate([evaluate(*(f[i : i + depth] for f in flat)) for i in range(0, flat[0].size, depth)])
    return out.reshape(lams[0].shape + out.shape[1:])


def ybe_residual(rank: int, lam1, lam2, matrix: str = "R"):
    """Chebyshev residual of R12 R13 R23 - R23 R13 R12 (or the same for S):
    RLL with the matrix itself as the Lax operator on a fundamental site.
    One residual per entry of the stack of (lambda1, lambda2)."""
    if matrix == "R":
        build = lambda z, role: lax.r_matrix(rank, z, role)
    elif matrix == "S":
        build = lambda z, role: lax.s_matrix(rank, z, role)
    else:
        raise ValueError(f"matrix must be 'R' or 'S', got {matrix!r}")
    return _exchange_residual(build, build, rank, rank, rank, lam1, lam2)


def _pair_reports(name, parameters, pairs, residual, tol, block) -> tuple:
    """One report per (lambda1, lambda2) pair, from residual(lambda1, lambda2)
    evaluated on all pairs as one stack."""
    lam1, lam2 = np.asarray(pairs, dtype=COMPLEX).reshape(-1, 2).T
    return tuple(
        CheckReport.from_residual(
            name, [*parameters, ("lambda1", complex(a)), ("lambda2", complex(b))], r, tol, block
        )
        for (a, b), r in zip(pairs, residual(lam1, lam2).tolist())
    )


def check_ybe(rank: int, pairs, tol: float = 1e-12, matrix: str = "R") -> tuple:
    return _pair_reports(
        "ybe", [("rank", rank), ("matrix", matrix)], pairs,
        lambda lam1, lam2: ybe_residual(rank, lam1, lam2, matrix), tol, "full triple tensor space",
    )


# ---------------------------------------------------------------------------
# exchange relation with the defect


def _exchange_residual(pair, build, n: int, d: int, k: int, lam1, lam2, normalize=False):
    """Chebyshev residual of P12 X1 X2 - X2 X1 P12 (see _exchange_sides), with
    P12 = pair(lambda1 - lambda2, role) and Xi = build(lambdai, role), per
    entry of the stack of (lambda1, lambda2), normalized by the left side's
    if asked.  One entry's n^2 k x n^2 k product (the first k V states kept)
    passes the budget before any build; the stack is evaluated in runs that
    fit (_in_stacks), each in this thread's kept work arrays."""
    m = n * n * k
    require_budget((m, m), "exchange-relation product")

    def residual(lam1, lam2):
        x1, x2, pair_op = build(lam1, "x1"), build(lam2, "x2"), pair(lam1 - lam2, "pair")
        # a product that overflows leaves a non-finite residual, which fails
        with np.errstate(over="ignore", invalid="ignore"):
            lhs, rhs = _exchange_sides(n, pair_op, x1, x2, d, k)
            res = cheb(np.subtract(lhs, rhs, out=rhs), axis=(-2, -1))
            return res / cheb(lhs, axis=(-2, -1)) if normalize else res

    return _in_stacks(residual, (max(m, n * d),) * 2, lam1, lam2)


def _exchange_sides(n: int, pair_op, x1, x2, d: int, k: int):
    """Both sides of P12 X1 X2 = X2 X1 P12 on aux1 (x) aux2 (x) V, dim V = d,
    on the rows and columns whose V index is among the first k.  P12 acts
    on the two auxiliary spaces, X1 and X2 on one auxiliary space each and V.  The
    two local operators are contracted over their shared V leg w, which runs
    over all of V, and only the kept V legs are formed:

        (X1_13 X2_23)[(a1 a2 v), (b1 b2 u)] = sum_w X1[a1 v, b1 w] X2[a2 w, b2 u],

    with v, u < k; P12 multiplies it on the left.  The right side is
    X2_23 X1_13, the roles swapped, with P12 multiplied on the right.  The
    three operators may be stacks of matrices with the same leading axes,
    which the two sides returned keep.  The steps' two buffers and the left
    side are the kept work arrays ("exchange", 0..2), the leading axes by
    m^2 entries (m = n^2 k), so both sides are views that the next call
    overwrites; the budget is the caller's check."""
    m = n * n * k
    lead = np.shape(x1)[:-2]
    t1, t2 = (np.asarray(x, dtype=COMPLEX).reshape(lead + (n, d, n, d)) for x in (x1, x2))

    def legs(x, *order):  # permute the six trailing legs
        return x.transpose(*range(len(lead)), *(len(lead) + i for i in order))

    # the steps share two buffers, and the left side has a third
    c, x, left = (kept(lead + (m * m,), ("exchange", i)) for i in range(3))

    def contract(s, t):  # sum_w s[a v b w] t[c w e u] into c, legs (a, v, b, c, e, u)
        rows = s[..., :k, :, :].reshape(lead + (-1, d))
        cols = t[..., :k].swapaxes(-4, -3).reshape(lead + (d, -1))
        return np.matmul(rows, cols, out=c.reshape(lead + (n * k * n, -1))).reshape(lead + (n, k, n, n, n, k))

    # X1_13 X2_23 with legs (a1, a2, v, b1, b2, u), then P12 on (a1, a2)
    x12 = x.reshape(lead + (n, n, k, n, n, k))
    x12[...] = legs(contract(t1, t2), 0, 3, 1, 2, 4, 5)
    lhs = np.matmul(pair_op, x12.reshape(lead + (n * n, -1)), out=left.reshape(lead + (n * n, -1)))
    lhs = lhs.reshape(lead + (m, m))
    # X2_23 X1_13 with legs (a1, a2, v, u, b1, b2), then P12 on (b1, b2)
    x21 = x.reshape(lead + (n, n, k, k, n, n))
    x21[...] = legs(contract(t2, t1), 3, 0, 1, 5, 4, 2)
    prod = np.matmul(x21.reshape(lead + (-1, n * n)), pair_op, out=c.reshape(lead + (-1, n * n)))
    rhs = x.reshape(lead + (m, n * n, k))
    rhs[...] = prod.reshape(lead + (m, k, n * n)).swapaxes(-2, -1)
    return lhs, rhs.reshape(lead + (m, m))


def rll_residual(spec: LaxSpec, fock: FockSpace, lam1, lam2):
    """Chebyshev residual of R12 L1 L2 - L2 L1 R12 on the sub-cutoff block,
    one per entry of the stack of (lambda1, lambda2)."""
    n = spec.rank
    return _exchange_residual(
        lambda z, role: lax.r_matrix(n, z, role),
        lambda z, role: lax.defect_lax(spec, fock, z, role),
        n, fock.dim, fock.shells(fock.cutoff - 1), lam1, lam2,
    )


def check_rll(spec: LaxSpec, fock: FockSpace, pairs, tol: float = 1e-10) -> tuple:
    return _pair_reports(
        "rll",
        [
            ("rank", spec.rank),
            ("variant", spec.variant),
            ("ordering", spec.ordering),
            ("shift", spec.shift),
            ("cutoff", fock.cutoff),
        ],
        pairs,
        lambda lam1, lam2: rll_residual(spec, fock, lam1, lam2),
        tol,
        "total occupation <= cutoff-1",
    )


# ---------------------------------------------------------------------------
# oscillator algebra


def check_oscillator_algebra(fock: FockSpace, tol: float = 1e-13) -> CheckReport:
    m = fock.species
    require_budget((2 * m, fock.dim, fock.dim), "Fock ladders")  # all of them are kept
    eye = np.eye(fock.dim, dtype=COMPLEX)
    num = np.diag(fock.occupation)
    k = fock.shells(fock.cutoff - 1)
    ladders = [(fock.annihilator(j), fock.creator(j)) for j in range(1, m + 1)]
    residuals = []
    for i, (ai, adi) in enumerate(ladders):
        for j, (aj, adj) in enumerate(ladders):
            comm = ai @ adj - adj @ ai
            target = eye if i == j else np.zeros_like(eye)
            residuals.append(cheb((comm - target)[:k, :k]))
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
    n = spec.rank * fock.dim

    def residual(points):
        explicit = lax.l_hat_matrix(spec, fock, points, "x1")
        crossed = lax.crossed_l_matrix(spec, fock, points, "x2")
        return cheb(np.subtract(explicit, crossed, out=crossed), axis=(-2, -1))

    worst = worst_of(0.0, *_in_stacks(residual, (n, n), lams).tolist())
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
    """Product over slots of the diagonal (k,k) weight on the local vacuum;
    a bulk site's is lambda + i on its reference state (lax.bulk_reference)."""
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
            weight *= (z + 1j) if k == lax.bulk_reference(n) + 1 else z
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
    # before the vacuum is built: the monodromy's columns, and the defect's
    # Lax operator that it builds (the builders' refusal)
    require_budget((n * math.prod(chain.dims[1:]), n), "monodromy block")
    require_budget((n * fock.dim, n * fock.dim), "oscillator operator")
    omega = lax.chain_vacuum(chain)
    worst = 0.0
    for j in range(1, fock.species + 1):
        worst = worst_of(worst, cheb(fock.annihilator(j) @ fock.vacuum()))
    worst = worst_of(worst, float(fock.occupation[0]))
    # column l is e_l (x) Omega, which T maps to sum_k e_k (x) T_kl Omega
    columns = np.kron(np.eye(n, dtype=COMPLEX), omega[:, None])
    at = lambda z: omega.conj() @ lax.monodromy(chain, z, columns).reshape(len(z), n, omega.size, n)
    for z, expect in zip(lams, _in_stacks(at, (n * omega.size, n), lams)):
        targets = np.diag([_local_vacuum_weight(chain, k, z) for k in range(1, n + 1)])
        scale = max(1.0, (abs(z) + 2.0) ** (chain.sites + 1))
        worst = worst_of(worst, cheb(expect - targets) / scale)
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
):
    """Normalized Chebyshev residual of S12 T1 T2 - T2 T1 S12, one per entry
    of the stack of (lambda1, lambda2).

    The residual is divided by the Chebyshev norm of the left side, so it is
    invariant under rescaling the transmission matrix by any nonzero scalar
    function of lambda.
    """
    build = lax.conjugate_transmission_matrix if conjugate else lax.transmission_matrix
    return _exchange_residual(
        lambda z, role: lax.s_matrix(rank, z, role),
        lambda z, role: build(rank, fock, z, role),
        rank, fock.dim, fock.shells(fock.cutoff - 1), lam1, lam2, normalize=True,
    )


def check_transmission_algebra(
    rank: int,
    fock: FockSpace,
    pairs,
    conjugate: bool = False,
    tol: float = 1e-10,
) -> tuple:
    return _pair_reports(
        "transmission-algebra",
        [
            ("rank", rank),
            ("matrix", "conjugate" if conjugate else "direct"),
            ("nbar_ordering", ANTINORMAL),
            ("cutoff", fock.cutoff),
        ],
        pairs,
        lambda lam1, lam2: transmission_algebra_residual(rank, fock, lam1, lam2, conjugate),
        tol,
        "scale-normalized, total occupation <= cutoff-1",
    )


def check_transmission_crossing(
    rank: int, fock: FockSpace, grid: Sequence[float] | None = None, tol: float = 1e-8
) -> CheckReport:
    """The conjugate transmission matrix against rank times the crossing
    transform of the direct one, V_1 T^{t_1}(-lambda + i rank/2) V_1.

    Both carry the head -i lambda - rank/2 + 1 + nbar, so the constant is
    their Gamma prefactors' ratio T^+(lambda) (-i lambda - 1/2) /
    T^-(-lambda + i rank/2) = (-i lambda - 1/2) Gamma(b) / Gamma(b + 1) = rank,
    where b = -i lambda/rank - 1/(2 rank).  A grid point's residual is the
    Chebyshev norm of conjugate - rank * crossed over the conjugate's, and
    the report's is the worst point's.
    """
    grid = np.linspace(-3.0, 3.0, 20) if grid is None else grid
    n = rank * fock.dim

    def residual(points):
        conjugate = lax.conjugate_transmission_matrix(rank, fock, points, "x1")
        crossed = lax.crossed_transmission_matrix(rank, fock, points, "x2")
        misfit = np.subtract(conjugate, np.multiply(rank, crossed, out=crossed), out=crossed)
        return cheb(misfit, axis=(-2, -1)) / cheb(conjugate, axis=(-2, -1))

    worst = worst_of(0.0, *_in_stacks(residual, (n, n), grid).tolist())
    return CheckReport.from_residual(
        "transmission-crossing",
        [("rank", rank), ("cutoff", fock.cutoff), ("nbar_ordering", ANTINORMAL),
         ("grid_points", len(list(grid))), ("constant", complex(rank))],
        worst,
        tol,
        "full auxiliary x Fock space, relative to the conjugate, across the rapidity grid",
    )


# ---------------------------------------------------------------------------
# transfer matrix commutativity


def check_transfer_commute(chain: ChainSpec, pairs, tol: float = 1e-10) -> tuple:
    """Commutator of transfer matrices at each (lambda1, lambda2) pair.

    Columns are restricted to oscillator occupation <= cutoff - 2: the two
    transfer factors insert at most two raising operators, so on those
    columns the truncated product agrees with the untruncated theory and the
    commutator must vanish; outside them the cutoff shell pollutes it.  Both
    the commutator and its scale are computed on those columns alone.  The
    pairs are one stack, in runs sized by a pair's two rank*q x m blocks, and
    a run makes two transfer passes: t(l)x, then t(l) on the partner's t(l')x."""
    fock, q, p = chain.fock, math.prod(chain.dims[1:]), chain.defect_site
    pre, post = math.prod(chain.dims[1:p]), math.prod(chain.dims[p + 1 :])
    k = fock.shells(fock.cutoff - 2)
    width = pre * k * post
    require_budget((chain.rank * q, width), "monodromy block")  # before the columns are built
    if not k:
        raise ValueError(f"cutoff {fock.cutoff} leaves no occupation-2 margin; raise the cutoff")
    # identity columns on (slots before the defect) x (its first k Fock states) x (slots after it)
    x = np.kron(np.eye(pre, dtype=COMPLEX), np.kron(np.eye(fock.dim, k, dtype=COMPLEX), np.eye(post)))

    def residual(lam1, lam2):
        # a product that overflows leaves a non-finite residual, which fails
        with np.errstate(over="ignore", invalid="ignore"):
            tx = lax.transfer(chain, np.concatenate([lam1, lam2]), x)
            both = lax.transfer(chain, np.concatenate([lam2, lam1]), tx)  # t2 t1 x, then t1 t2 x
            scale = np.fmax(1.0, np.multiply(*cheb(tx, axis=(-2, -1)).reshape(2, -1)))
            return cheb(np.subtract(*np.split(both, 2)), axis=(-2, -1)) / scale

    return _pair_reports(
        "transfer-commute",
        [("rank", chain.rank), ("sites", chain.sites), ("cutoff", chain.fock_cutoff),
         ("theta", complex(chain.theta))],
        pairs,
        lambda lam1, lam2: _in_stacks(residual, (2, chain.rank * q, width), lam1, lam2),
        tol,
        "columns with occupation <= cutoff-2, scaled by transfer norms on those columns",
    )
