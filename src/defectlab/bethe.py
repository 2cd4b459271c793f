"""Nested Bethe equations for the chain with one transmitting impurity.

Roots are organized by nesting level 1..rank-1; level 0 stands for the
physical sites (rapidity 0 each) and level rank is empty.  The sites enter
as one rapidity 0 of multiplicity ``sites``: one power e_1(lambda)^sites in
the level-1 equations, one term sites * d/dlambda log e_1 in their Jacobian
and one pole test.  The impurity enters the equations at one level through
a one-sided factor, either lambda - theta + i/2 or 1/(lambda - theta - i/2).

The equations are written multiplicatively.  With the self-term included on
the right (its value at coinciding arguments is exactly -1) the conventional
overall minus sign disappears, so a root set solves the system iff every
log-ratio vanishes on the principal branch.  Residual, Jacobian and
counting function are array expressions over lambda[:, None] - mu[None, :],
one per pair of coupled levels.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field, replace

import numpy as np

from .kernels import defect_side
from .tensor import COMPLEX

COLLISION_GUARD = 1e-9


class ConvergenceError(RuntimeError):
    """Newton iteration failed; carries the residual trace."""

    def __init__(self, message: str, trace: list[float]):
        super().__init__(message)
        self.trace = trace


class RootCollisionError(RuntimeError):
    """Two roots (or a root and a pole) closer than the collision guard."""


@dataclass
class BetheState:
    """Root configuration of the nested system.

    roots holds one complex array per nesting level (level 1 first).  theta
    is the impurity rapidity; defect_sign selects which one-sided factor is
    active (None for a chain without the impurity term) and defect_level the
    nesting level it enters at.
    """

    rank: int
    sites: int
    roots: tuple = field(default_factory=tuple)
    theta: float = 0.0
    defect_sign: str | None = None
    defect_level: int = 1

    def __post_init__(self):
        if self.rank < 2:
            raise ValueError(f"rank must be >= 2, got {self.rank}")
        if self.sites < 0:
            raise ValueError(f"sites must be >= 0, got {self.sites}")
        if len(self.roots) != self.rank - 1:
            raise ValueError(
                f"expected {self.rank - 1} root levels, got {len(self.roots)}"
            )
        if self.defect_sign is not None:
            defect_side(self.defect_sign)
        if not 1 <= self.defect_level <= self.rank - 1:
            raise ValueError(
                f"defect_level must be in 1..{self.rank - 1}, got {self.defect_level}"
            )
        self.roots = tuple(np.asarray(r, dtype=COMPLEX).ravel() for r in self.roots)

    def magnon_counts(self) -> tuple:
        return tuple(len(r) for r in self.roots)

    def level_roots(self, level: int) -> np.ndarray:
        """Roots at a nesting level, with the boundary conventions: level 0
        returns the site rapidities (all zero), level rank is empty."""
        if level == 0:
            return np.zeros(self.sites, dtype=COMPLEX)
        if level == self.rank:
            return np.zeros(0, dtype=COMPLEX)
        return self.roots[level - 1]

    def to_dict(self) -> dict:
        return {
            "schema": 1,
            "rank": self.rank,
            "sites": self.sites,
            "theta": float(self.theta),
            "defect_sign": self.defect_sign,
            "defect_level": self.defect_level,
            "roots": [
                [[float(z.real), float(z.imag)] for z in level] for level in self.roots
            ],
        }

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), sort_keys=True, indent=2) + "\n"

    @classmethod
    def from_dict(cls, data: dict) -> "BetheState":
        if data.get("schema") != 1:
            raise ValueError(f"unsupported schema {data.get('schema')!r}")
        try:
            roots = tuple(
                np.array([complex(re, im) for re, im in level], dtype=COMPLEX)
                for level in data["roots"]
            )
        except (TypeError, ValueError):
            raise ValueError(
                "roots must be a list of levels, each a list of [re, im] pairs"
            ) from None
        return cls(
            rank=int(data["rank"]),
            sites=int(data["sites"]),
            roots=roots,
            theta=float(data["theta"]),
            defect_sign=data.get("defect_sign"),
            defect_level=int(data.get("defect_level", 1)),
        )

    @classmethod
    def from_json(cls, text: str) -> "BetheState":
        return cls.from_dict(json.loads(text))


def e_ratio(lam, n: int):
    """(lam + i n/2) / (lam - i n/2), the elementary scattering ratio."""
    lam = np.asarray(lam, dtype=COMPLEX)
    return (lam + 0.5j * n) / (lam - 0.5j * n)


def e_ratio_log_derivative(lam, n: int):
    """d/dlam log e_n(lam) = -i n / (lam^2 + n^2/4)."""
    lam = np.asarray(lam, dtype=COMPLEX)
    return -1j * n / (lam * lam + 0.25 * n * n)


def defect_factor(lam, sign: str):
    """(lam + side i/2) ** side: lam + i/2 for '+', 1/(lam - i/2) for '-'."""
    side = defect_side(sign)
    z = np.asarray(lam, dtype=COMPLEX) + side * 0.5j
    return z if side > 0 else 1.0 / z


def defect_log_derivative(lam, sign: str):
    """side / (lam + side i/2)."""
    side = defect_side(sign)
    return side / (np.asarray(lam, dtype=COMPLEX) + side * 0.5j)


def _neighbours(state: BetheState, level: int) -> list:
    """(level, rapidities, multiplicity) of the levels adjacent to ``level``
    that hold rapidities: the sites are level 0, one rapidity 0 of
    multiplicity ``sites``."""
    out = []
    if level > 1:
        out.append((level - 1, state.roots[level - 2], 1))
    elif state.sites:
        out.append((0, np.zeros(1, dtype=COMPLEX), state.sites))
    if level + 1 < state.rank:
        out.append((level + 1, state.roots[level], 1))
    return out


def _guard_collisions(state: BetheState, guard: float = COLLISION_GUARD) -> None:
    for level, roots in enumerate(state.roots, start=1):
        diff = roots[:, None] - roots[None, :]
        np.fill_diagonal(diff, np.inf)
        if len(roots) > 1:
            dmin = float(np.min(np.abs(diff)))
            if dmin < guard:
                raise RootCollisionError(
                    f"two level-{level} roots within {dmin:.3e} (< {guard:g})"
                )
        # a root sitting on a log singularity of its own equation
        poles = [(roots[:, None] - mu[None, :], 0.5j) for _, mu, _ in _neighbours(state, level)]
        for d, pole in poles + [(diff, 1j)]:
            if d.size and float(np.min(np.minimum(np.abs(d - pole), np.abs(d + pole)))) < guard:
                raise RootCollisionError(
                    f"level-{level} root within {guard:g} of a scattering pole"
                )
        if state.defect_sign is not None and level == state.defect_level:
            # the factor's zero ('+') or pole ('-'): lam - theta + side i/2 = 0
            d = np.abs(roots - state.theta + defect_side(state.defect_sign) * 0.5j)
            if d.size and float(np.min(d)) < guard:
                raise RootCollisionError(
                    f"level-{level} root within {guard:g} of the impurity pole"
                )


@dataclass(frozen=True)
class BAEResidual:
    """Principal log-ratio of each equation; all zero at an exact solution."""

    per_level: tuple

    @property
    def max_abs(self) -> float:
        vals = [np.max(np.abs(r)) if len(r) else 0.0 for r in self.per_level]
        return float(max(vals)) if vals else 0.0


def _equation_ratio(state: BetheState, level: int) -> np.ndarray:
    """LHS/RHS of the level equations, elementwise over that level's roots."""
    lam = state.level_roots(level)
    if len(lam) == 0:
        return np.zeros(0, dtype=COMPLEX)
    lhs = np.ones(len(lam), dtype=COMPLEX)
    for _, mu, mult in _neighbours(state, level):
        lhs = lhs * np.prod(e_ratio(lam[:, None] - mu[None, :], 1), axis=1) ** mult
    if state.defect_sign is not None and level == state.defect_level:
        lhs = lhs * defect_factor(lam - state.theta, state.defect_sign)
    term = e_ratio(lam[:, None] - lam[None, :], 2)
    np.fill_diagonal(term, -1.0)  # self-term: e_2(0) = -1 exactly
    return lhs / np.prod(term, axis=1)


def bae_residual(state: BetheState, guard: float = COLLISION_GUARD) -> BAEResidual:
    _guard_collisions(state, guard)
    per_level = tuple(
        np.log(_equation_ratio(state, level)) if len(state.roots[level - 1]) else np.zeros(0, dtype=COMPLEX)
        for level in range(1, state.rank)
    )
    return BAEResidual(per_level=per_level)


def _jacobian(state: BetheState) -> np.ndarray:
    """Complex Jacobian of the stacked log-ratios with respect to the stacked
    roots.  Exact: the derivative of the principal log of a product is the
    sum of the factor log-derivatives wherever the product is nonzero."""
    counts = state.magnon_counts()
    total = sum(counts)
    offsets = np.concatenate([[0], np.cumsum(counts)])
    jac = np.zeros((total, total), dtype=COMPLEX)
    for level in range(1, state.rank):
        lam = state.level_roots(level)
        rows = slice(offsets[level - 1], offsets[level])
        diag = np.zeros(len(lam), dtype=COMPLEX)
        for adj, mu, mult in _neighbours(state, level):
            g = e_ratio_log_derivative(lam[:, None] - mu[None, :], 1)
            diag += mult * np.sum(g, axis=1)
            if adj:
                jac[rows, offsets[adj - 1] : offsets[adj]] -= g
        if state.defect_sign is not None and level == state.defect_level:
            diag += defect_log_derivative(lam - state.theta, state.defect_sign)
        g2 = e_ratio_log_derivative(lam[:, None] - lam[None, :], 2)
        np.fill_diagonal(g2, 0.0)
        block = jac[rows, rows]
        block += g2
        block[np.diag_indices(len(lam))] += diag - np.sum(g2, axis=1)
    return jac


def _stack(state: BetheState) -> np.ndarray:
    return np.concatenate([r for r in state.roots]) if sum(state.magnon_counts()) else np.zeros(0, dtype=COMPLEX)


def _unstack(state: BetheState, flat: np.ndarray) -> BetheState:
    counts = state.magnon_counts()
    offsets = np.concatenate([[0], np.cumsum(counts)])
    roots = tuple(
        flat[offsets[k] : offsets[k + 1]].copy() for k in range(len(counts))
    )
    return replace(state, roots=roots)


def solve_bae(
    state: BetheState,
    tol: float = 1e-10,
    max_iter: int = 200,
    damping: float = 0.5,
    guard: float = COLLISION_GUARD,
) -> BetheState:
    """Damped Newton iteration on the stacked log-ratio system.

    The step is halved whenever the residual norm would grow; failure to
    converge raises ConvergenceError carrying the residual trace.
    """
    current = state
    trace: list[float] = []
    if sum(state.magnon_counts()) == 0:
        return current
    res = bae_residual(current, guard)
    fval = np.concatenate(res.per_level)
    norm = float(np.max(np.abs(fval)))
    trace.append(norm)
    for _ in range(max_iter):
        if norm <= tol:
            return current
        jac = _jacobian(current)
        try:
            step = np.linalg.solve(jac, -fval)
        except np.linalg.LinAlgError as exc:
            raise ConvergenceError(f"singular Jacobian: {exc}", trace) from exc
        scale = 1.0
        flat = _stack(current)
        for _ in range(40):
            trial = _unstack(current, flat + scale * step)
            try:
                trial_res = bae_residual(trial, guard)
            except RootCollisionError:
                scale *= damping
                continue
            trial_f = np.concatenate(trial_res.per_level)
            trial_norm = float(np.max(np.abs(trial_f)))
            if trial_norm < norm or trial_norm <= tol:
                break
            scale *= damping
        else:
            raise ConvergenceError(
                f"line search stalled at residual {norm:.3e}", trace
            )
        current, fval, norm = trial, trial_f, trial_norm
        trace.append(norm)
    if norm <= tol:
        return current
    raise ConvergenceError(
        f"no convergence after {max_iter} iterations (residual {norm:.3e})", trace
    )


# ---------------------------------------------------------------------------
# counting function


def phase(lam, n: int):
    """Odd phase 2 arctan(2 lam / n) of the elementary ratio on the axis."""
    return 2.0 * np.arctan(2.0 * np.asarray(lam, dtype=float) / n)


def defect_phase(lam):
    """Odd phase of the one-sided impurity factor on the real axis; both
    signs carry the same real-axis phase arctan(2 lam)."""
    return np.arctan(2.0 * np.asarray(lam, dtype=float))


def _coupled_sum(state: BetheState, level: int, lam: np.ndarray, kernel) -> np.ndarray:
    """Sum of kernel(lam - mu, 1) over the adjacent levels' roots (the sites
    with their multiplicity) minus kernel(lam - mu, 2) over the level's own."""
    total = np.zeros_like(lam)
    for _, mu, mult in _neighbours(state, level):
        total += mult * np.sum(kernel(lam[..., None] - mu.real, 1), axis=-1)
    own = state.level_roots(level).real
    return total - np.sum(kernel(lam[..., None] - own, 2), axis=-1)


def counting_function(state: BetheState, level: int, lam) -> np.ndarray:
    """Scaled phase sum whose values at the roots sit on the quantization
    ladder (half-odd integers for even counts)."""
    lam = np.atleast_1d(np.asarray(lam, dtype=float))
    total = _coupled_sum(state, level, lam, phase)
    if state.defect_sign is not None and level == state.defect_level:
        total += defect_phase(lam - state.theta)
    return total / (2.0 * np.pi)


def _a_n(x, n):
    return (1.0 / (2.0 * np.pi)) * n / (x * x + 0.25 * n * n)


def counting_function_derivative(state: BetheState, level: int, lam) -> np.ndarray:
    lam = np.atleast_1d(np.asarray(lam, dtype=float))
    total = _coupled_sum(state, level, lam, _a_n)
    if state.defect_sign is not None and level == state.defect_level:
        total += 0.5 * _a_n(lam - state.theta, 1)
    return total


def ground_state_seed(sites: int, magnons: int | None = None) -> np.ndarray:
    """Real rapidity seeds from the quantiles of the half-filled root
    density 1/(2 cosh pi lambda); good Newton starting points for the
    antiferromagnetic configuration at rank 2."""
    if magnons is None:
        magnons = sites // 2
    if magnons > sites // 2:
        raise ValueError(f"at most sites//2 magnons, got {magnons} for {sites} sites")
    j = np.arange(1, magnons + 1)
    q = 2.0 * np.pi * ((j - 0.5) / sites - 0.25)
    return np.asarray(np.arcsinh(np.tan(q)) / np.pi, dtype=COMPLEX)
