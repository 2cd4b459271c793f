"""Nested Bethe equations for the chain with one transmitting impurity.

Roots are organized by nesting level 1..rank-1.  ``_factors`` is the one
declaration of which factors enter each level's equation: e_1 over the
adjacent levels (the physical sites act as a level 0 next to level 1, one
rapidity 0 of multiplicity ``sites``), the impurity's one-sided factor at
theta, either lambda - theta + i/2 or 1/(lambda - theta - i/2), on the level
its sign selects (``kernels.impurity_level``: 1 for '+', rank-1 for '-'),
and e_2 over the level's own roots.  The residual, the Jacobian, the
collision guard and the counting functions each loop over that list, so a
change of convention (the self-term sign, the impurity factor) edits
``_factors`` and the impurity kernels only.

The equations are written multiplicatively.  With the self-term included on
the right (its value at coinciding arguments is exactly -1) the conventional
overall minus sign disappears, so a root set solves the system iff every
log-ratio vanishes on the principal branch.
"""

from __future__ import annotations

import cmath
import json
from dataclasses import dataclass, field, replace

import numpy as np

from .kernels import defect_side, impurity_level
from .tensor import COMPLEX

COLLISION_GUARD = 1e-9
LINE_SEARCH_DAMPING = 0.5  # step scale factor after a rejected trial


class ConvergenceError(RuntimeError):
    """Newton iteration failed; carries the residual trace."""

    def __init__(self, message: str, trace: list[float]):
        super().__init__(message)
        self.trace = trace


class RootCollisionError(RuntimeError):
    """Two roots (or a root and a pole) closer than the collision guard."""


def _json(value, *types):
    """value if its type is one of types, else TypeError: the strict JSON reader, in
    which a bool is no integer, a string no number, and no float is truncated."""
    if type(value) not in types:
        raise TypeError(value)
    return value


def _integer(value) -> int:
    return _json(value, int)


def _real(value) -> float:
    return float(_json(value, int, float))


def _pair(value) -> complex:
    re, im = _json(value, list)
    return complex(_real(re), _real(im))


def _read(read, value, message: str):
    """read(value), or a ValueError with the message if it cannot."""
    try:
        return read(value)
    except (TypeError, ValueError, OverflowError):
        raise ValueError(message) from None


@dataclass
class BetheState:
    """Root configuration of the nested system.

    roots holds one complex array per nesting level (level 1 first).  theta
    is the impurity rapidity; defect_sign selects which one-sided factor is
    active (None for a chain without the impurity term).  defect_level, the
    nesting level it enters at, is derived from the sign (1 without it).
    """

    rank: int
    sites: int
    roots: tuple = field(default_factory=tuple)
    theta: float = 0.0
    defect_sign: str | None = None
    defect_level: int = field(init=False)

    def __post_init__(self):
        if self.rank < 2:
            raise ValueError(f"rank must be >= 2, got {self.rank}")
        if self.sites < 0:
            raise ValueError(f"sites must be >= 0, got {self.sites}")
        if len(self.roots) != self.rank - 1:
            raise ValueError(f"expected {self.rank - 1} root levels, got {len(self.roots)}")
        sign = self.defect_sign
        self.defect_level = 1 if sign is None else impurity_level(self.rank, sign)
        self.roots = tuple(np.asarray(r, dtype=COMPLEX).ravel() for r in self.roots)

    def magnon_counts(self) -> tuple:
        return tuple(len(r) for r in self.roots)

    def to_dict(self) -> dict:
        return {
            "schema": 1,
            "rank": self.rank,
            "sites": self.sites,
            "theta": float(self.theta),
            "defect_sign": self.defect_sign,
            "defect_level": self.defect_level,
            "roots": [[[float(z.real), float(z.imag)] for z in lv] for lv in self.roots],
        }

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), sort_keys=True, indent=2) + "\n"

    @classmethod
    def from_dict(cls, data) -> "BetheState":
        """A ValueError names a key that is missing, unknown, mistyped, not finite or disagreeing."""
        if not isinstance(data, dict):
            raise ValueError(f"a state must be a JSON object, got {type(data).__name__}")
        schema = data.get("schema")
        if type(schema) is not int or schema != 1:
            raise ValueError(f"unsupported schema {schema!r}")
        readers = (
            ("rank", _integer, "an integer"), ("sites", _integer, "an integer"),
            ("theta", _real, "a real number"), ("defect_level", _integer, "an integer"),
            ("roots", lambda levels: [[_pair(z) for z in lv] for lv in levels],
             "a list of levels, each a list of [re, im] pairs"),
        )
        unknown = sorted(set(data) - {"schema", "defect_sign"} - {key for key, *_ in readers})
        if unknown:
            raise ValueError(f"unknown key {', '.join(map(repr, unknown))}")
        fields = {}
        for key, read, what in readers:
            if key in data:
                fields[key] = _read(read, data[key], f"{key} must be {what}")
            elif key != "defect_level":  # optional: it follows from the sign
                raise ValueError(f"missing key {key!r}")
        level = fields.pop("defect_level", None)
        for key, values in (("theta", [fields["theta"]]), ("roots", sum(fields["roots"], []))):
            if not all(map(cmath.isfinite, values)):
                raise ValueError(f"{key} must be finite")
        state = cls(defect_sign=data.get("defect_sign"), **fields)
        if level not in (None, state.defect_level):
            raise ValueError(f"defect_level must be {state.defect_level} for defect_sign "
                             f"{state.defect_sign!r} at rank {state.rank}, got {level}")
        return state

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


def phase(lam, n: int):
    """Odd phase 2 arctan(2 lam / n) of the elementary ratio on the axis."""
    return 2.0 * np.arctan(2.0 * np.asarray(lam, dtype=float) / n)


def _a_n(x, n):
    return (1.0 / (2.0 * np.pi)) * n / (x * x + 0.25 * n * n)


def defect_factor(lam, sign: str):
    """(lam + side i/2) ** side: lam + i/2 for '+', 1/(lam - i/2) for '-'."""
    side = defect_side(sign)
    z = np.asarray(lam, dtype=COMPLEX) + side * 0.5j
    return z if side > 0 else 1.0 / z


def defect_log_derivative(lam, sign: str):
    """side / (lam + side i/2)."""
    side = defect_side(sign)
    return side / (np.asarray(lam, dtype=COMPLEX) + side * 0.5j)


def defect_phase(lam, sign: str):
    """Odd phase of the one-sided impurity factor on the real axis; both
    signs carry the same real-axis phase arctan(2 lam)."""
    defect_side(sign)
    return np.arctan(2.0 * np.asarray(lam, dtype=float))


def _defect_density(lam, sign: str):
    """d/dlam defect_phase / 2 pi: half of _a_n(lam, 1), for either sign."""
    return 0.5 * _a_n(lam, 1)


# the kernels of each kind of factor, all called as kernel(lam - mu, argument):
# value, log-derivative, real-axis phase, and that phase's derivative / 2 pi
_SCATTERING = (e_ratio, e_ratio_log_derivative, phase, _a_n)
_IMPURITY = (defect_factor, defect_log_derivative, defect_phase, _defect_density)


def _factors(state: BetheState, level: int) -> list:
    """Every factor of the level-``level`` equation, in the order it folds
    in, as (kernels, argument, rapidities mu, power, level of mu):

    - e_1 over each adjacent level's roots; the sites are level 0, one
      rapidity 0 to the power ``sites``;
    - the impurity's one-sided factor at theta on ``defect_level`` (level None);
    - e_2 over the level's own roots, self-term included, as the divisor.
    """
    if not 1 <= level <= state.rank - 1:
        raise ValueError(f"level must be in 1..{state.rank - 1}, got {level}")
    out = []
    if level > 1:
        out.append((_SCATTERING, 1, state.roots[level - 2], 1, level - 1))
    elif state.sites:
        out.append((_SCATTERING, 1, np.zeros(1, dtype=COMPLEX), state.sites, 0))
    if level + 1 < state.rank:
        out.append((_SCATTERING, 1, state.roots[level], 1, level + 1))
    if state.defect_sign is not None and level == state.defect_level:
        out.append((_IMPURITY, state.defect_sign, np.full(1, state.theta, dtype=COMPLEX), 1, None))
    out.append((_SCATTERING, 2, state.roots[level - 1], -1, level))
    return out


def _guard_collisions(state: BetheState) -> None:
    for level, roots in enumerate(state.roots, start=1):
        diff = roots[:, None] - roots[None, :]
        np.fill_diagonal(diff, np.inf)
        dmin = float(np.abs(diff).min(initial=np.inf))
        if dmin < COLLISION_GUARD:
            raise RootCollisionError(f"two level-{level} roots within {dmin:.3e} (< {COLLISION_GUARD:g})")
        # a root on a log singularity of its own equation: the zero and the
        # pole of e_n at -+ i n/2, the impurity factor's zero ('+') or pole
        # ('-') at lam - theta = -side i/2; diff's inf diagonal is no pole
        for kernels, arg, mu, _, source in _factors(state, level):
            d = diff if source == level else roots[:, None] - mu[None, :]
            if kernels is _IMPURITY:
                near = np.abs(d + defect_side(arg) * 0.5j).min(initial=np.inf)
                what = "the impurity pole"
            else:
                near = np.minimum(np.abs(d - 0.5j * arg), np.abs(d + 0.5j * arg)).min(initial=np.inf)
                what = "a scattering pole"
            if near < COLLISION_GUARD:
                raise RootCollisionError(f"level-{level} root within {COLLISION_GUARD:g} of {what}")


def bae_residual(state: BetheState) -> np.ndarray:
    """Principal log-ratio of each root's equation, level 1 first; all zero
    at an exact solution."""
    _guard_collisions(state)
    out = []
    for level, lam in enumerate(state.roots, start=1):
        ratio = np.ones(len(lam), dtype=COMPLEX)
        for (value, *_), arg, mu, power, source in _factors(state, level):
            term = value(lam[:, None] - mu[None, :], arg)
            if source == level:
                np.fill_diagonal(term, -1.0)  # self-term: e_2(0) = -1 exactly
                ratio = ratio / np.prod(term, axis=1)
            else:
                ratio = ratio * np.prod(term, axis=1) ** power
        out.append(np.log(ratio))
    return np.concatenate(out)


def _jacobian(state: BetheState) -> np.ndarray:
    """Complex Jacobian of bae_residual with respect to the stacked roots.
    Exact: the derivative of the principal log of a product is the sum of
    the factor log-derivatives wherever the product is nonzero."""
    offsets = np.concatenate([[0], np.cumsum(state.magnon_counts())])
    jac = np.zeros((offsets[-1], offsets[-1]), dtype=COMPLEX)
    for level, lam in enumerate(state.roots, start=1):
        rows = slice(offsets[level - 1], offsets[level])
        diag = np.zeros(len(lam), dtype=COMPLEX)
        for (_, log_derivative, *_), arg, mu, power, source in _factors(state, level):
            g = log_derivative(lam[:, None] - mu[None, :], arg)
            if source == level:
                np.fill_diagonal(g, 0.0)  # the self-term is constant
            diag += power * np.sum(g, axis=1)
            if source:
                block = jac[rows, offsets[source - 1] : offsets[source]]
                block -= power * g
        jac[rows, rows][np.diag_indices(len(lam))] += diag
    return jac


def solve_bae(state: BetheState, tol: float = 1e-10, max_iter: int = 200) -> BetheState:
    """Damped Newton iteration on the stacked log-ratio system.

    The step is halved whenever the residual norm would grow; failure to
    converge raises ConvergenceError carrying the residual trace.
    """
    if sum(state.magnon_counts()) == 0:
        return state
    splits = np.cumsum(state.magnon_counts())[:-1]
    current, flat = state, np.concatenate(state.roots)
    fval = bae_residual(current)
    norm = float(np.max(np.abs(fval)))
    trace = [norm]
    for _ in range(max_iter):
        if norm <= tol:
            return current
        jac = _jacobian(current)
        try:
            step = np.linalg.solve(jac, -fval)
        except np.linalg.LinAlgError as exc:
            raise ConvergenceError(f"singular Jacobian: {exc}", trace) from exc
        scale = 1.0
        for _ in range(40):
            trial_flat = flat + scale * step
            trial = replace(current, roots=tuple(np.split(trial_flat, splits)))
            try:
                trial_f = bae_residual(trial)
            except RootCollisionError:
                scale *= LINE_SEARCH_DAMPING
                continue
            trial_norm = float(np.max(np.abs(trial_f)))
            if trial_norm < norm or trial_norm <= tol:
                break
            scale *= LINE_SEARCH_DAMPING
        else:
            raise ConvergenceError(f"line search stalled at residual {norm:.3e}", trace)
        current, flat, fval, norm = trial, trial_flat, trial_f, trial_norm
        trace.append(norm)
    if norm <= tol:
        return current
    raise ConvergenceError(f"no convergence after {max_iter} iterations (residual {norm:.3e})", trace)


# ---------------------------------------------------------------------------
# counting function


def counting_function(state: BetheState, level: int, lam) -> np.ndarray:
    """Scaled phase sum whose values at the roots sit on the quantization
    ladder (half-odd integers for even counts)."""
    lam = np.atleast_1d(np.asarray(lam, dtype=float))
    total = np.zeros_like(lam)
    for (_, _, kernel, _), arg, mu, power, _ in _factors(state, level):
        total += power * np.sum(kernel(lam[..., None] - mu.real, arg), axis=-1)
    return total / (2.0 * np.pi)


def counting_function_derivative(state: BetheState, level: int, lam) -> np.ndarray:
    lam = np.atleast_1d(np.asarray(lam, dtype=float))
    total = np.zeros_like(lam)
    for (*_, kernel), arg, mu, power, _ in _factors(state, level):
        total += power * np.sum(kernel(lam[..., None] - mu.real, arg), axis=-1)
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
