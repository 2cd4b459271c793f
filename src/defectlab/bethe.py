"""Nested Bethe equations for the chain with one transmitting impurity.

Roots are organized by nesting level 1..rank-1.  ``_factors`` is the one
declaration of which factors enter each level's equation: e_1 over the
adjacent levels (the physical sites act as a level 0 next to level 1, one
rapidity 0 of multiplicity ``sites``), the impurity's one-sided factor at
theta, either lambda - theta + i/2 or 1/(lambda - theta - i/2), on the level
its sign selects (``kernels.impurity_level``: 1 for '+', rank-1 for '-'),
and e_2 over the level's own roots.  A kind of factor is declared by the
zero and the pole of its value, (lambda - mu - zero) / (lambda - mu - pole),
and nothing else: its log-derivative, its odd real-axis phase and that
phase's density are derived from the pair.  So a change of convention edits
the self-term constant in ``bae_residual`` and the impurity's pair
(``_defect_zero_pole``) only.

``bae_residual`` evaluates a state in one pass over that list: per factor it
forms the differences lambda - mu once, a row per mu so that each root's
reductions run along axis 0, guards the roots on them and on the shifted
arrays lambda - mu - zero and lambda - mu - pole, and only then builds the
factor's value from those same arrays.  A solve lends every pass one
``tensor.WorkArrays`` with no size limit, one array per role, so it faults
its matrices in once; ``_jacobian`` reads the accepted trial's differences
there and assembles the Jacobian transposed, each block as it lies.  The
counting functions loop over the list as well.

The equations are written multiplicatively, the self-term on the right at
its value -1 at coinciding arguments.  ``test_oracle.py``'s one-root strict
xfail shows this constant and impurity pair miss t(lambda)'s eigenvalues.
"""

from __future__ import annotations

import cmath
import json
from dataclasses import dataclass, field, replace

import numpy as np

from .kernels import defect_side, impurity_level
from .tensor import COMPLEX, WorkArrays

COLLISION_GUARD = 1e-9
LINE_SEARCH_DAMPING = 0.5  # step scale factor after a rejected trial


class ConvergenceError(RuntimeError):
    """Newton iteration failed; carries the residual trace."""

    def __init__(self, message: str, trace: list[float]):
        super().__init__(message)
        self.trace = trace


class RootCollisionError(RuntimeError):
    """Two roots, or a root and a factor's zero or pole, within the guard."""


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
    residual is the bae_residual of these roots when solve_bae returned
    the state, and None otherwise.
    """

    rank: int
    sites: int
    roots: tuple = field(default_factory=tuple)
    theta: float = 0.0
    defect_sign: str | None = None
    defect_level: int = field(init=False)
    residual: np.ndarray | None = field(default=None, init=False, compare=False, repr=False)

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
            "roots": [lv.view(float).reshape(-1, 2).tolist() for lv in self.roots],
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


def _e_ratio_zero_pole(n: int) -> tuple:
    """(zero, pole) of e_n(lam) = (lam + i n/2) / (lam - i n/2)."""
    return -(0.5j * n), 0.5j * n


def _defect_zero_pole(sign: str) -> tuple:
    """(zero, pole) of the impurity factor (lam + side i/2) ** side: the zero
    -i/2 for '+', the pole +i/2 for '-', and None for the other."""
    side = defect_side(sign)
    root = -(side * 0.5j)
    return (root, None) if side > 0 else (None, root)


def _shift(lam, zero_pole, out) -> list:
    """[lam - zero, lam - pole] into out's two arrays; None for a factor
    without that zero or pole."""
    return [None if at is None else np.subtract(lam, at, out=o) for at, o in zip(zero_pole, out)]


def _quotient(top, bottom):
    """(lam - zero) / (lam - pole) from _shift's pair, formed in place of one
    of them."""
    if bottom is None:
        return top
    if top is None:
        return np.divide(1.0, bottom, out=bottom)
    return np.divide(top, bottom, out=top)


def _log_derivative(x, zero_pole, out):
    """d/dx log of the factor (x - zero) / (x - pole): 1/(x - zero) without a
    pole, -1/(x - pole) without a zero, else (zero - pole) / (x^2 - (zero +
    pole) x + zero pole).  Into out[0], with out[1] for (zero + pole) x."""
    zero, pole = zero_pole
    if pole is None:
        return np.divide(1.0, np.subtract(x, zero, out=out[0]), out=out[0])
    if zero is None:
        return np.divide(-1.0, np.subtract(x, pole, out=out[0]), out=out[0])
    den = np.multiply(x, x, out=out[0])
    if zero + pole:
        den -= np.multiply(zero + pole, x, out=out[1])
    den += zero * pole
    return np.divide(zero - pole, den, out=den)


def _scales(zero_pole) -> list:
    """-Im zero and Im pole: the factor's odd real-axis phase, minus the
    argument of its value up to a constant, is the sum of arctan(x / a) over
    these a."""
    return [sign * at.imag for sign, at in zip((-1.0, 1.0), zero_pole) if at is not None]


def _phase(x, zero_pole):
    """The factor's odd real-axis phase; a lone term is returned as it is."""
    terms = [np.arctan(x / a) for a in _scales(zero_pole)]
    return sum(terms[1:], terms[0])


def _phase_density(x, zero_pole):
    """d/dx _phase / 2 pi."""
    terms = [(a / (2.0 * np.pi)) / (x * x + a * a) for a in _scales(zero_pole)]
    return sum(terms[1:], terms[0])


def _factors(state: BetheState, level: int) -> list:
    """Every factor of the level-``level`` equation, in the order it folds
    in, as ((zero, pole), rapidities mu, power, level of mu); its value at
    lam is (lam - mu - zero) / (lam - mu - pole), and its kernels follow
    from that pair:

    - e_1 over each adjacent level's roots; the sites are level 0, one
      rapidity 0 to the power ``sites``;
    - the impurity's one-sided factor at theta on ``defect_level`` (level None);
    - e_2 over the level's own roots, self-term included, as the divisor.
    """
    if not 1 <= level <= state.rank - 1:
        raise ValueError(f"level must be in 1..{state.rank - 1}, got {level}")
    e_1 = _e_ratio_zero_pole(1)
    out = []
    if level > 1:
        out.append((e_1, state.roots[level - 2], 1, level - 1))
    elif state.sites:
        out.append((e_1, np.zeros(1, dtype=COMPLEX), state.sites, 0))
    if level + 1 < state.rank:
        out.append((e_1, state.roots[level], 1, level + 1))
    if state.defect_sign is not None and level == state.defect_level:
        out.append((_defect_zero_pole(state.defect_sign), np.full(1, state.theta, dtype=COMPLEX), 1, None))
    out.append((_e_ratio_zero_pole(2), state.roots[level - 1], -1, level))
    return out


def _differences(scratch: WorkArrays, level: int, lam, factors) -> list:
    """The scratch's array for lam_j - mu_k, at [k, j], of each factor of the
    level's equation, in _factors order: bae_residual fills them, and
    _jacobian reads them as that pass left them."""
    return [scratch.take(("lam - mu", level, k), (len(mu), len(lam))) for k, (_, mu, _, _) in enumerate(factors)]


def bae_residual(state: BetheState, scratch: WorkArrays | None = None) -> np.ndarray:
    """Principal log-ratio of each root's equation, level 1 first; all zero
    at an exact solution.

    One pass per level forms each factor's differences lam - mu once, guards
    the roots on them, and builds the factor's value from the same shifted
    arrays lam - mu - zero and lam - mu - pole; no value is formed before its
    guard has passed.  solve_bae lends the pass its scratch arrays, and
    _jacobian reads the differences left there.
    """
    scratch = WorkArrays() if scratch is None else scratch
    out = []
    for level, lam in enumerate(state.roots, start=1):
        factors = _factors(state, level)
        diffs = [np.subtract(lam, mu[:, None], out=d)
                 for d, (_, mu, _, _) in zip(_differences(scratch, level, lam, factors), factors)]
        gaps = np.abs(diffs[-1], out=scratch.take("modulus", diffs[-1].shape, float))
        np.fill_diagonal(gaps, np.inf)
        dmin = float(gaps.min(initial=np.inf))
        if dmin < COLLISION_GUARD:
            raise RootCollisionError(f"two level-{level} roots within {dmin:.3e} (< {COLLISION_GUARD:g})")
        ratio = np.ones(len(lam), dtype=COMPLEX)
        for (zero_pole, _, power, source), d in zip(factors, diffs):
            # a root on a zero or a pole of a factor of its own equation, a log
            # singularity.  The self-term's diagonal sits n/2 from both; its
            # differences are antisymmetric, so with zero = -pole the zero's test covers both
            shifted = _shift(d, zero_pole, [scratch.take(("work", j), d.shape) for j in (0, 1)])
            modulus = scratch.take("modulus", d.shape, float)
            guarded = shifted[:1] if source == level and zero_pole[0] == -zero_pole[1] else shifted
            for entry, x in zip(("zero", "pole"), guarded):
                if x is not None and np.abs(x, out=modulus).min(initial=np.inf) < COLLISION_GUARD:
                    factor = "the impurity factor" if source is None else "a scattering factor"
                    raise RootCollisionError(
                        f"level-{level} root within {COLLISION_GUARD:g} of the {entry} of {factor}")
            term = _quotient(*shifted)
            if source == level:
                np.fill_diagonal(term, -1.0)  # self-term: e_2(0) = -1 exactly
                ratio = ratio / np.prod(term, axis=0)
            else:
                ratio = ratio * np.prod(term, axis=0) ** power
        out.append(np.log(ratio))
    return np.concatenate(out)


def _jacobian(state: BetheState, scratch: WorkArrays) -> np.ndarray:
    """Complex Jacobian of bae_residual with respect to the stacked roots,
    from the differences that bae_residual's pass on this state left in
    ``scratch``, assembled transposed there and returned as its .T view.
    Exact: the derivative of the principal log of a product is the sum of
    the factor log-derivatives wherever the product is nonzero."""
    offsets = np.concatenate([[0], np.cumsum(state.magnon_counts())])
    jac_t = scratch.take("jacobian", (offsets[-1], offsets[-1]))
    jac_t.fill(0.0)
    for level, lam in enumerate(state.roots, start=1):
        rows = slice(offsets[level - 1], offsets[level])
        factors = _factors(state, level)
        diag = np.zeros(len(lam), dtype=COMPLEX)
        for (zero_pole, _, power, source), d in zip(factors, _differences(scratch, level, lam, factors)):
            g = _log_derivative(d, zero_pole, [scratch.take(("work", j), d.shape) for j in (0, 1)])
            if source == level:
                np.fill_diagonal(g, 0.0)  # the self-term is constant
            diag += power * np.sum(g, axis=0)
            if source:
                block = jac_t[offsets[source - 1] : offsets[source], rows]
                block -= np.multiply(power, g, out=g)
        jac_t[rows, rows][np.diag_indices(len(lam))] += diag
    return jac_t.T


@np.errstate(over="ignore", invalid="ignore", divide="ignore")
def solve_bae(state: BetheState, tol: float = 1e-10, max_iter: int = 200) -> BetheState:
    """Damped Newton iteration on the stacked log-ratio system.

    The step is halved whenever the residual norm would grow; failure to
    converge raises ConvergenceError carrying the residual trace, at once
    when the starting residual is not finite.  A trial whose roots collide
    has an infinite norm, and one that overflows a non-finite norm, so one
    test rejects both like any other and no floating-point warning escapes.
    The Jacobian is built from the differences the accepted trial's residual
    formed.  The state returned is a new one, which carries the residual of
    its last pass.
    """
    splits = np.cumsum(state.magnon_counts())[:-1]
    current, flat, scratch = replace(state), np.concatenate(state.roots), WorkArrays()
    current.residual = fval = bae_residual(current, scratch)
    if not fval.size:
        return current
    norm = float(np.max(np.abs(fval)))
    trace = [norm]
    if not np.isfinite(norm):
        raise ConvergenceError(f"starting residual is not finite ({norm})", trace)
    for _ in range(max_iter):
        if norm <= tol:
            return current
        try:
            step = np.linalg.solve(_jacobian(current, scratch), -fval)
        except np.linalg.LinAlgError as exc:
            raise ConvergenceError(f"singular Jacobian: {exc}", trace) from exc
        scale = 1.0
        for _ in range(40):
            trial_flat = flat + scale * step
            trial = replace(current, roots=tuple(np.split(trial_flat, splits)))
            try:
                trial.residual = trial_f = bae_residual(trial, scratch)
                trial_norm = float(np.max(np.abs(trial_f)))
            except RootCollisionError:
                trial_norm = np.inf
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


def _factor_sum(state: BetheState, level: int, lam, kernel) -> np.ndarray:
    """Sum over the level's factors of power * sum over mu of kernel(lam - mu)."""
    lam = np.atleast_1d(np.asarray(lam, dtype=float))
    total = np.zeros_like(lam)
    for zero_pole, mu, power, _ in _factors(state, level):
        total += power * np.sum(kernel(lam[..., None] - mu.real, zero_pole), axis=-1)
    return total


def counting_function(state: BetheState, level: int, lam) -> np.ndarray:
    """Scaled phase sum whose values at the roots sit on the quantization
    ladder (half-odd integers for even counts)."""
    return _factor_sum(state, level, lam, _phase) / (2.0 * np.pi)


def counting_function_derivative(state: BetheState, level: int, lam) -> np.ndarray:
    return _factor_sum(state, level, lam, _phase_density)


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
