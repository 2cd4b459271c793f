"""Continuum-limit machinery: root densities and the transmitting-impurity
amplitudes as regularized integrals checked against their Gamma-ratio closed
forms.

Every quantity here is a half-line quadrature of the Fourier kernels in
:mod:`defectlab.kernels` (sigma0_hat, r_hat, rt_hat and amplitude_columns),
called directly at the rank a :class:`KernelTable` holds, on the panel grid
of kernels.half_line_grid: Gauss-Legendre nodes, strictly positive, each a
panel mid plus a shared offset.  _half_line_grid caches that grid with its
panel form per cutoff.  A call over a lam grid evaluates each kernel once on
the nodes and makes one Fourier pass, kernels.fourier_cos_sin, which sums
by angle addition over the panels, every sum it needs one coefficient
column: the density's bulk, backflow and impurity terms, the amplitude's log
and log-derivative of every requested sign.  The amplitude's closed form, T
with its log-derivative, is lax.transmission_amplitude; the Gamma identity's
targets come from special.log_gamma_psi.  Both take one log-Gamma and
digamma pass per Gamma argument.

Fourier convention, fixed globally: fhat(omega) = integral dlam
e^{i omega lam} f(lam), inverted by (1/2pi) integral domega
e^{-i omega lam} fhat(omega).  The elementary pair is
a_n(lam) = (1/2pi) n/(lam^2 + n^2/4) <-> ahat_n = e^{-n|omega|/2}.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from . import kernels
from .checks import CheckReport, worst_of
from .special import log_gamma_psi

TAIL_TARGET = 1e-10


class TailBoundError(RuntimeError):
    """Truncated Fourier integral with a tail estimate above target."""

    def __init__(self, message: str, achieved: float):
        super().__init__(message)
        self.achieved = achieved


@lru_cache(maxsize=8)
def _half_line_grid(cutoff: float = kernels.OMEGA_CUTOFF):
    return kernels.half_line_grid(cutoff)


@dataclass(frozen=True)
class KernelTable:
    """The rank at which the Fourier-space kernels are evaluated; every
    function below reads its rank and has it validate the level."""

    rank: int

    def __post_init__(self):
        if self.rank < 2:
            raise ValueError(f"rank must be >= 2, got {self.rank}")

    def _check_level(self, k: int):
        if not 1 <= k <= self.rank - 1:
            raise ValueError(f"level must be in 1..{self.rank - 1}, got {k}")


# ---------------------------------------------------------------------------
# densities


@dataclass(frozen=True)
class DensityProfile:
    """Root density of the single-hole state with the impurity.

    total = bulk + (hole_backflow + defect)/sites pointwise; the defect
    component is complex because its Fourier kernel is one-sided.
    """

    rank: int
    level: int
    sign: str
    lams: np.ndarray
    bulk: np.ndarray
    hole_backflow: np.ndarray
    defect: np.ndarray
    total: np.ndarray
    hole: float
    theta: float
    sites: int
    tail_bound: float

    def to_dict(self) -> dict:
        return {
            "schema": 1,
            "rank": self.rank,
            "level": self.level,
            "sign": self.sign,
            "hole": float(self.hole),
            "theta": float(self.theta),
            "sites": self.sites,
            "tail_bound": float(self.tail_bound),
            "lambda": [float(x) for x in self.lams],
            "sigma": [[float(z.real), float(z.imag)] for z in self.total],
            "bulk": [float(x) for x in self.bulk],
            "hole_backflow": [float(x) for x in self.hole_backflow],
            "defect": [[float(z.real), float(z.imag)] for z in self.defect],
        }


def density(
    table: KernelTable,
    level: int,
    sign: str,
    lams,
    hole: float = 0.0,
    theta: float = 0.0,
    sites: int = 100,
    cutoff: float = kernels.OMEGA_CUTOFF,
) -> DensityProfile:
    """Single-hole density with the impurity correction.

    Each component is an inverse Fourier transform truncated at the cutoff;
    the a-priori tail estimate of each kernel (its largest value at
    +-cutoff over its decay rate) must stay below TAIL_TARGET or
    TailBoundError is raised.
    """
    side = kernels.defect_side(sign)  # refuse a bad sign before anything else
    if sites < 1:
        raise ValueError(f"sites must be >= 1, got {sites}")
    for name, value in (("hole", hole), ("theta", theta)):
        if not math.isfinite(value):
            raise ValueError(f"{name} must be finite, got {value}")
    table._check_level(level)
    n = table.rank
    lams = np.ascontiguousarray(np.atleast_1d(lams), dtype=float)
    edges = np.array([cutoff, -cutoff])
    # (label, kernel at +-cutoff, decay rate); R(j, jp) decays like
    # exp(-|j - jp| |omega|/2), and the one-sided factor adds 1/2
    tails = (
        (f"sigma0:{level}", kernels.sigma0_hat(edges, n, level), level / 2.0),
        (f"r:{level}", kernels.r_hat(edges, n, level), min(1 + level, 1 + abs(level - 2)) / 2.0),
        (
            f"rt:{sign}:{level}",
            kernels.rt_hat(edges, n, level, sign),
            (abs(level - kernels.impurity_level(n, sign)) + 1) / 2.0,
        ),
    )
    worst_tail = 0.0
    for label, edge, rate in tails:
        bound = float(np.max(np.abs(edge))) / rate
        if not bound <= TAIL_TARGET:  # a NaN estimate fails too
            raise TailBoundError(
                f"kernel {label} tail estimate {bound:.3e} exceeds {TAIL_TARGET:g} "
                f"at cutoff {cutoff:g}",
                bound,
            )
        worst_tail = max(worst_tail, bound)
    nodes, weights, panels = _half_line_grid(cutoff)
    # the impurity kernel is one-sided in omega: the half-line nodes map to
    # omega = -side u, so its phase exp(-i omega (lam - theta)) is
    # exp(side i u (lam - theta))
    bulk_w = weights * kernels.sigma0_hat(nodes, n, level)
    back_w = weights * kernels.r_hat(nodes, n, level)
    rt_w = weights * kernels.rt_hat(-side * nodes, n, level, sign)
    cos_h, sin_h = np.cos(hole * nodes), np.sin(hole * nodes)
    cos_t, sin_t = np.cos(theta * nodes), np.sin(theta * nodes)
    coef = np.column_stack((bulk_w, back_w * cos_h, back_w * sin_h, rt_w * cos_t, rt_w * sin_t))
    c, s = kernels.fourier_cos_sin(nodes, coef, lams, panels)
    bulk = c[:, 0] / math.pi
    backflow = (c[:, 1] + s[:, 2]) / math.pi
    defect = (c[:, 3] + s[:, 4] + 1j * side * (s[:, 3] - c[:, 4])) / (2.0 * math.pi)
    total = bulk + (backflow + defect) / sites
    return DensityProfile(
        rank=n,
        level=level,
        sign=sign,
        lams=lams,
        bulk=bulk,
        hole_backflow=backflow,
        defect=defect,
        total=total,
        hole=float(hole),
        theta=float(theta),
        sites=int(sites),
        tail_bound=worst_tail,
    )


# ---------------------------------------------------------------------------
# transmission amplitudes


def amplitude_quadrature(table: KernelTable, signs, lamhats) -> dict:
    """log T and d/dlamhat log T of each sign in ``signs`` on the lamhat
    grid, as {sign: (log_t, dlog_t)}, from one Fourier pass.

    side log T is a regularized integral: the 1/omega singularity of the
    bare exponent is removed by subtracting c0 * e^{-rank |omega|} with c0 the
    kernel's omega -> 0 limit; with this specific damping the result matches
    the Gamma-ratio closed form exactly, constant included.  d/dlamhat log T
    is absolutely convergent (no subtraction).
    """
    lamhats = np.ascontiguousarray(np.atleast_1d(lamhats), dtype=float)
    nodes, weights, panels = _half_line_grid()
    sides = [kernels.defect_side(sign) for sign in signs]
    columns, subtractions = [], []
    for sign, side in zip(signs, sides):
        over_u, kern, sub = kernels.amplitude_columns(nodes, table.rank, sign)
        # the columns carry the side of the phase exp(side i u lamhat), so the
        # sin sum is its imaginary part term by term
        columns += [side * weights * over_u, side * weights * kern]
        subtractions.append(weights @ sub)
    c, s = kernels.fourier_cos_sin(nodes, np.column_stack(columns), lamhats, panels)
    out = {}
    for i, (sign, side, sub) in enumerate(zip(signs, sides, subtractions)):
        # side log T, set part by part so that no sign of a zero is lost
        total = np.empty(lamhats.shape, dtype=complex)
        total.real = side * c[:, 2 * i] - sub
        total.imag = s[:, 2 * i]
        dlog_t = -s[:, 2 * i + 1] + 1j * side * c[:, 2 * i + 1]
        # negate rather than multiply by side, which would turn a -0.0
        # component into 0.0
        out[sign] = (total if side > 0 else -total, dlog_t)
    return out


def quantization_phase_residual(
    table: KernelTable,
    sign: str,
    lamhat0: float,
    lamhat1: float,
) -> float:
    """Consistency of the impurity density term with the amplitude.

    2pi * integral of the impurity density over [lamhat0, lamhat1], by a
    32-panel order-16 Gauss-Legendre rule, must equal
    -i [log T(lamhat1) - log T(lamhat0)].  The anchor is a finite
    point: log |T| grows logarithmically toward -infinity, so only
    differences are well defined.
    """
    edges = np.linspace(float(lamhat0), float(lamhat1), 33)
    x_nodes, x_weights = kernels.gl_panels(edges, 16)
    rt_vals = density(table, 1, sign, x_nodes).defect
    lhs = 2.0 * math.pi * complex(x_weights @ rt_vals)
    log_t, _ = amplitude_quadrature(table, (sign,), [lamhat0, lamhat1])[sign]
    rhs = -1j * (log_t[1] - log_t[0])
    return abs(lhs - rhs)


# ---------------------------------------------------------------------------
# Gamma-ratio integral identity


def check_gamma_identity(mu, tol: float = 1e-8) -> CheckReport:
    """Certify the half-line integral representation of the Gamma ratio
    ln Gamma((mu+1)/4) - ln Gamma((mu+3)/4) in two forms: the mu-derivative
    (absolutely convergent, digamma target) and the subtracted identity
    itself (Gamma target)."""
    mu_c = complex(mu)
    if mu_c.real <= 0:
        raise ValueError(f"Re mu must be positive, got {mu_c}")
    cutoff = max(kernels.OMEGA_CUTOFF, 200.0 / (mu_c.real + 1.0))
    nodes, weights, _ = _half_line_grid(cutoff)
    deriv_vals = kernels.gamma_identity_derivative_integrand(nodes, mu)
    reg_vals = kernels.gamma_identity_integrand(nodes, mu)
    log_lo, psi_lo = log_gamma_psi((mu_c + 1.0) / 4.0, "digamma argument")
    log_hi, psi_hi = log_gamma_psi((mu_c + 3.0) / 4.0, "digamma argument")
    deriv_quad = complex(weights @ deriv_vals)
    deriv_target = psi_hi - psi_lo
    deriv_residual = abs(deriv_quad - deriv_target)
    reg_quad = 0.5 * complex(weights @ reg_vals)
    reg_target = log_lo - log_hi
    reg_residual = abs(reg_quad - reg_target)
    return CheckReport.from_residual(
        "gamma-identity",
        [
            ("mu", mu_c),
            ("derivative_residual", deriv_residual),
            ("regularized_residual", reg_residual),
            ("cutoff", cutoff),
        ],
        worst_of(deriv_residual, reg_residual),
        tol,
        "half-line quadrature vs digamma and log-Gamma closed forms",
    )
