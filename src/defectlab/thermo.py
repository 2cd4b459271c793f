"""Continuum-limit machinery: root densities, hole dispersion, and the
transmitting-impurity amplitudes as regularized integrals checked against
their Gamma-ratio closed forms.

Every quantity here is a half-line quadrature of one of the Fourier kernels
in :mod:`defectlab.kernels` (sigma0_hat, r_hat, rt_hat or an amplitude
integrand), called directly at the rank a :class:`KernelTable` holds.

Fourier convention, fixed globally: fhat(omega) = integral dlam
e^{i omega lam} f(lam), inverted by (1/2pi) integral domega
e^{-i omega lam} fhat(omega).  The elementary pair is
a_n(lam) = (1/2pi) n/(lam^2 + n^2/4) <-> ahat_n = e^{-n|omega|/2}.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from . import kernels, lax
from .checks import CheckReport, worst_of
from .special import log_gamma, psi

OMEGA_CUTOFF = 80.0
PANEL_WIDTH = 2.0
PANEL_ORDER = 32
TAIL_TARGET = 1e-10


class TailBoundError(RuntimeError):
    """Truncated Fourier integral with a tail estimate above target."""

    def __init__(self, message: str, achieved: float):
        super().__init__(message)
        self.achieved = achieved


@lru_cache(maxsize=8)
def _half_line_grid(cutoff: float, panel: float, order: int):
    return kernels.half_line_grid(cutoff, panel, order)


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

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), sort_keys=True, indent=2) + "\n"

    def to_csv(self) -> str:
        lines = ["lambda,sigma_re,sigma_im,bulk,hole_backflow,defect_re,defect_im"]
        for i in range(len(self.lams)):
            lines.append(
                ",".join(
                    repr(float(v))
                    for v in (
                        self.lams[i],
                        self.total[i].real,
                        self.total[i].imag,
                        self.bulk[i],
                        self.hole_backflow[i],
                        self.defect[i].real,
                        self.defect[i].imag,
                    )
                )
            )
        return "\n".join(lines) + "\n"


def bulk_density(table: KernelTable, level: int, lams, cutoff: float = OMEGA_CUTOFF):
    """Inverse transform of sigma0hat; even kernel, cosine form."""
    table._check_level(level)
    lams = np.ascontiguousarray(np.atleast_1d(lams), dtype=float)
    nodes, weights = _half_line_grid(cutoff, PANEL_WIDTH, PANEL_ORDER)
    values = kernels.sigma0_hat(nodes, table.rank, level)
    return kernels.fourier_cos_sum(nodes, weights, values, lams)


def density(
    table: KernelTable,
    level: int,
    sign: str,
    lams,
    hole: float = 0.0,
    theta: float = 0.0,
    sites: int = 100,
    cutoff: float = OMEGA_CUTOFF,
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
            (level if side > 0 else n - level) / 2.0,
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
    nodes, weights = _half_line_grid(cutoff, PANEL_WIDTH, PANEL_ORDER)
    bulk = bulk_density(table, level, lams, cutoff)
    backflow = kernels.fourier_cos_sum(
        nodes, weights, kernels.r_hat(nodes, n, level), lams - hole
    )
    defect = transmission_density(table, sign, lams - theta, level, cutoff)
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


def hole_dispersion(table: KernelTable, level: int, lam):
    """Energy and momentum of a hole in the level sea.

    epsilon(lam) equals the bulk density; p(lam) = 2pi * integral of the
    bulk density from 0 to lam, odd by construction (p(0) = 0).
    """
    table._check_level(level)
    lams = np.ascontiguousarray(np.atleast_1d(lam), dtype=float)
    nodes, weights = _half_line_grid(OMEGA_CUTOFF, PANEL_WIDTH, PANEL_ORDER)
    values = kernels.sigma0_hat(nodes, table.rank, level)
    eps = kernels.fourier_cos_sum(nodes, weights, values, lams)
    mom = kernels.fourier_sin_over_omega_sum(nodes, weights, values, lams)
    if np.isscalar(lam) or np.ndim(lam) == 0:
        return float(eps[0]), float(mom[0])
    return eps, mom


# ---------------------------------------------------------------------------
# transmission amplitudes


def amplitude_regularized(table: KernelTable, sign: str, lamhat: float) -> complex:
    """log of the transmission amplitude as a regularized integral.

    The 1/omega singularity of the bare exponent is removed by subtracting
    c0 * e^{-rank |omega|} with c0 the kernel's omega -> 0 limit; with this
    specific damping the result matches the Gamma-ratio closed form exactly,
    constant included.
    """
    nodes, weights = _half_line_grid(OMEGA_CUTOFF, PANEL_WIDTH, PANEL_ORDER)
    total = weights @ kernels.amplitude_integrand(nodes, float(lamhat), table.rank, sign)
    # the integrand is side * log T; negate rather than multiply by side, which
    # would turn a -0.0 component into 0.0
    return complex(total if kernels.defect_side(sign) > 0 else -total)


def amplitude_log_derivative(table: KernelTable, sign: str, lamhat: float) -> complex:
    """d/dlamhat log T, an absolutely convergent integral (no subtraction)."""
    nodes, weights = _half_line_grid(OMEGA_CUTOFF, PANEL_WIDTH, PANEL_ORDER)
    vals = kernels.amplitude_logderiv_integrand(nodes, float(lamhat), table.rank, sign)
    return complex(weights @ vals)


def amplitude_closed_form(table: KernelTable, sign: str, lamhat) -> complex:
    """Gamma-ratio closed form of the transmission amplitude."""
    return lax.transmission_amplitude(table.rank, sign, lamhat)


def amplitude_log_derivative_closed(table: KernelTable, sign: str, lamhat) -> complex:
    """Digamma form of d/dlamhat log T: the Gamma arguments of T move with
    slope -side i/rank in lamhat."""
    num, den = lax.amplitude_gamma_args(table.rank, sign, lamhat)
    return (-kernels.defect_side(sign) * 1j / table.rank) * (psi(num) - psi(den))


def transmission_density(
    table: KernelTable, sign: str, lams, level: int = 1, cutoff: float = OMEGA_CUTOFF
):
    """Real-space impurity term of the density (complex; the kernel is
    one-sided in omega, so the half-line nodes map to omega = -side u)."""
    table._check_level(level)
    lams = np.ascontiguousarray(np.atleast_1d(lams), dtype=float)
    nodes, weights = _half_line_grid(cutoff, PANEL_WIDTH, PANEL_ORDER)
    omega = -kernels.defect_side(sign) * nodes
    return kernels.fourier_exp_sum(
        omega, weights, kernels.rt_hat(omega, table.rank, level, sign), lams
    )


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
    rt_vals = transmission_density(table, sign, x_nodes)
    lhs = 2.0 * math.pi * complex(x_weights @ rt_vals)
    rhs = -1j * (
        amplitude_regularized(table, sign, lamhat1)
        - amplitude_regularized(table, sign, lamhat0)
    )
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
    cutoff = max(OMEGA_CUTOFF, 200.0 / (mu_c.real + 1.0))
    nodes, weights = _half_line_grid(cutoff, PANEL_WIDTH, PANEL_ORDER)
    deriv_vals = kernels.gamma_identity_derivative_integrand(nodes, mu)
    reg_vals = kernels.gamma_identity_integrand(nodes, mu)
    deriv_quad = complex(weights @ deriv_vals)
    deriv_target = psi((mu_c + 3.0) / 4.0) - psi((mu_c + 1.0) / 4.0)
    deriv_residual = abs(deriv_quad - deriv_target)
    reg_quad = 0.5 * complex(weights @ reg_vals)
    reg_target = log_gamma((mu_c + 1.0) / 4.0) - log_gamma((mu_c + 3.0) / 4.0)
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
