"""Continuum-limit machinery: kernel tables, root densities, hole
dispersion, and the transmitting-impurity amplitudes as regularized
integrals checked against their Gamma-ratio closed forms.

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
from .checks import CheckReport
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
    """On-demand evaluation of the Fourier-space kernels at a fixed rank.

    Kernel ids: "sigma0:k", "a:n", "frak_a:s", "R:j,jp", "r:k", "rt:s:k",
    with s the impurity sign '+' or '-'.
    """

    rank: int

    def __post_init__(self):
        if self.rank < 2:
            raise ValueError(f"rank must be >= 2, got {self.rank}")

    def _check_level(self, k: int):
        if not 1 <= k <= self.rank - 1:
            raise ValueError(f"level must be in 1..{self.rank - 1}, got {k}")

    def evaluate(self, which: str, omega) -> np.ndarray:
        omega = np.ascontiguousarray(np.atleast_1d(omega), dtype=float)
        parts = which.split(":")
        name = parts[0]
        if name == "sigma0":
            k = int(parts[1])
            self._check_level(k)
            return kernels.sigma0_hat(omega, self.rank, k)
        if name == "a":
            n = int(parts[1])
            if n < 1:
                raise ValueError(f"a_n needs n >= 1, got {n}")
            return kernels.a_hat(omega, n)
        if name == "frak_a":
            return kernels.frak_a_hat(omega, parts[1])
        if name == "R":
            j, jp = (int(s) for s in parts[1].split(","))
            if not (1 <= j <= self.rank and 1 <= jp <= self.rank):
                raise ValueError(f"R indices must be in 1..{self.rank}")
            return kernels.big_r_hat(omega, self.rank, j, jp)
        if name == "r":
            k = int(parts[1])
            self._check_level(k)
            return kernels.r_hat(omega, self.rank, k)
        if name == "rt":
            k = int(parts[2])
            self._check_level(k)
            return kernels.rt_hat(omega, self.rank, k, parts[1])
        raise ValueError(f"unknown kernel id {which!r}")


def kernel(table: KernelTable, which: str, omega):
    """Scalar-friendly wrapper around KernelTable.evaluate."""
    out = table.evaluate(which, omega)
    if np.isscalar(omega) or np.ndim(omega) == 0:
        return float(out[0])
    return out


def a_n_realspace(n: int, lam):
    """(1/2pi) n / (lam^2 + n^2/4), the real-space mate of ahat_n."""
    lam = np.asarray(lam, dtype=float)
    return (1.0 / (2.0 * math.pi)) * n / (lam * lam + 0.25 * n * n)


# ---------------------------------------------------------------------------
# decay bookkeeping for truncated transforms


def _decay_rate(which: str, rank: int) -> float:
    parts = which.split(":")
    name = parts[0]
    if name == "sigma0":
        return int(parts[1]) / 2.0
    if name == "r":
        k = int(parts[1])
        term1 = 1.0 + (k - 1) / 2.0
        term2 = 0.5 + abs(k - 2) / 2.0
        if rank == 2:
            return term1  # the second term vanishes identically
        return min(term1, term2)
    if name == "rt":
        k = int(parts[2])
        return k / 2.0 if kernels.defect_side(parts[1]) > 0 else (rank - k) / 2.0
    raise ValueError(f"no decay rate for kernel {which!r}")


def _tail_bound(table: KernelTable, which: str, cutoff: float) -> float:
    alpha = _decay_rate(which, table.rank)
    edge = float(np.max(np.abs(table.evaluate(which, np.array([cutoff, -cutoff])))))
    return edge / alpha


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
    lams = np.ascontiguousarray(np.atleast_1d(lams), dtype=float)
    nodes, weights = _half_line_grid(cutoff, PANEL_WIDTH, PANEL_ORDER)
    values = table.evaluate(f"sigma0:{level}", nodes)
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
    tail_target: float = TAIL_TARGET,
) -> DensityProfile:
    """Single-hole density with the impurity correction.

    Each component is an inverse Fourier transform truncated at the cutoff;
    the a-priori tail estimate (edge value over decay rate) must stay below
    tail_target or TailBoundError is raised.
    """
    kernels.defect_side(sign)  # refuse a bad sign before it enters a kernel id
    if sites < 1:
        raise ValueError(f"sites must be >= 1, got {sites}")
    table._check_level(level)
    lams = np.ascontiguousarray(np.atleast_1d(lams), dtype=float)
    worst_tail = 0.0
    for which in (f"sigma0:{level}", f"r:{level}", f"rt:{sign}:{level}"):
        bound = _tail_bound(table, which, cutoff)
        worst_tail = max(worst_tail, bound)
        if bound > tail_target:
            raise TailBoundError(
                f"kernel {which} tail estimate {bound:.3e} exceeds {tail_target:g} "
                f"at cutoff {cutoff:g}",
                bound,
            )
    nodes, weights = _half_line_grid(cutoff, PANEL_WIDTH, PANEL_ORDER)
    bulk = bulk_density(table, level, lams, cutoff)
    backflow = kernels.fourier_cos_sum(
        nodes, weights, table.evaluate(f"r:{level}", nodes), lams - hole
    )
    defect = transmission_density(table, sign, lams - theta, level, cutoff)
    total = bulk + (backflow + defect) / sites
    return DensityProfile(
        rank=table.rank,
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


def hole_dispersion(table: KernelTable, level: int, lam, cutoff: float = OMEGA_CUTOFF):
    """Energy and momentum of a hole in the level sea.

    epsilon(lam) equals the bulk density; p(lam) = 2pi * integral of the
    bulk density from 0 to lam, odd by construction (p(0) = 0).
    """
    table._check_level(level)
    lams = np.ascontiguousarray(np.atleast_1d(lam), dtype=float)
    nodes, weights = _half_line_grid(cutoff, PANEL_WIDTH, PANEL_ORDER)
    values = table.evaluate(f"sigma0:{level}", nodes)
    eps = kernels.fourier_cos_sum(nodes, weights, values, lams)
    mom = kernels.fourier_sin_over_omega_sum(nodes, weights, values, lams)
    if np.isscalar(lam) or np.ndim(lam) == 0:
        return float(eps[0]), float(mom[0])
    return eps, mom


# ---------------------------------------------------------------------------
# transmission amplitudes


def amplitude_regularized(
    table: KernelTable, sign: str, lamhat: float, cutoff: float = OMEGA_CUTOFF
) -> complex:
    """log of the transmission amplitude as a regularized integral.

    The 1/omega singularity of the bare exponent is removed by subtracting
    c0 * e^{-rank |omega|} with c0 the kernel's omega -> 0 limit; with this
    specific damping the result matches the Gamma-ratio closed form exactly,
    constant included.
    """
    nodes, weights = _half_line_grid(cutoff, PANEL_WIDTH, PANEL_ORDER)
    total = weights @ kernels.amplitude_integrand(nodes, float(lamhat), table.rank, sign)
    # the integrand is side * log T; negate rather than multiply by side, which
    # would turn a -0.0 component into 0.0
    return complex(total if kernels.defect_side(sign) > 0 else -total)


def amplitude_log_derivative(
    table: KernelTable, sign: str, lamhat: float, cutoff: float = OMEGA_CUTOFF
) -> complex:
    """d/dlamhat log T, an absolutely convergent integral (no subtraction)."""
    nodes, weights = _half_line_grid(cutoff, PANEL_WIDTH, PANEL_ORDER)
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
        omega, weights, table.evaluate(f"rt:{sign}:{level}", omega), lams
    )


def quantization_phase_residual(
    table: KernelTable,
    sign: str,
    lamhat0: float,
    lamhat1: float,
    panels: int = 32,
    order: int = 16,
) -> float:
    """Consistency of the impurity density term with the amplitude.

    2pi * integral of the impurity density over [lamhat0, lamhat1] must
    equal -i [log T(lamhat1) - log T(lamhat0)].  The anchor is a finite
    point: log |T| grows logarithmically toward -infinity, so only
    differences are well defined.
    """
    edges = np.linspace(float(lamhat0), float(lamhat1), panels + 1)
    x_nodes, x_weights = kernels.gl_panels(edges, order)
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
    if mu_c.imag == 0.0:
        deriv_vals = kernels.gamma_identity_derivative_integrand(nodes, mu_c.real)
        reg_vals = kernels.gamma_identity_integrand(nodes, mu_c.real)
    else:
        deriv_vals = np.exp(-0.5 * mu_c * nodes) / np.cosh(0.5 * nodes)
        reg_vals = (
            np.exp(-0.5 * mu_c * nodes) / np.cosh(0.5 * nodes) - np.exp(-2.0 * nodes)
        ) / nodes
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
        max(deriv_residual, reg_residual),
        tol,
        "half-line quadrature vs digamma and log-Gamma closed forms",
    )
