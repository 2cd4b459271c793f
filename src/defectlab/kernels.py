"""Fourier-side kernels of the root densities and amplitude integrands.

Everything here is grid arithmetic on numpy arrays.  The hyperbolic ratios
are computed in the exponentially scaled form exp(..)*expm1(..)/expm1(..),
which is exact algebra (no large-argument approximation) and immune to sinh
overflow; omega = 0 takes the analytic limit through a mask, so no 0/0 is
ever evaluated.  The Fourier sums evaluate cos/sin(outer(lam, omega)) in
fixed row tiles, so their working memory does not grow with the lam grid.

The impurity sign is decided here and nowhere else.  defect_side maps
DEFECT_PLUS to side = +1 and DEFECT_MINUS to side = -1, and is the only
place a sign string is validated.  Every sign-taking function reads side:

- the one-sided factor exp(side omega/2) is supported on side omega <= 0,
  so '+' lives on omega <= 0 and '-' on omega >= 0;
- the amplitude level is 1 for '+' and rank-1 for '-': the amplitude
  integrands use sigma0 at that level with the phase exp(side i u lamhat),
  and the one-sided density kernel is R(k, level) times the one-sided
  factor;
- the Gamma arguments of the closed-form amplitudes (lax) have the slope
  -side i/n in lambda.
"""

from __future__ import annotations

import math

import numpy as np

_TILE = 16  # lam rows per Fourier tile

DEFECT_PLUS = "+"
DEFECT_MINUS = "-"


def defect_side(sign) -> int:
    """+1 for DEFECT_PLUS, -1 for DEFECT_MINUS; anything else is refused."""
    if sign == DEFECT_PLUS:
        return 1
    if sign == DEFECT_MINUS:
        return -1
    raise ValueError(f"sign must be '+' or '-', got {sign!r}")


def _level(rank: int, side: int) -> int:
    # amplitude level: 1 for '+', rank-1 for '-'
    return 1 if side > 0 else rank - 1


# ---------------------------------------------------------------------------
# grid evaluation


def _sinh_ratio(x, rate: int, num: tuple, den: tuple):
    """exp(rate x/2) prod_n expm1(-n x) / prod_d expm1(-d x) on x >= 0.

    With as many factors in num as in den this is prod sinh(n x/2) /
    prod sinh(d x/2) times exp((rate - sum(num) + sum(den)) x/2); x = 0
    takes the limit prod(num) / prod(den)."""
    out = np.full(x.shape, math.prod(num) / math.prod(den))
    nz = x != 0.0
    xs = x[nz]
    top = np.exp(0.5 * rate * xs)
    for n in num:
        top *= np.expm1(-n * xs)
    bottom = np.expm1(-den[0] * xs)
    for d in den[1:]:
        bottom *= np.expm1(-d * xs)
    out[nz] = top / bottom
    return out


def _sigma0(x, rank: int, k: int):
    # sinh((rank-k) x/2) / sinh(rank x/2)
    if k >= rank:
        return np.zeros(x.shape)
    return _sinh_ratio(x, -k, (rank - k,), (rank,))


def _big_r(x, rank: int, j: int, jp: int):
    # exp(x/2) sinh(jlo x/2) sinh((rank-jhi) x/2) / (sinh(x/2) sinh(rank x/2))
    jlo, jhi = min(j, jp), max(j, jp)
    if jhi >= rank:
        return np.zeros(x.shape)
    return _sinh_ratio(x, jlo - jhi, (jlo, rank - jhi), (1, rank))


def _one_sided(omega, side: int):
    # exp(side omega/2) where side omega <= 0, zero elsewhere
    out = np.zeros(omega.shape)
    keep = ~(side * omega > 0.0)
    out[keep] = np.exp(side * 0.5 * omega[keep])
    return out


# The public kernels below build on the private helpers above and on
# defect_side, never on each other, so that a call to one of them is one grid
# evaluation.


def sigma0_hat(omega, rank: int, k: int):
    return _sigma0(np.abs(omega), rank, k)


def r_hat(omega, rank: int, k: int):
    # impurity correction to the level-k density: R(k,1) a_2 - R(k,2) a_1
    x = np.abs(omega)
    return _big_r(x, rank, k, 1) * np.exp(-x) - _big_r(x, rank, k, 2) * np.exp(-0.5 * x)


def rt_hat(omega, rank: int, k: int, sign: str):
    side = defect_side(sign)
    return _big_r(np.abs(omega), rank, k, _level(rank, side)) * _one_sided(omega, side)


# ---------------------------------------------------------------------------
# regularized amplitude integrands (u >= 0 half line)


def _over_u(u, at_zero, numerator):
    """numerator(u_nz) / u_nz on the nonzero nodes, at_zero where u = 0."""
    out = np.full(u.shape, at_zero, dtype=np.result_type(at_zero, float))
    nz = u != 0.0
    us = u[nz]
    out[nz] = numerator(us) / us
    return out


def amplitude_integrand(u, lamhat: float, rank: int, sign: str):
    """Integrand of side * log of the amplitude; the subtraction removes the
    1/u singularity so the u = 0 value is the analytic limit."""
    side = defect_side(sign)
    level = _level(rank, side)
    c0 = (rank - level) / rank
    return _over_u(
        u,
        c0 * (rank + side * 1j * lamhat),
        lambda x: np.exp(side * 1j * x * lamhat) * _sigma0(x, rank, level)
        - c0 * np.exp(-rank * x),
    )


def amplitude_logderiv_integrand(u, lamhat: float, rank: int, sign: str):
    """i * exp(side i u lamhat) * kernel; integrates to d/dlamhat of log."""
    side = defect_side(sign)
    return 1j * np.exp(side * 1j * u * lamhat) * _sigma0(u, rank, _level(rank, side))


def gamma_identity_integrand(x, mu):
    """(exp(-mu x/2) sech(x/2) - exp(-2x)) / x with its x = 0 limit; mu real
    or complex."""
    return _over_u(
        x,
        2.0 - 0.5 * mu,
        lambda t: np.exp(-0.5 * mu * t) / np.cosh(0.5 * t) - np.exp(-2.0 * t),
    )


def gamma_identity_derivative_integrand(x, mu):
    """exp(-mu x/2) sech(x/2); mu real or complex."""
    return np.exp(-0.5 * mu * x) / np.cosh(0.5 * x)


# ---------------------------------------------------------------------------
# Fourier sums over row tiles of the lam grid


def _tiled(nodes, coef, lams, *trigs):
    """sum_i coef_i trig(nodes_i lam_j) for every lam_j and each trig, with
    the outer product formed _TILE rows at a time."""
    outs = [np.empty(lams.shape[0], dtype=np.result_type(coef, float)) for _ in trigs]
    for s in range(0, lams.shape[0], _TILE):
        arg = np.multiply.outer(lams[s : s + _TILE], nodes)
        for trig, out in zip(trigs, outs):
            out[s : s + _TILE] = trig(arg) @ coef
    return outs


def fourier_cos_sum(nodes, weights, values, lams):
    """(1/pi) sum_i w_i v_i cos(omega_i lam_j), one value per lam."""
    (cos_part,) = _tiled(nodes, weights * values, lams, np.cos)
    return cos_part / math.pi


def fourier_exp_sum(nodes, weights, values, lams):
    """(1/(2 pi)) sum_i w_i v_i exp(-i omega_i lam_j), complex output."""
    cos_part, sin_part = _tiled(nodes, weights * values, lams, np.cos, np.sin)
    return (cos_part - 1j * sin_part) / (2.0 * math.pi)


# ---------------------------------------------------------------------------
# quadrature grids


def gl_panels(edges, order: int = 32):
    """Composite Gauss-Legendre rule over consecutive panels."""
    edges = np.asarray(edges, dtype=float)
    if edges.ndim != 1 or edges.size < 2:
        raise ValueError("edges must be a 1d array with at least two entries")
    if np.any(np.diff(edges) <= 0):
        raise ValueError("edges must be strictly increasing")
    base_x, base_w = np.polynomial.legendre.leggauss(order)
    nodes, weights = [], []
    for a, b in zip(edges[:-1], edges[1:]):
        mid, half = 0.5 * (a + b), 0.5 * (b - a)
        nodes.append(mid + half * base_x)
        weights.append(half * base_w)
    return np.concatenate(nodes), np.concatenate(weights)


def half_line_grid(cutoff: float = 80.0, panel: float = 2.0, order: int = 32):
    """Uniform composite rule on [0, cutoff]; the integrands here decay at
    least like exp(-x/2), so the default cutoff leaves a tail below 1e-17."""
    count = max(1, int(math.ceil(cutoff / panel)))
    edges = np.linspace(0.0, cutoff, count + 1)
    return gl_panels(edges, order)
