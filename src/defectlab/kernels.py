"""Fourier-side kernels of the root densities and amplitude integrands.

Everything here is grid arithmetic on numpy arrays.  The hyperbolic ratios
are computed in the exponentially scaled form exp(..)*expm1(..)/expm1(..),
which is exact algebra (no large-argument approximation) and immune to sinh
overflow; omega = 0 takes the analytic limit through a mask, so no 0/0 is
ever evaluated.

A Fourier sum over a lam grid is one pass over a panel grid: the caller
folds every sum it needs into one column of a (nodes x k) coefficient matrix,
and every node is omega = m_p + x_q, a panel mid plus one of the Gauss-
Legendre offsets all panels share.  fourier_cos_sin factors
exp(i lam omega) = exp(i lam m_p) exp(i lam x_q): per tile of _TILE lam rows
it takes cos and sin of lam x_q and lam m_p only, contracts the offsets with
every panel's coefficients in one matrix product of fixed shape, and sums the
panels by angle addition.  Its working memory does not grow with the lam
grid, and every product has _TILE rows (the last tile is padded with zero
rows), so a lam row's value does not depend on the other lams of the grid,
finite or not.  A shift such as lam - h is folded in the same way,
cos omega(lam - h) = cos omega lam cos omega h + sin omega lam sin omega h,
with the omega h factors in the coefficients.

The quadrature nodes are Gauss-Legendre nodes, strictly inside their
panels, so a half-line node is never 0; amplitude_columns refuses one, since
its split terms have no limit there.  half_line_grid returns the panel form
(mids, offsets) with its nodes, which are built from it, so the two agree
bitwise for every cutoff.

The impurity sign is decided here and nowhere else.  defect_side maps
DEFECT_PLUS to side = +1 and DEFECT_MINUS to side = -1, and is the only
place a sign string is validated.  Every sign-taking function reads side:

- the one-sided factor exp(side omega/2) is supported on side omega <= 0,
  so '+' lives on omega <= 0 and '-' on omega >= 0;
- impurity_level states the nesting level the impurity enters at, 1 for '+'
  and rank-1 for '-': the amplitude integrands use sigma0 there with the
  phase exp(side i u lamhat), the one-sided density kernel is R(k, level)
  times the one-sided factor, and thermo.density and bethe read it too;
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


def impurity_level(rank: int, sign) -> int:
    """The nesting level the impurity enters at: 1 for '+', rank-1 for '-'."""
    return 1 if defect_side(sign) > 0 else rank - 1


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


# The public kernels below build on the private helpers above, defect_side
# and impurity_level, never on each other, so that a call to one of them is
# one grid evaluation.


def sigma0_hat(omega, rank: int, k: int):
    return _sigma0(np.abs(omega), rank, k)


def r_hat(omega, rank: int, k: int):
    # impurity correction to the level-k density: R(k,1) a_2 - R(k,2) a_1
    x = np.abs(omega)
    return _big_r(x, rank, k, 1) * np.exp(-x) - _big_r(x, rank, k, 2) * np.exp(-0.5 * x)


def rt_hat(omega, rank: int, k: int, sign: str):
    side = defect_side(sign)
    return _big_r(np.abs(omega), rank, k, impurity_level(rank, sign)) * _one_sided(omega, side)


# ---------------------------------------------------------------------------
# regularized amplitude integrands (u >= 0 half line)


def _over_u(u, at_zero, numerator):
    """numerator(u_nz) / u_nz on the nonzero nodes, at_zero where u = 0."""
    out = np.full(u.shape, at_zero, dtype=np.result_type(at_zero, float))
    nz = u != 0.0
    us = u[nz]
    out[nz] = numerator(us) / us
    return out


def amplitude_columns(u, rank: int, sign: str):
    """The lamhat-independent factors of the amplitude integrands on nodes
    u > 0: (sigma0(u)/u, sigma0(u), c0 exp(-rank u)/u), sigma0 at the
    sign's level and c0 = sigma0(0).

    side log T integrates exp(side i u lamhat) sigma0(u)/u - c0 exp(-rank u)/u
    and d/dlamhat log T integrates i exp(side i u lamhat) sigma0(u).  Only the
    difference in the first has a limit at u = 0, so a node u <= 0 is refused.
    """
    level = impurity_level(rank, sign)
    if not np.all(u > 0.0):
        raise ValueError("amplitude nodes must be strictly positive")
    kern = _sigma0(u, rank, level)
    return kern / u, kern, ((rank - level) / rank) * np.exp(-rank * u) / u


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


def fourier_cos_sin(nodes, coef, lams, panels):
    """(cos(outer(lams, nodes)) @ coef, sin(outer(lams, nodes)) @ coef) for
    a (nodes x k) coefficient matrix, summed by angle addition over the
    panels: panels = (mids, offsets), and nodes must equal
    (mids[:, None] + offsets).ravel() exactly, or no sum would be taken with
    the right phases."""
    mids, offsets = panels
    if not np.array_equal(nodes, np.add.outer(mids, offsets).ravel()):
        raise ValueError("nodes must be (mids[:, None] + offsets).ravel() of their panels")
    n_mid, n_off, k = len(mids), len(offsets), coef.shape[1]
    # by_offset[q, j n_mid + p] = coef[p n_off + q, j]
    by_offset = coef.reshape(n_mid, n_off, k).transpose(1, 2, 0).reshape(n_off, k * n_mid)
    count = lams.shape[0]
    out = np.empty((count, k), dtype=complex)
    trig = np.empty((2, _TILE, n_off))  # cos and sin of lam x_q
    for s in range(0, count, _TILE):
        lam = lams[s : s + _TILE]
        rows = len(lam)
        trig[:, rows:] = 0.0  # only the last tile is short
        arg = np.multiply.outer(lam, offsets)
        np.cos(arg, out=trig[0, :rows])
        np.sin(arg, out=trig[1, :rows])
        # sum_q exp(i lam x_q) coef[p, q, j] for every panel p and column j
        cos_sin = (trig.reshape(2 * _TILE, n_off) @ by_offset).reshape(2, _TILE, k, n_mid)
        per_panel = np.empty((rows, k, n_mid), dtype=complex)
        per_panel.real, per_panel.imag = cos_sin[:, :rows]
        # times exp(i lam m_p), summed over the panels
        arg = np.multiply.outer(lam, mids)
        panel_phase = np.empty((rows, n_mid, 1), dtype=complex)
        np.cos(arg, out=panel_phase.real[:, :, 0])
        np.sin(arg, out=panel_phase.imag[:, :, 0])
        out[s : s + rows] = (per_panel @ panel_phase)[:, :, 0]
    return out.real, out.imag


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


OMEGA_CUTOFF = 80.0
PANEL_WIDTH = 2.0  # the widest half-line panel
PANEL_ORDER = 32  # Gauss-Legendre nodes per panel


def half_line_grid(cutoff: float = OMEGA_CUTOFF):
    """Uniform composite rule on [0, cutoff], as (nodes, weights, panels):
    count = ceil(cutoff / PANEL_WIDTH) panels of PANEL_ORDER nodes, each of
    half-width cutoff / (2 count), panels = (mids, offsets) and nodes =
    (mids[:, None] + offsets).ravel() exactly, the form fourier_cos_sin sums
    by.  The integrands here decay at least like exp(-x/2), so the default
    cutoff leaves a tail below 1e-17."""
    count = max(1, int(math.ceil(cutoff / PANEL_WIDTH)))
    half = cutoff / (2 * count)
    base_x, base_w = np.polynomial.legendre.leggauss(PANEL_ORDER)
    mids = half * np.arange(1.0, 2 * count, 2.0)
    offsets = half * base_x
    nodes = np.add.outer(mids, offsets).ravel()
    return nodes, np.tile(half * base_w, count), (mids, offsets)
