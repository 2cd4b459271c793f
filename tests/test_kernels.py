import cmath
import math
import warnings

import numpy as np
import pytest

from defectlab import bethe, lax, thermo
from defectlab.kernels import (
    DEFECT_MINUS,
    DEFECT_PLUS,
    amplitude_columns,
    defect_side,
    fourier_cos_sin,
    gamma_identity_integrand,
    gamma_identity_derivative_integrand,
    gl_panels,
    half_line_grid,
    impurity_level,
    r_hat,
    rt_hat,
    sigma0_hat,
)


def test_sigma0_rank2_closed_form():
    w = np.linspace(-30.0, 30.0, 301)
    got = sigma0_hat(w, 2, 1)
    expected = 1.0 / (2.0 * np.cosh(0.5 * w))
    assert np.max(np.abs(got - expected)) < 1e-15


def test_sigma0_matches_hyperbolic_ratio():
    # the rescaled exp/expm1 form is algebraically identical to the sinh ratio
    w = np.linspace(0.05, 20.0, 100)
    for rank in (2, 3, 4):
        for k in range(1, rank):
            direct = np.sinh(0.5 * (rank - k) * w) / np.sinh(0.5 * rank * w)
            assert np.max(np.abs(sigma0_hat(w, rank, k) - direct)) < 1e-14


def test_sigma0_zero_limit_and_continuity():
    for rank in (2, 3, 5):
        for k in range(1, rank):
            at0 = sigma0_hat(np.array([0.0]), rank, k)[0]
            assert abs(at0 - (rank - k) / rank) < 1e-15
            near0 = sigma0_hat(np.array([1e-9]), rank, k)[0]
            assert abs(near0 - at0) < 1e-8


def test_sigma0_no_overflow_at_large_argument():
    big = sigma0_hat(np.array([800.0, 5000.0]), 3, 1)
    assert np.all(np.isfinite(big))
    # asymptotically exp(-k x / 2)
    assert abs(big[0] - math.exp(-400.0)) < 1e-180


def test_r_hat_is_the_advertised_combination():
    # R(k,1) a_2 - R(k,2) a_1, with R and a_n = exp(-n|w|/2) written out
    w = np.linspace(-6, 6, 61)
    for rank in (3, 4):
        for k in range(1, rank):
            combo = [
                _ref_big_r(abs(x), rank, k, 1) * math.exp(-abs(x))
                - _ref_big_r(abs(x), rank, k, 2) * math.exp(-0.5 * abs(x))
                for x in w
            ]
            assert np.allclose(r_hat(w, rank, k), combo)


def test_rt_hat_support():
    w = np.linspace(-5, 5, 51)
    plus = rt_hat(w, 3, 1, "+")
    minus = rt_hat(w, 3, 1, "-")
    assert np.all(plus[w > 0] == 0.0)
    assert np.all(minus[w < 0] == 0.0)
    assert np.max(np.abs(plus)) > 0 and np.max(np.abs(minus)) > 0


# ---------------------------------------------------------------------------
# impurity sign


def test_defect_side():
    assert (DEFECT_PLUS, DEFECT_MINUS) == ("+", "-")
    assert defect_side(DEFECT_PLUS) == 1 and defect_side(DEFECT_MINUS) == -1


def test_impurity_level():
    # '+' enters the nested equations at level 1, '-' at level rank-1
    for rank, plus, minus in ((2, 1, 1), (3, 1, 2), (4, 1, 3), (5, 1, 4)):
        assert (impurity_level(rank, DEFECT_PLUS), impurity_level(rank, DEFECT_MINUS)) == (plus, minus)


def _sign_calls(sign):
    """(name, call, the sign as the refusal shows it) for every public entry
    point that takes an impurity sign."""
    w = np.array([-1.0, 0.0, 1.0])
    table = thermo.KernelTable(3)
    yield "defect_side", lambda: defect_side(sign), sign
    yield "impurity_level", lambda: impurity_level(3, sign), sign
    yield "rt_hat", lambda: rt_hat(w, 3, 1, sign), sign
    yield "amplitude_columns", lambda: amplitude_columns(w[2:], 3, sign), sign
    yield "density", lambda: thermo.density(table, 1, sign, w), sign
    yield "amplitude_quadrature", lambda: thermo.amplitude_quadrature(table, (sign,), w), sign
    yield "transmission_amplitude", lambda: lax.transmission_amplitude(3, sign, 0.3), sign
    yield "amplitude_gamma_args", lambda: lax.amplitude_gamma_args(3, sign, 0.3), sign
    yield "defect_factor", lambda: bethe.defect_factor(0.3, sign), sign
    yield "defect_log_derivative", lambda: bethe.defect_log_derivative(0.3, sign), sign
    yield "defect_phase", lambda: bethe.defect_phase(0.3, sign), sign
    if sign is not None:  # a state without the impurity has defect_sign None
        yield "BetheState", (
            lambda: bethe.BetheState(rank=2, sites=2, roots=([0.1],), defect_sign=sign)
        ), sign


@pytest.mark.parametrize("sign", ["plus", "", None])
def test_sign_entry_points_refuse_anything_but_plus_or_minus(sign):
    calls = list(_sign_calls(sign))
    assert len(calls) == 11 + (sign is not None)
    for name, call, shown in calls:
        with pytest.raises(ValueError) as info:
            call()
        assert str(info.value) == f"sign must be '+' or '-', got {shown!r}", name


# ---------------------------------------------------------------------------
# quadrature


def test_gl_panels_polynomial_exactness():
    nodes, weights = gl_panels([0.0, 0.5, 1.0], order=3)
    # order-3 Gauss is exact through degree 5
    assert abs(weights @ nodes**5 - 1.0 / 6.0) < 1e-15
    with pytest.raises(ValueError):
        gl_panels([1.0, 0.5])
    with pytest.raises(ValueError):
        gl_panels([1.0])


def test_half_line_grid_integrates_exponential():
    nodes, weights, _ = half_line_grid()
    assert abs(weights @ np.exp(-nodes) - 1.0) < 1e-14
    assert np.all(weights > 0)
    assert nodes.min() > 0.0 and nodes.max() < 80.0


def test_default_half_line_grid_is_the_composite_rule_on_even_edges():
    # bitwise the composite Gauss-Legendre rule on the panels [2p, 2p + 2]
    nodes, weights, (mids, offsets) = half_line_grid()
    want_nodes, want_weights = gl_panels(np.linspace(0.0, 80.0, 41), order=32)
    assert nodes.tobytes() == want_nodes.tobytes()
    assert weights.tobytes() == want_weights.tobytes()
    assert mids.tobytes() == np.arange(1.0, 80.0, 2.0).tobytes()
    assert offsets.tobytes() == np.polynomial.legendre.leggauss(32)[0].tobytes()


@pytest.mark.parametrize("cutoff", [80.0, 81.0, 200.0 / 1.3, 200.0 / 1.01, 2.0 / 3.0])
def test_half_line_grid_is_its_panel_form_for_every_cutoff(cutoff):
    nodes, weights, (mids, offsets) = half_line_grid(cutoff)
    assert nodes.tobytes() == np.add.outer(mids, offsets).ravel().tobytes()
    assert len(nodes) == len(weights) == 32 * math.ceil(cutoff / 2.0)
    # one half-width: the panels tile [0, cutoff] and the rule is exact on 1
    half = cutoff / (2 * len(mids))
    assert np.allclose(np.diff(mids), 2 * half, rtol=0, atol=1e-12 * cutoff)
    assert abs(mids[0] - half) <= 1e-15 * cutoff and abs(mids[-1] + half - cutoff) <= 1e-14 * cutoff
    assert abs(weights.sum() - cutoff) <= 1e-14 * cutoff


def test_fourier_cos_sin_refuses_nodes_that_are_not_their_panels():
    nodes, weights, panels = half_line_grid()
    lams, coef = np.linspace(-1.0, 1.0, 3), weights[:, None]
    nudged = nodes.copy()
    nudged[100] = np.nextafter(nudged[100], np.inf)
    mids, offsets = panels
    for bad in (nodes[::-1], nudged, nodes[:-1], gl_panels(np.linspace(0.0, 80.0, 81))[0][:1280],
                np.add.outer(offsets, mids).ravel()):
        with pytest.raises(ValueError, match="of their panels"):
            fourier_cos_sin(bad, coef[: len(bad)], lams, panels)


def test_fourier_cos_sum_lorentzian():
    # (1/pi) int_0^inf exp(-n w/2) cos(w lam) dw = (1/(2 pi)) n/(lam^2+n^2/4),
    # both n in one pass, one column each
    nodes, weights, panels = half_line_grid()
    lams = np.linspace(-3, 3, 25)
    coef = np.column_stack([weights * np.exp(-0.5 * n * nodes) for n in (1, 2)])
    cos_part, _ = fourier_cos_sin(nodes, coef, lams, panels)
    for col, n in enumerate((1, 2)):
        expected = (1.0 / (2 * np.pi)) * n / (lams**2 + 0.25 * n * n)
        assert np.max(np.abs(cos_part[:, col] / np.pi - expected)) < 1e-13


def test_fourier_exp_sum_full_line():
    # (1/(2 pi)) sum w exp(-|omega|) exp(-i omega lam) over the full line
    # the 80 panels of [-80, 80], mids -79, ..., 79, in their panel form
    edges = np.linspace(-80.0, 80.0, 81)
    nodes, weights = gl_panels(edges, order=32)
    panels = (0.5 * (edges[:-1] + edges[1:]), np.polynomial.legendre.leggauss(32)[0])
    lams = np.linspace(-2, 2, 9)
    coef = (weights * np.exp(-np.abs(nodes)))[:, None]
    cos_part, sin_part = fourier_cos_sin(nodes, coef, lams, panels)
    got = (cos_part[:, 0] - 1j * sin_part[:, 0]) / (2 * np.pi)
    expected = (1.0 / (2 * np.pi)) * 2.0 / (lams**2 + 1.0)
    assert np.max(np.abs(got - expected)) < 1e-13
    assert np.max(np.abs(got.imag)) < 1e-14


# ---------------------------------------------------------------------------
# amplitude and identity integrands


def test_amplitude_columns_refuse_a_node_without_positive_u():
    # sigma0/u and c0 exp(-rank u)/u have no limit at u = 0, only their
    # difference has; the Gauss-Legendre nodes never reach it
    for sign in ("-", "+"):
        for u in ([0.0], [0.5, 0.0], [-1e-3]):
            with pytest.raises(ValueError, match="amplitude nodes must be strictly positive"):
                amplitude_columns(np.array(u), 3, sign)
    assert half_line_grid()[0].min() > 0.0


def _integrand_from_columns(u, lamhat, rank, sign, side):
    # the integrand of side log T, exp(side i u lamhat) sigma0/u - c0 exp(-rank u)/u
    over_u, _, sub = amplitude_columns(np.array([u]), rank, sign)
    return cmath.exp(side * 1j * u * lamhat) * over_u[0] - sub[0]


def test_amplitude_integrand_zero_limits():
    # the split columns still combine to the analytic u = 0 limit
    lamhat, rank = 1.7, 3
    m = _integrand_from_columns(1e-8, lamhat, rank, "-", -1)
    assert abs(m - (1.0 - 1j * lamhat / rank)) < 1e-6
    p = _integrand_from_columns(1e-8, lamhat, rank, "+", 1)
    assert abs(p - (rank - 1.0) * (1j * lamhat / rank + 1.0)) < 1e-6


def test_amplitude_integrand_continuity_at_zero():
    lamhat, rank = -0.9, 2
    for sign, side in (("-", -1), ("+", 1)):
        limit = _ref_amp(0.0, lamhat, rank, side)
        for u in (1e-4, 1e-6, 1e-8):
            # O(u) from the slope, plus the cancellation of two O(1/u) terms
            got = _integrand_from_columns(u, lamhat, rank, sign, side)
            assert abs(got - limit) < 10 * u + 1e-7
            assert abs(got - _ref_amp(u, lamhat, rank, side)) < 1e-7


def test_gamma_identity_integrand_limit():
    assert abs(gamma_identity_integrand(np.array([0.0]), 3.0)[0] - 0.5) < 1e-15


def test_gamma_identity_derivative_known_value():
    # int_0^inf exp(-x/2) sech(x/2) dx = 2 log 2
    nodes, weights, _ = half_line_grid()
    got = weights @ gamma_identity_derivative_integrand(nodes, 1.0)
    assert abs(got - 2 * math.log(2)) < 1e-12


# ---------------------------------------------------------------------------
# scalar reference: the kernels written out one point at a time with math

OMEGAS = (0.0, 1e-12, -1e-12, 1e-3, -1e-3, 1.0, -1.0, 80.0, -80.0, 700.0, -700.0)
HALF_LINE = tuple(w for w in OMEGAS if w >= 0.0)
RANKS = (2, 3, 4, 5)


def _ref_sigma0(x, rank, k):
    if k >= rank:
        return 0.0
    if x == 0.0:
        return (rank - k) / rank
    return math.exp(-0.5 * k * x) * math.expm1(-(rank - k) * x) / math.expm1(-rank * x)


def _ref_big_r(x, rank, j, jp):
    jlo, jhi = min(j, jp), max(j, jp)
    if jhi >= rank:
        return 0.0
    if x == 0.0:
        return jlo * (rank - jhi) / rank
    return (
        math.exp(0.5 * (jlo - jhi) * x)
        * math.expm1(-jlo * x)
        * math.expm1(-(rank - jhi) * x)
        / (math.expm1(-x) * math.expm1(-rank * x))
    )


def _ref_frak_plus(w):
    return 0.0 if w > 0.0 else math.exp(0.5 * w)


def _ref_frak_minus(w):
    return 0.0 if w < 0.0 else math.exp(-0.5 * w)


def _ref_r_terms(w, rank, k):
    x = abs(w)
    return (
        _ref_big_r(x, rank, k, 1) * math.exp(-x),
        _ref_big_r(x, rank, k, 2) * math.exp(-0.5 * x),
    )


def _ref_r(w, rank, k):
    first, second = _ref_r_terms(w, rank, k)
    return first - second


def _ref_amp(x, lamhat, rank, sign):
    # sign -1: minus integrand, kernel level rank-1; sign +1: plus, level 1
    if x == 0.0:
        if sign < 0:
            return 1.0 - 1j * lamhat / rank
        return (rank - 1.0) * (1j * lamhat / rank + 1.0)
    level = rank - 1 if sign < 0 else 1
    c0 = (rank - level) / rank
    kern = _ref_sigma0(x, rank, level)
    return (cmath.exp(sign * 1j * x * lamhat) * kern - c0 * math.exp(-rank * x)) / x


def _ref_gamma(t, mu):
    if t == 0.0:
        return 2.0 - 0.5 * mu
    return (math.exp(-0.5 * mu * t) / math.cosh(0.5 * t) - math.exp(-2.0 * t)) / t


def _grid_cases():
    """(kernel, args, reference, scale): the error bound is 1e-15 times
    |reference|, or times scale where the kernel is a cancelling difference."""
    for rank in RANKS:
        for k in range(1, rank + 1):
            yield sigma0_hat, (rank, k), lambda w, r=rank, k=k: _ref_sigma0(abs(w), r, k), None
            yield (
                r_hat,
                (rank, k),
                lambda w, r=rank, k=k: _ref_r(w, r, k),
                lambda w, r=rank, k=k: sum(map(abs, _ref_r_terms(w, r, k))),
            )
            yield rt_hat, (rank, k, "+"), (
                lambda w, r=rank, k=k: _ref_big_r(abs(w), r, k, 1) * _ref_frak_plus(w)
            ), None
            yield rt_hat, (rank, k, "-"), (
                lambda w, r=rank, k=k: _ref_big_r(abs(w), r, k, r - 1) * _ref_frak_minus(w)
            ), None


def _ref_amp_columns(x, rank, sign):
    # the lamhat-independent factors: sigma0/x, sigma0, c0 exp(-rank x)/x
    level = rank - 1 if sign < 0 else 1
    kern = _ref_sigma0(x, rank, level)
    return kern / x, kern, (rank - level) / rank * math.exp(-rank * x) / x


def _integrand_cases():
    for mu in (0.5, 1.0, 3.0):
        yield gamma_identity_integrand, (mu,), lambda t, mu=mu: _ref_gamma(t, mu)
        yield gamma_identity_derivative_integrand, (mu,), (
            lambda t, mu=mu: math.exp(-0.5 * mu * t) / math.cosh(0.5 * t)
        )


def _assert_matches(got, points, ref, scale=None):
    assert len(got) == len(points)
    for p, g in zip(points, got):
        want = ref(p)
        bound = 1e-15 * (abs(want) if scale is None else scale(p))
        assert abs(g - want) <= bound, (p, g, want)


def test_grid_kernels_match_scalar_reference():
    omega = np.array(OMEGAS)
    for fn, args, ref, scale in _grid_cases():
        _assert_matches(fn(omega, *args), OMEGAS, ref, scale)


def test_integrands_match_scalar_reference():
    # half-line integrands: evaluated on u >= 0 only
    u = np.array(HALF_LINE)
    for fn, args, ref in _integrand_cases():
        _assert_matches(fn(u, *args), HALF_LINE, ref)


def test_amplitude_columns_match_scalar_reference():
    positive = tuple(x for x in HALF_LINE if x > 0.0)
    for rank in RANKS:
        for sign, side in (("-", -1), ("+", 1)):
            got = amplitude_columns(np.array(positive), rank, sign)
            for col in range(3):
                _assert_matches(
                    got[col], positive, lambda x, c=col: _ref_amp_columns(x, rank, side)[c]
                )


def _grid_through_zero():
    """The default grid with one more offset, at each panel's left edge, and
    weight 0.01 there: still in panel form, with a node at omega = 0."""
    _, weights, (mids, offsets) = half_line_grid()
    offsets = np.concatenate(([-1.0], offsets))
    nodes = np.add.outer(mids, offsets).ravel()
    edge_weights = np.full((len(mids), 1), 0.01)
    weights = np.hstack((edge_weights, weights.reshape(len(mids), -1))).ravel()
    assert nodes[0] == 0.0
    return nodes, weights, (mids, offsets)


def test_kernels_raise_no_floating_point_warnings():
    omega, u = np.array(OMEGAS), np.array(HALF_LINE)
    nodes, _, panels = _grid_through_zero()
    weights = np.ones_like(nodes)
    with warnings.catch_warnings(), np.errstate(divide="warn", over="warn", invalid="warn"):
        warnings.simplefilter("error")
        for fn, args, _, _ in _grid_cases():
            assert np.all(np.isfinite(fn(omega, *args)))
        for fn, args, _ in _integrand_cases():
            assert np.all(np.isfinite(fn(u, *args)))
        for rank in RANKS:
            for sign in ("-", "+"):
                assert all(np.all(np.isfinite(c)) for c in amplitude_columns(u[1:], rank, sign))
        coef = np.column_stack((weights, np.exp(-0.5 * nodes)))
        assert all(np.all(np.isfinite(p)) for p in fourier_cos_sin(nodes, coef, omega, panels))


TILE_COUNTS = [1, 15, 16, 17, 201]  # one row; just below, on and above a tile; many tiles


@pytest.mark.parametrize("count", [0, 1, 15, 16, 17, 31, 32, 33, 201])
def test_fourier_sums_match_per_lambda_dot_products(count):
    # lam counts on, just below and just above multiples of the row tile, with
    # a node at omega = 0 and three coefficient columns in one pass
    nodes, weights, panels = _grid_through_zero()
    coef = weights[:, None] * np.column_stack(
        (sigma0_hat(nodes, 3, 1), r_hat(nodes, 3, 1), rt_hat(-nodes, 3, 2, "+"))
    )
    lams = np.linspace(-5.0, 5.0, count)
    cos_part, sin_part = fourier_cos_sin(nodes, coef, lams, panels)
    assert cos_part.shape == sin_part.shape == (count, 3)
    for got, trig in ((cos_part, np.cos), (sin_part, np.sin)):
        for row, lam in zip(got, lams):
            for g, column in zip(row, coef.T):
                t = column * trig(nodes * lam)
                # the panel sums by angle addition and this per-lam sum add the
                # same 1,320 terms in different ways; a tiling slip would be O(1)
                assert abs(g - t.sum()) <= 2e-15 * np.abs(t).sum(), (trig.__name__, lam)


def _ref_columns(nodes, ref):
    return np.array([ref(x) for x in nodes])


@pytest.mark.parametrize("count", TILE_COUNTS)
def test_amplitude_quadrature_matches_per_lambda_reference_sums(count):
    # each batched value against the dot product of the weights with the
    # scalar reference integrand at that lamhat; the bound is relative to
    # the sizes of the terms the batched sum adds
    nodes, weights, _ = half_line_grid()
    lams = np.linspace(-5.0, 5.0, count)
    for rank in (2, 3, 4):
        got = thermo.amplitude_quadrature(thermo.KernelTable(rank), ("-", "+"), lams)
        for sign, side in (("-", -1), ("+", 1)):
            cols = [_ref_columns(nodes, lambda x, c=c: _ref_amp_columns(x, rank, side)[c]) for c in range(3)]
            over_u, kern, sub = (weights * c for c in cols)
            log_size = np.abs(over_u).sum() + np.abs(sub).sum()
            log_t, dlog_t = got[sign]
            assert log_t.shape == dlog_t.shape == (count,)
            for lam, lg, dl in zip(lams, log_t, dlog_t):
                phase = np.exp(side * 1j * nodes * lam)
                want = (phase * over_u - sub).sum()  # side log T
                assert abs(lg - side * want) <= 2e-15 * log_size, (rank, sign, lam)
                want = (1j * phase * kern).sum()
                assert abs(dl - want) <= 2e-15 * np.abs(kern).sum(), (rank, sign, lam)


@pytest.mark.parametrize("count", TILE_COUNTS)
def test_density_matches_per_lambda_reference_sums(count):
    # the three components, shifts folded in by angle addition, against the
    # per-lam dot products of the reference kernels with exp(i u (lam - shift))
    nodes, weights, _ = half_line_grid()
    lams = np.linspace(-5.0, 5.0, count)
    hole, theta = 0.4, -0.7
    for rank in (2, 3, 4):
        for level in range(1, rank):
            bulk_w = weights * _ref_columns(nodes, lambda x: _ref_sigma0(x, rank, level))
            back_w = weights * _ref_columns(nodes, lambda x: _ref_r(x, rank, level))
            for sign, side in (("-", -1), ("+", 1)):
                frak = _ref_frak_plus if side > 0 else _ref_frak_minus
                out_level = impurity_level(rank, sign)  # pinned by test_impurity_level
                rt_w = weights * _ref_columns(
                    nodes, lambda x: _ref_big_r(x, rank, level, out_level) * frak(-side * x)
                )
                prof = thermo.density(thermo.KernelTable(rank), level, sign, lams, hole, theta)
                for i, lam in enumerate(lams):
                    for got, w, phase, norm in (
                        (prof.bulk[i], bulk_w, np.cos(nodes * lam), math.pi),
                        (prof.hole_backflow[i], back_w, np.cos(nodes * (lam - hole)), math.pi),
                        (prof.defect[i], rt_w, np.exp(side * 1j * nodes * (lam - theta)), 2 * math.pi),
                    ):
                        t = w * phase / norm
                        assert abs(got - t.sum()) <= 2e-15 * np.abs(w).sum() / norm, (rank, level, sign, lam)
