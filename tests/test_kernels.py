import cmath
import math
import warnings

import numpy as np
import pytest

from defectlab import bethe, lax, thermo
from defectlab.kernels import (
    DEFECT_MINUS,
    DEFECT_PLUS,
    amplitude_integrand,
    amplitude_logderiv_integrand,
    defect_side,
    fourier_cos_sum,
    fourier_exp_sum,
    fourier_sin_over_omega_sum,
    gamma_identity_integrand,
    gamma_identity_derivative_integrand,
    gl_panels,
    half_line_grid,
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


def _sign_calls(sign):
    """(name, call, the sign as the refusal shows it) for every public entry
    point that takes an impurity sign."""
    w = np.array([-1.0, 0.0, 1.0])
    table = thermo.KernelTable(3)
    yield "defect_side", lambda: defect_side(sign), sign
    yield "rt_hat", lambda: rt_hat(w, 3, 1, sign), sign
    yield "amplitude_integrand", lambda: amplitude_integrand(w[1:], 0.3, 3, sign), sign
    yield "amplitude_logderiv_integrand", (
        lambda: amplitude_logderiv_integrand(w[1:], 0.3, 3, sign)
    ), sign
    yield "density", lambda: thermo.density(table, 1, sign, w), sign
    yield "transmission_density", lambda: thermo.transmission_density(table, sign, w), sign
    for name in (
        "amplitude_regularized",
        "amplitude_log_derivative",
        "amplitude_closed_form",
        "amplitude_log_derivative_closed",
    ):
        yield name, lambda fn=getattr(thermo, name): fn(table, sign, 0.3), sign
    yield "transmission_amplitude", lambda: lax.transmission_amplitude(3, sign, 0.3), sign
    yield "amplitude_gamma_args", lambda: lax.amplitude_gamma_args(3, sign, 0.3), sign
    yield "defect_factor", lambda: bethe.defect_factor(0.3, sign), sign
    yield "defect_log_derivative", lambda: bethe.defect_log_derivative(0.3, sign), sign
    if sign is not None:  # a state without the impurity has defect_sign None
        yield "BetheState", (
            lambda: bethe.BetheState(rank=2, sites=2, roots=([0.1],), defect_sign=sign)
        ), sign


@pytest.mark.parametrize("sign", ["plus", "", None])
def test_sign_entry_points_refuse_anything_but_plus_or_minus(sign):
    calls = list(_sign_calls(sign))
    assert len(calls) == 14 + (sign is not None)
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
    nodes, weights = half_line_grid()
    assert abs(weights @ np.exp(-nodes) - 1.0) < 1e-14
    assert np.all(weights > 0)
    assert nodes.min() > 0.0 and nodes.max() < 80.0


def test_fourier_cos_sum_lorentzian():
    # (1/pi) int_0^inf exp(-n w/2) cos(w lam) dw = (1/(2 pi)) n/(lam^2+n^2/4)
    nodes, weights = half_line_grid()
    lams = np.linspace(-3, 3, 25)
    for n in (1, 2):
        got = fourier_cos_sum(nodes, weights, np.exp(-0.5 * n * nodes), lams)
        expected = (1.0 / (2 * np.pi)) * n / (lams**2 + 0.25 * n * n)
        assert np.max(np.abs(got - expected)) < 1e-13


def test_fourier_sin_over_omega_arctan():
    # 2 int_0^inf exp(-w) sin(w lam)/w dw = 2 arctan(lam)
    nodes, weights = half_line_grid()
    lams = np.linspace(-2, 2, 21)
    got = fourier_sin_over_omega_sum(nodes, weights, np.exp(-nodes), lams)
    assert np.max(np.abs(got - 2 * np.arctan(lams))) < 1e-13


def test_fourier_exp_sum_full_line():
    edges = np.linspace(-80.0, 80.0, 81)
    nodes, weights = gl_panels(edges, order=32)
    lams = np.linspace(-2, 2, 9)
    got = fourier_exp_sum(nodes, weights, np.exp(-np.abs(nodes)), lams)
    expected = (1.0 / (2 * np.pi)) * 2.0 / (lams**2 + 1.0)
    assert np.max(np.abs(got - expected)) < 1e-13
    assert np.max(np.abs(got.imag)) < 1e-14


# ---------------------------------------------------------------------------
# amplitude and identity integrands


def test_amplitude_integrand_zero_limits():
    lamhat, rank = 1.7, 3
    m = amplitude_integrand(np.array([0.0]), lamhat, rank, "-")[0]
    assert abs(m - (1.0 - 1j * lamhat / rank)) < 1e-15
    p = amplitude_integrand(np.array([0.0]), lamhat, rank, "+")[0]
    assert abs(p - (rank - 1.0) * (1j * lamhat / rank + 1.0)) < 1e-15


def test_amplitude_integrand_continuity_at_zero():
    lamhat, rank = -0.9, 2
    for sign in ("-", "+"):
        v0 = amplitude_integrand(np.array([0.0]), lamhat, rank, sign)[0]
        v1 = amplitude_integrand(np.array([1e-8]), lamhat, rank, sign)[0]
        assert abs(v0 - v1) < 1e-6


def test_gamma_identity_integrand_limit():
    assert abs(gamma_identity_integrand(np.array([0.0]), 3.0)[0] - 0.5) < 1e-15


def test_gamma_identity_derivative_known_value():
    # int_0^inf exp(-x/2) sech(x/2) dx = 2 log 2
    nodes, weights = half_line_grid()
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


def _ref_logderiv(x, lamhat, rank, sign):
    level = rank - 1 if sign < 0 else 1
    return 1j * cmath.exp(sign * 1j * x * lamhat) * _ref_sigma0(x, rank, level)


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


def _integrand_cases():
    for rank in RANKS:
        for lamhat in (-1.3, 0.0, 0.7):
            for sign, side in (("-", -1), ("+", 1)):
                args = (lamhat, rank, sign)
                yield amplitude_integrand, args, lambda x, a=args, s=side: _ref_amp(x, *a[:2], s)
                yield amplitude_logderiv_integrand, args, (
                    lambda x, a=args, s=side: _ref_logderiv(x, *a[:2], s)
                )
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


def test_kernels_raise_no_floating_point_warnings():
    omega, u = np.array(OMEGAS), np.array(HALF_LINE)
    nodes = np.concatenate(([0.0], half_line_grid()[0]))
    weights = np.ones_like(nodes)
    with warnings.catch_warnings(), np.errstate(divide="warn", over="warn", invalid="warn"):
        warnings.simplefilter("error")
        for fn, args, _, _ in _grid_cases():
            assert np.all(np.isfinite(fn(omega, *args)))
        for fn, args, _ in _integrand_cases():
            assert np.all(np.isfinite(fn(u, *args)))
        for fn in (fourier_cos_sum, fourier_sin_over_omega_sum, fourier_exp_sum):
            assert np.all(np.isfinite(fn(nodes, weights, np.exp(-0.5 * nodes), omega)))


@pytest.mark.parametrize("count", [0, 1, 31, 32, 33, 201])
def test_fourier_sums_match_per_lambda_dot_products(count):
    # lam counts on, just below and just above multiples of the row tile; a
    # node at omega = 0 exercises the sin(omega lam)/omega limit
    half_nodes, half_weights = half_line_grid()
    nodes = np.concatenate(([0.0], half_nodes))
    weights = np.concatenate(([0.01], half_weights))
    values = sigma0_hat(nodes, 3, 1)
    wv = weights * values
    lams = np.linspace(-5.0, 5.0, count)
    terms = {
        fourier_cos_sum: lambda lam: wv * np.cos(nodes * lam) / math.pi,
        fourier_sin_over_omega_sum: lambda lam: 2.0
        * np.concatenate(([wv[0] * lam], wv[1:] * np.sin(half_nodes * lam) / half_nodes)),
        fourier_exp_sum: lambda lam: wv * np.exp(-1j * nodes * lam) / (2 * math.pi),
    }
    for fn, term in terms.items():
        got = fn(nodes, weights, values, lams)
        assert got.shape == (count,)
        for g, lam in zip(got, lams):
            t = term(lam)
            # the tiled matrix product and this per-lam sum add the same 1,281
            # terms in different orders; a tiling slip would be O(1)
            assert abs(g - t.sum()) <= 2e-15 * np.abs(t).sum(), (fn.__name__, lam)
