import math

import numpy as np
import pytest
from scipy.integrate import quad
from scipy.special import gamma as sp_gamma

from defectlab.bethe import _a_n
from defectlab.kernels import gl_panels, impurity_level, r_hat, rt_hat, sigma0_hat
from defectlab.lax import transmission_amplitude
from defectlab.thermo import (
    KernelTable,
    TailBoundError,
    amplitude_quadrature,
    check_gamma_identity,
    density,
    quantization_phase_residual,
)


def _bulk(table, level, lams):
    # the bulk component does not depend on the impurity sign
    return density(table, level, "+", lams).bulk


def _log_t(table, sign, lamhat):
    return complex(amplitude_quadrature(table, (sign,), lamhat)[sign][0][0])


def _dlog_t(table, sign, lamhat):
    return complex(amplitude_quadrature(table, (sign,), lamhat)[sign][1][0])


def test_kernel_table_validation():
    with pytest.raises(ValueError):
        KernelTable(1)
    with pytest.raises(ValueError):
        _bulk(KernelTable(3), 3, 0.0)  # level must be < rank


def test_fourier_convention_against_independent_quadrature():
    # fhat(omega) = e^{-n|omega|/2} must invert to (1/2pi) n/(lam^2+n^2/4);
    # the cosine transform is computed here with an unrelated adaptive scheme
    for n in (1, 2):
        for lam in (0.0, 0.7, -1.3):
            val, _ = quad(
                lambda w: math.exp(-0.5 * n * w), 0, 60, weight="cos", wvar=lam
            )
            assert abs(val / math.pi - _a_n(lam, n)) < 1e-10


# ---------------------------------------------------------------------------
# densities


def test_bulk_density_rank2_closed_form():
    t = KernelTable(2)
    lams = np.linspace(-5, 5, 101)
    got = _bulk(t, 1, lams)
    expected = 1.0 / (2.0 * np.cosh(np.pi * lams))
    assert np.max(np.abs(got - expected)) < 1e-12


def test_bulk_density_rank3_at_origin():
    # sum over residues collapses to the digamma reflection value 1/sqrt(3)
    t = KernelTable(3)
    got = float(_bulk(t, 1, 0.0)[0])
    assert abs(got - 1.0 / math.sqrt(3.0)) < 1e-12
    # dual quadrature: adaptive scheme on the same kernel
    ref, _ = quad(
        lambda w: np.sinh(w) / np.sinh(1.5 * w) / np.pi if w > 0 else 2.0 / (3 * np.pi),
        0,
        60,
        limit=200,
    )
    assert abs(got - ref) < 1e-9


def test_bulk_density_normalization():
    # integral over lambda equals the omega = 0 kernel value (rank-k)/rank
    nodes, weights = gl_panels(np.linspace(-40.0, 40.0, 81), order=16)
    for rank in (2, 3, 4):
        t = KernelTable(rank)
        for k in range(1, rank):
            total = weights @ _bulk(t, k, nodes)
            assert abs(total - (rank - k) / rank) < 1e-6, (rank, k)


def test_density_profile_composition():
    t = KernelTable(2)
    lams = np.linspace(-2, 2, 9)
    prof = density(t, 1, "-", lams, hole=0.4, theta=0.2, sites=50)
    recomposed = prof.bulk + (prof.hole_backflow + prof.defect) / prof.sites
    assert np.allclose(prof.total, recomposed)
    assert prof.tail_bound < 1e-10


def test_density_backflow_is_centered_on_hole():
    t = KernelTable(2)
    hole = 0.8
    lams = np.array([hole - 0.5, hole, hole + 0.5])
    prof = density(t, 1, "-", lams, hole=hole)
    # the backflow kernel is even around the hole rapidity
    assert abs(prof.hole_backflow[0] - prof.hole_backflow[2]) < 1e-12


def test_density_defect_signs_are_conjugate_at_rank2():
    # at rank 2 the two one-sided kernels are mirror images, so the defect
    # components are complex conjugates on the real axis
    t = KernelTable(2)
    lams = np.linspace(-2, 2, 11)
    plus = density(t, 1, "+", lams)
    minus = density(t, 1, "-", lams)
    assert np.max(np.abs(plus.defect - np.conj(minus.defect))) < 1e-13
    assert np.allclose(plus.bulk, minus.bulk)


def test_density_input_validation():
    t = KernelTable(2)
    with pytest.raises(ValueError):
        density(t, 1, "x", [0.0])
    with pytest.raises(ValueError):
        density(t, 2, "-", [0.0])
    with pytest.raises(ValueError):
        density(t, 1, "-", [0.0], sites=0)
    for field in ("hole", "theta"):
        for value in (float("nan"), float("inf")):
            with pytest.raises(ValueError, match=f"{field} must be finite, got {value}"):
                density(t, 1, "-", [0.0], **{field: value})


def test_density_tail_bound_error():
    t = KernelTable(2)
    with pytest.raises(TailBoundError) as exc:
        density(t, 1, "-", [0.0], cutoff=30.0)
    assert exc.value.achieved > 1e-10


def _expected_tails(rank, level, sign, cutoff):
    """(label, kernel at +-cutoff, decay rate) of each density kernel, the
    rates read off the closed forms: sigma0 ~ exp(-k w/2); r = R(k,1) a_2 -
    R(k,2) a_1 with R(j,jp) ~ exp(-|j-jp| w/2); rt = R(k, 1 or rank-1) times
    the one-sided factor exp(-|w|/2)."""
    edges = np.array([cutoff, -cutoff])
    out_level = impurity_level(rank, sign)  # pinned by test_kernels.test_impurity_level
    return [
        (f"sigma0:{level}", sigma0_hat(edges, rank, level), level / 2),
        (f"r:{level}", r_hat(edges, rank, level), min((level + 1) / 2, (abs(level - 2) + 1) / 2)),
        (
            f"rt:{sign}:{level}",
            rt_hat(edges, rank, level, sign),
            (abs(level - out_level) + 1) / 2,
        ),
    ]


def test_density_tail_bound_is_edge_over_decay_rate():
    dominant = set()
    for rank in (2, 3, 4, 5):
        for level in range(1, rank):
            for sign in ("+", "-"):
                for cutoff in (20.0, 30.0, 50.0, 80.0, 120.0):
                    tails = _expected_tails(rank, level, sign, cutoff)
                    bounds = [(label, float(np.max(np.abs(v))) / rate) for label, v, rate in tails]
                    label, worst = max(bounds, key=lambda lb: lb[1])
                    dominant.add(label.split(":")[0])
                    failing = [lb for lb in bounds if lb[1] > 1e-10]
                    if failing:
                        with pytest.raises(TailBoundError) as exc:
                            density(KernelTable(rank), level, sign, [0.0], cutoff=cutoff)
                        # the first kernel over target is the one reported
                        assert exc.value.achieved == pytest.approx(failing[0][1], rel=1e-12)
                        assert f"kernel {failing[0][0]} tail" in str(exc.value)
                    else:
                        prof = density(KernelTable(rank), level, sign, [0.0], cutoff=cutoff)
                        assert prof.tail_bound == pytest.approx(worst, rel=1e-12)
    assert dominant == {"sigma0", "r", "rt"}


def test_transmission_density_real_part_rank2():
    # rt-hat at rank 2 is the bulk kernel restricted to a half line, so the
    # real part of its transform is half the bulk density
    t = KernelTable(2)
    lams = np.linspace(-3, 3, 25)
    td = density(t, 1, "-", lams).defect
    assert np.max(np.abs(td.real - 0.5 * _bulk(t, 1, lams))) < 1e-13


# ---------------------------------------------------------------------------
# amplitudes


def test_amplitude_regularized_matches_closed_form():
    lamhats = (-3.7, -0.9, 0.0, 0.6, 2.4)
    for rank in (2, 3, 4):
        t = KernelTable(rank)
        both = amplitude_quadrature(t, ("+", "-"), lamhats)
        for sign in ("+", "-"):
            for lamhat, log_t in zip(lamhats, both[sign][0]):
                reg = np.exp(log_t)
                closed = transmission_amplitude(rank, sign, lamhat)[0]
                assert abs(reg - closed) / abs(closed) < 1e-10, (rank, sign, lamhat)


def test_amplitude_log_derivative_matches_digamma():
    lamhats = (-1.4, 0.0, 2.2)
    for rank in (2, 3):
        t = KernelTable(rank)
        both = amplitude_quadrature(t, ("+", "-"), lamhats)
        for sign in ("+", "-"):
            for lamhat, quad_v in zip(lamhats, both[sign][1]):
                closed = transmission_amplitude(rank, sign, lamhat)[1]
                assert abs(quad_v - closed) < 1e-10


def test_amplitude_log_derivative_consistent_with_difference():
    t = KernelTable(3)
    h = 1e-5
    for sign in ("+", "-"):
        num = (
            _log_t(t, sign, 0.8 + h)
            - _log_t(t, sign, 0.8 - h)
        ) / (2 * h)
        assert abs(num - _dlog_t(t, sign, 0.8)) < 1e-8


def test_amplitude_unitarity_product_at_origin():
    # T+(0) T-(0) = 2^(1-2/n) Gamma(1/n)/Gamma(1-1/n)
    for rank in (2, 3, 4):
        t = KernelTable(rank)
        prod = np.exp(
            _log_t(t, "+", 0.0) + _log_t(t, "-", 0.0)
        )
        closed = 2 ** (1 - 2 / rank) * sp_gamma(1 / rank) / sp_gamma(1 - 1 / rank)
        assert abs(prod - closed) < 1e-10


def test_amplitude_sign_validation():
    t = KernelTable(2)
    with pytest.raises(ValueError):
        amplitude_quadrature(t, ("0",), 0.0)
    with pytest.raises(ValueError):
        amplitude_quadrature(t, ("+", "0"), 0.0)
    with pytest.raises(ValueError):
        transmission_amplitude(2, "0", 0.0)


def test_amplitude_quadrature_signs_are_independent_columns():
    # both signs in one pass give each sign's values alone, and the order of
    # the signs does not matter
    t = KernelTable(3)
    lams = np.linspace(-4.0, 4.0, 37)
    both = amplitude_quadrature(t, ("-", "+"), lams)
    swapped = amplitude_quadrature(t, ("+", "-"), lams)
    for sign in ("+", "-"):
        alone = amplitude_quadrature(t, (sign,), lams)[sign]
        for got in (both[sign], swapped[sign]):
            assert np.array_equal(got[0], alone[0]) and np.array_equal(got[1], alone[1])


def test_amplitude_imaginary_zero_keeps_its_sign_at_origin():
    # side log T is summed, then negated for '-': at lamhat = 0 its imaginary
    # part is +0.0, so log T^- has -0.0 and T^+ keeps +0.0
    for rank in (2, 3, 4):
        q = amplitude_quadrature(KernelTable(rank), ("-", "+"), [0.0])
        assert math.copysign(1.0, q["-"][0][0].imag) == -1.0
        assert math.copysign(1.0, q["+"][0][0].imag) == 1.0
        assert math.copysign(1.0, np.exp(q["-"][0][0]).imag) == -1.0


def test_nonfinite_lambda_leaves_the_other_rows_of_its_tile_alone():
    # at 8.5e307 and 1.7e308 lam * omega overflows and the rows are NaN; the
    # lam = 0 row shares their tile and must equal lam = 0 computed alone
    t = KernelTable(2)
    grid = np.linspace(0.0, 1.7e308, 3)
    with np.errstate(over="ignore", invalid="ignore"):
        prof = density(t, 1, "+", grid, hole=0.3, theta=-0.4)
        amps = amplitude_quadrature(t, ("-", "+"), grid)
    alone = density(t, 1, "+", [0.0], hole=0.3, theta=-0.4)
    for field in ("bulk", "hole_backflow", "defect", "total"):
        got, want = getattr(prof, field), getattr(alone, field)
        assert got[0].tobytes() == want[0].tobytes(), field
        assert not np.any(np.isfinite(got[1:])), field
    amps_alone = amplitude_quadrature(t, ("-", "+"), [0.0])
    for sign in ("-", "+"):
        for got, want in zip(amps[sign], amps_alone[sign]):
            assert got[0].tobytes() == want[0].tobytes(), sign
            assert not np.any(np.isfinite(got[1:])), sign


def test_quantization_phase_residual():
    for rank in (2, 3):
        t = KernelTable(rank)
        for sign in ("+", "-"):
            res = quantization_phase_residual(t, sign, -1.5, 2.0)
            assert res < 1e-8, (rank, sign, res)


# ---------------------------------------------------------------------------
# Gamma-ratio integral identity


def test_gamma_identity_real_mu():
    for mu in (0.5, 1.0, 2.0, 5.0, 20.0):
        rep = check_gamma_identity(mu)
        assert rep.passed, (mu, rep.residual)
        params = dict(rep.parameters)
        assert params["derivative_residual"] < 1e-9
        assert params["regularized_residual"] < 1e-8


def test_gamma_identity_known_value_at_mu1():
    # at mu = 1 the derivative integral equals psi(1) - psi(1/2) = 2 log 2
    rep = check_gamma_identity(1.0)
    assert rep.passed


def test_gamma_identity_complex_mu():
    rep = check_gamma_identity(3.0 + 0.7j)
    assert rep.passed


def test_gamma_identity_rejects_nonpositive_real_part():
    with pytest.raises(ValueError):
        check_gamma_identity(-1.0)
    with pytest.raises(ValueError):
        check_gamma_identity(0.0)


def test_gamma_identity_refuses_nan_by_name():
    with pytest.raises(ValueError, match=r"digamma argument must be finite, got \(nan"):
        check_gamma_identity(float("nan"))
