import json
import math

import numpy as np
import pytest
from scipy.integrate import quad
from scipy.special import gamma as sp_gamma

from defectlab.bethe import _a_n
from defectlab.kernels import gl_panels, r_hat, rt_hat, sigma0_hat
from defectlab.thermo import (
    KernelTable,
    TailBoundError,
    amplitude_closed_form,
    amplitude_log_derivative,
    amplitude_log_derivative_closed,
    amplitude_regularized,
    bulk_density,
    check_gamma_identity,
    density,
    hole_dispersion,
    quantization_phase_residual,
    transmission_density,
)


def test_kernel_table_validation():
    with pytest.raises(ValueError):
        KernelTable(1)
    with pytest.raises(ValueError):
        bulk_density(KernelTable(3), 3, 0.0)  # level must be < rank


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
    got = bulk_density(t, 1, lams)
    expected = 1.0 / (2.0 * np.cosh(np.pi * lams))
    assert np.max(np.abs(got - expected)) < 1e-12


def test_bulk_density_rank3_at_origin():
    # sum over residues collapses to the digamma reflection value 1/sqrt(3)
    t = KernelTable(3)
    got = float(bulk_density(t, 1, 0.0)[0])
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
            total = weights @ bulk_density(t, k, nodes)
            assert abs(total - (rank - k) / rank) < 1e-6, (rank, k)


def test_hole_dispersion_rank2_closed_forms():
    t = KernelTable(2)
    lams = np.linspace(-4, 4, 41)
    eps, mom = hole_dispersion(t, 1, lams)
    assert np.max(np.abs(eps - 1.0 / (2 * np.cosh(np.pi * lams)))) < 1e-12
    assert np.max(np.abs(mom - np.arctan(np.sinh(np.pi * lams)))) < 1e-12


def test_hole_dispersion_parity_and_range():
    for rank in (2, 3):
        t = KernelTable(rank)
        for k in range(1, rank):
            lams = np.linspace(-3, 3, 13)
            eps, mom = hole_dispersion(t, k, lams)
            assert np.allclose(mom, -mom[::-1], atol=1e-13)
            assert np.allclose(eps, eps[::-1], atol=1e-13)
            # momentum saturates at pi (rank-k)/rank
            _, edge = hole_dispersion(t, k, 30.0)
            assert abs(edge - np.pi * (rank - k) / rank) < 1e-10
    e0, p0 = hole_dispersion(KernelTable(2), 1, 0.0)
    assert isinstance(e0, float) and isinstance(p0, float) and p0 == 0.0


def test_density_profile_composition_and_serialization():
    t = KernelTable(2)
    lams = np.linspace(-2, 2, 9)
    prof = density(t, 1, "-", lams, hole=0.4, theta=0.2, sites=50)
    recomposed = prof.bulk + (prof.hole_backflow + prof.defect) / prof.sites
    assert np.allclose(prof.total, recomposed)
    assert prof.tail_bound < 1e-10
    d = prof.to_dict()
    assert d["schema"] == 1 and d["sites"] == 50
    json.loads(prof.to_json())
    csv = prof.to_csv()
    header, *rows = csv.strip().split("\n")
    assert header == "lambda,sigma_re,sigma_im,bulk,hole_backflow,defect_re,defect_im"
    assert len(rows) == len(lams)
    first = [float(x) for x in rows[0].split(",")]
    assert first[0] == lams[0]


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
    out_level = 1 if sign == "+" else rank - 1
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
    td = transmission_density(t, "-", lams)
    assert np.max(np.abs(td.real - 0.5 * bulk_density(t, 1, lams))) < 1e-13


# ---------------------------------------------------------------------------
# amplitudes


def test_amplitude_regularized_matches_closed_form():
    for rank in (2, 3, 4):
        t = KernelTable(rank)
        for sign in ("+", "-"):
            for lamhat in (-3.7, -0.9, 0.0, 0.6, 2.4):
                reg = np.exp(amplitude_regularized(t, sign, lamhat))
                closed = amplitude_closed_form(t, sign, lamhat)
                assert abs(reg - closed) / abs(closed) < 1e-10, (rank, sign, lamhat)


def test_amplitude_log_derivative_matches_digamma():
    for rank in (2, 3):
        t = KernelTable(rank)
        for sign in ("+", "-"):
            for lamhat in (-1.4, 0.0, 2.2):
                quad_v = amplitude_log_derivative(t, sign, lamhat)
                closed = amplitude_log_derivative_closed(t, sign, lamhat)
                assert abs(quad_v - closed) < 1e-10


def test_amplitude_log_derivative_consistent_with_difference():
    t = KernelTable(3)
    h = 1e-5
    for sign in ("+", "-"):
        num = (
            amplitude_regularized(t, sign, 0.8 + h)
            - amplitude_regularized(t, sign, 0.8 - h)
        ) / (2 * h)
        assert abs(num - amplitude_log_derivative(t, sign, 0.8)) < 1e-8


def test_amplitude_unitarity_product_at_origin():
    # T+(0) T-(0) = 2^(1-2/n) Gamma(1/n)/Gamma(1-1/n)
    for rank in (2, 3, 4):
        t = KernelTable(rank)
        prod = np.exp(
            amplitude_regularized(t, "+", 0.0) + amplitude_regularized(t, "-", 0.0)
        )
        closed = 2 ** (1 - 2 / rank) * sp_gamma(1 / rank) / sp_gamma(1 - 1 / rank)
        assert abs(prod - closed) < 1e-10


def test_amplitude_sign_validation():
    t = KernelTable(2)
    with pytest.raises(ValueError):
        amplitude_regularized(t, "0", 0.0)
    with pytest.raises(ValueError):
        amplitude_log_derivative(t, "0", 0.0)
    with pytest.raises(ValueError):
        amplitude_log_derivative_closed(t, "0", 0.0)


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
