"""Acceptance gate: eleven numbered criteria, one test and one printed
verdict line each.  Tolerances and configurations are pinned here on purpose;
loosening any of them is a release decision, not a test fix."""

import json
import time

import numpy as np

import defectlab.lax as lax
from defectlab.bethe import (
    BetheState,
    bae_residual,
    counting_function_derivative,
    ground_state_seed,
    solve_bae,
)
from defectlab.checks import (
    calibrate_ordering,
    check_lax_crossing,
    check_transfer_commute,
    check_transmission_crossing,
    rll_residual,
    rng_for,
    sample_points,
    transmission_algebra_residual,
    ybe_residual,
)
from defectlab.cli import main
from defectlab.kernels import gl_panels
from defectlab.lax import ChainSpec, LaxSpec
from defectlab.tensor import FockSpace
from defectlab.thermo import (
    KernelTable,
    amplitude_quadrature,
    check_gamma_identity,
    density,
)

SEED = 20240917


def _verdict(number: int, label: str, ok: bool, detail: str):
    print(f"ACCEPTANCE {number:2d} {label}: {'PASS' if ok else 'FAIL'} ({detail})")
    assert ok, f"criterion {number} {label}: {detail}"


def _pairs(label: str, count: int):
    rng = rng_for(SEED, label)
    pts = sample_points(rng, 2 * count)
    return list(zip(pts[0::2], pts[1::2]))


def test_criterion_01_yang_baxter():
    start = time.perf_counter()
    worst = 0.0
    for rank in (2, 3, 4):
        for l1, l2 in _pairs(f"acc-ybe-{rank}", 20):
            worst = max(worst, ybe_residual(rank, l1, l2))
    elapsed = time.perf_counter() - start
    ok = worst <= 1e-12 and elapsed < 5.0
    _verdict(1, "yang-baxter", ok, f"max residual {worst:.3e}, {elapsed:.2f}s")


def test_criterion_02_exchange_relation_with_calibration():
    start = time.perf_counter()
    worst = 0.0
    calibrated_ok = True
    for rank in (2, 3):
        fock = FockSpace(rank - 1, 5)
        spec, report = calibrate_ordering(rank, fock, SEED)
        calibrated_ok &= report.passed
        calibrated_ok &= spec.ordering == "normal" and spec.shift == 1.0
        members = dict(report.parameters)["equivalence_class"].split(",")
        calibrated_ok &= "normal/1" in members
        for variant in ("L", "Lhat"):
            vspec = LaxSpec(rank, variant=variant, ordering=spec.ordering, shift=spec.shift)
            for l1, l2 in _pairs(f"acc-rll-{rank}-{variant}", 5):
                worst = max(worst, rll_residual(vspec, fock, l1, l2))
    elapsed = time.perf_counter() - start
    ok = worst <= 1e-10 and calibrated_ok and elapsed < 30.0
    _verdict(
        2,
        "exchange-relation",
        ok,
        f"max residual {worst:.3e}, calibration normal/1, {elapsed:.2f}s",
    )


def test_criterion_03_lax_crossing():
    worst = 0.0
    for rank in (2, 3, 4):
        fock = FockSpace(rank - 1, 4)
        pts = sample_points(rng_for(SEED, f"acc-cross-{rank}"), 10)
        report = check_lax_crossing(LaxSpec(rank), fock, pts, tol=1e-13)
        worst = max(worst, report.residual)
    ok = worst <= 1e-13
    _verdict(3, "lax-crossing", ok, f"max residual {worst:.3e}")


def test_criterion_04_transmission_algebra(monkeypatch):
    worst = 0.0
    for rank in (2, 3):
        fock = FockSpace(rank - 1, 5)
        for conjugate in (False, True):
            for l1, l2 in _pairs(f"acc-ta-{rank}-{conjugate}", 2):
                if min(abs((l1 - l2) - 1j), abs((l1 - l2) + 1j)) < 0.05:
                    continue
                worst = max(
                    worst,
                    transmission_algebra_residual(rank, fock, l1, l2, conjugate),
                )
    # scalar rescaling of the transmission matrix must not move the residual
    rank, fock = 2, FockSpace(1, 5)
    l1, l2 = 0.73 + 0.4j, -0.51 - 0.22j
    base = transmission_algebra_residual(rank, fock, l1, l2)
    orig = lax.transmission_matrix

    def scaled(rank_, fock_, lam, *args, **kwargs):
        c = np.exp(0.4 - 1.2j * complex(lam).real + 0.3j * complex(lam).imag)
        return c * orig(rank_, fock_, lam, *args, **kwargs)

    monkeypatch.setattr(lax, "transmission_matrix", scaled)
    rescaled = transmission_algebra_residual(rank, fock, l1, l2)
    monkeypatch.undo()
    drift = abs(base - rescaled)
    ok = worst <= 1e-10 and drift <= 1e-12 and rescaled <= 1e-10
    _verdict(
        4,
        "transmission-algebra",
        ok,
        f"max residual {worst:.3e}, rescaling drift {drift:.3e}",
    )


def test_criterion_05_transmission_crossing():
    worst = 0.0
    for rank in (2, 3):
        fock = FockSpace(rank - 1, 5)
        report = check_transmission_crossing(rank, fock, tol=1e-8)
        params = dict(report.parameters)
        rel_spread = params["constant_spread"] / abs(params["constant"])
        worst = max(worst, rel_spread, params["worst_pointwise_fit"])
        assert params["grid_points"] == 20
    ok = worst <= 1e-8
    _verdict(5, "transmission-crossing", ok, f"relative spread {worst:.3e}")


def test_criterion_06_amplitude_scan():
    start = time.perf_counter()
    grid = np.linspace(-5.0, 5.0, 101)
    worst_amp = 0.0
    worst_deriv = 0.0
    for rank in (2, 3, 4):
        table = KernelTable(rank)
        both = amplitude_quadrature(table, ("+", "-"), grid)
        for sign in ("+", "-"):
            for lam, log_t, dq in zip(grid, *both[sign]):
                closed, dc = lax.transmission_amplitude(rank, sign, float(lam))
                integral = np.exp(log_t)
                worst_amp = max(worst_amp, abs(integral - closed) / abs(closed))
                worst_deriv = max(worst_deriv, abs(dq - dc))
    elapsed = time.perf_counter() - start
    ok = worst_amp <= 1e-6 and worst_deriv <= 1e-6 and elapsed < 60.0
    _verdict(
        6,
        "amplitudes",
        ok,
        f"relative {worst_amp:.3e}, log-derivative {worst_deriv:.3e}, {elapsed:.1f}s",
    )


def test_criterion_07_gamma_identity():
    worst_deriv = 0.0
    worst_reg = 0.0
    for mu in (0.5, 1.0, 2.0, 5.0, 20.0):
        params = dict(check_gamma_identity(mu).parameters)
        worst_deriv = max(worst_deriv, params["derivative_residual"])
        worst_reg = max(worst_reg, params["regularized_residual"])
    ok = worst_deriv <= 1e-9 and worst_reg <= 1e-8
    _verdict(
        7,
        "gamma-identity",
        ok,
        f"derivative {worst_deriv:.3e}, regularized {worst_reg:.3e}",
    )


def test_criterion_08_densities():
    lams = np.linspace(-5.0, 5.0, 101)
    got = density(KernelTable(2), 1, "+", lams).bulk
    bulk_err = float(np.max(np.abs(got - 1.0 / (2.0 * np.cosh(np.pi * lams)))))
    nodes, weights = gl_panels(np.linspace(-40.0, 40.0, 81), order=16)
    norm_err = 0.0
    for rank in (2, 3, 4):
        table = KernelTable(rank)
        for k in range(1, rank):
            total = float(weights @ density(table, k, "+", nodes).bulk)
            norm_err = max(norm_err, abs(total - (rank - k) / rank))
    ok = bulk_err <= 1e-8 and norm_err <= 1e-6
    _verdict(
        8,
        "densities",
        ok,
        f"closed form {bulk_err:.3e}, normalization {norm_err:.3e}",
    )


def test_criterion_09_bethe():
    # one magnon: the equation is quadratic, so numpy's root finder is an
    # independent oracle
    oracle_err = 0.0
    for sign, coeffs in (
        ("+", [1.0, 1.0 + 1.0j, -0.25 - 0.5j]),
        ("-", [1.0, 1.0 - 1.0j, -0.25 + 0.5j]),
    ):
        exact = np.roots(coeffs)
        for root in exact:
            st = BetheState(
                rank=2,
                sites=1,
                roots=(np.array([root + 0.04 - 0.02j]),),
                defect_sign=sign,
            )
            sol = solve_bae(st, tol=1e-13)
            oracle_err = max(oracle_err, float(np.min(np.abs(sol.roots[0][0] - exact))))
    # small instance self-certification
    st4 = BetheState(
        rank=2, sites=4, roots=(ground_state_seed(4),), theta=0.3, defect_sign="+"
    )
    res4 = float(np.max(np.abs(bae_residual(solve_bae(st4)))))
    # finite size vs continuum
    sites = 200
    big = BetheState(
        rank=2, sites=sites, roots=(ground_state_seed(sites),), defect_sign="+"
    )
    sol = solve_bae(big)
    grid = np.linspace(-2.0, 2.0, 41)
    deriv = counting_function_derivative(sol, 1, grid) / sites
    sigma_err = float(np.max(np.abs(deriv - density(KernelTable(2), 1, "+", grid).bulk)))
    ok = oracle_err <= 1e-10 and res4 <= 1e-10 and sigma_err <= 2e-3
    _verdict(
        9,
        "bethe",
        ok,
        f"oracle {oracle_err:.3e}, residual {res4:.3e}, density {sigma_err:.3e}",
    )


def test_criterion_10_transfer_commutativity():
    chain = ChainSpec(rank=2, sites=2, fock_cutoff=3, theta=0.1)
    worst = 0.0
    for l1, l2 in _pairs("acc-transfer", 10):
        report = check_transfer_commute(chain, l1, l2, tol=1e-10)
        worst = max(worst, report.residual)
    ok = worst <= 1e-10
    _verdict(10, "transfer-commute", ok, f"max residual {worst:.3e}")


def test_criterion_11_determinism(tmp_path):
    argv = [
        "check",
        "all",
        "--rank",
        "2",
        "--fock-cutoff",
        "4",
        "--sites",
        "2",
        "--seed",
        "7",
    ]
    first = tmp_path / "first.json"
    second = tmp_path / "second.json"
    code1 = main([*argv, "-o", str(first)])
    code2 = main([*argv, "-o", str(second)])
    same = first.read_bytes() == second.read_bytes()
    payload = json.loads(first.read_text())
    ok = code1 == 0 and code2 == 0 and same and payload["all_passed"]
    _verdict(
        11,
        "determinism",
        ok,
        f"exit {code1}/{code2}, byte-identical {same}",
    )
