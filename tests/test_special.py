"""special.py against scipy.special, which the package no longer imports."""

import cmath
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest
from scipy.special import digamma, loggamma

from defectlab.lax import amplitude_gamma_args
from defectlab.special import (
    PoleProximityError,
    gamma_ratio,
    guard_pole,
    log_gamma_psi,
    pole_distance,
)

BOUND = 5e-14
SRC = Path(__file__).resolve().parent.parent / "src"


def _close(got, ref) -> bool:
    return abs(got - ref) <= BOUND * max(1.0, abs(ref))


def _gamma_args():
    """(numerator, denominator) of every transmission amplitude T^+, T^- and
    every S-matrix amplitude at ranks 2-4 on a grid of |lambda| <= 50."""
    for rank in (2, 3, 4):
        for lam in np.linspace(-50.0, 50.0, 401):
            for sign in ("+", "-"):
                num, den = amplitude_gamma_args(rank, sign, lam)
                yield [num], [den]
            z = 1j * lam / rank
            yield [z + 1, -z + 1 - 1 / rank], [-z + 1, z + 1 - 1 / rank]


def _box():
    """Re z in [-20, 40] by quarters (integers and half-integers included),
    Im z of either sign from 1e-6 to 60 and on the real axis, off the poles."""
    ims = [0.0] + [s * y for y in (1e-6, 1e-3, 0.1, 0.5, 1, 2, 5, 7, 10, 20, 40, 60)
                   for s in (1, -1)]
    for x in np.arange(-20.0, 40.0001, 0.25):
        for y in ims:
            z = complex(x, y)
            if pole_distance(z) > 1e-3:
                yield z


def test_amplitude_and_s_matrix_arguments_match_scipy():
    eps = np.finfo(float).eps
    for num, den in _gamma_args():
        for z in num + den:
            lg, dg = log_gamma_psi(z)
            assert _close(lg, loggamma(z)), z
            assert _close(dg, digamma(z)), z
        logs = [loggamma(z) for z in num] + [-loggamma(z) for z in den]
        ref = np.exp(sum(logs))
        # the ratio is exp of a sum of logs each rounded to eps |log|, on the
        # reference's side as on this one: at lambda = 49.75 the rank-2
        # S-matrix sums four logs of modulus 80, and scipy's own ratio is
        # 3.6e-14 from the exact phase there
        floor = eps * sum(map(abs, logs)) * abs(ref)
        assert abs(gamma_ratio(num, den) - ref) <= BOUND * max(1.0, abs(ref)) + floor, (num, den)


def test_box_matches_scipy_in_both_half_planes():
    points = list(_box())
    assert len(points) > 5000
    for z in points:
        lg, dg = log_gamma_psi(z)
        assert _close(lg, loggamma(z)), z
        assert _close(dg, digamma(z)), z


@pytest.mark.parametrize("x", [-1e6, -1e300])
@pytest.mark.parametrize("y", [0.5, -3.3])
def test_far_left_argument_returns_at_once(x, y):
    z = complex(x, y)
    start = time.perf_counter()
    lg, dg = log_gamma_psi(z)
    assert time.perf_counter() - start < 0.010
    assert _close(lg, loggamma(z))
    assert _close(dg, digamma(z))


def test_one_pass_log_gamma_and_digamma_match_scipy():
    # log_gamma_psi on every argument set above, at the same bound; a
    # one-argument gamma_ratio is exp of its log Gamma to the bit
    far_left = [complex(x, y) for x in (-1e6, -1e300) for y in (0.5, -3.3)]
    args = [z for num, den in _gamma_args() for z in num + den] + list(_box()) + far_left
    for z in args:
        lg, dg = log_gamma_psi(z)
        assert _close(lg, loggamma(z)), z
        assert _close(dg, digamma(z)), z
        if lg.real < 700.0:
            assert gamma_ratio([z], []) == complex(np.exp(0j + lg)), z
    for z in (complex(0.25, 1e300), complex(-2.25, -1e300)):
        assert cmath.isfinite(log_gamma_psi(z)[1])
    for z in (0.0, -3.0, -3.0 + 1e-9j, 1e-9):
        with pytest.raises(PoleProximityError, match="Gamma argument .* within 1e-08 of a pole"):
            log_gamma_psi(z)


def test_huge_imaginary_part_stays_finite_or_overflows_quietly():
    # the amplitude arguments at lambda near the float limit: no exception,
    # and a ratio that is not finite rather than an OverflowError
    with np.errstate(invalid="ignore"):
        for lam in (1e308, 1.7e308):
            num, den = amplitude_gamma_args(2, "+", lam)
            assert not cmath.isfinite(gamma_ratio([num], [den]))
    for z in (complex(0.25, 1e300), complex(-2.25, -1e300)):
        lg, dg = log_gamma_psi(z)
        assert cmath.isfinite(dg)
        assert cmath.isfinite(lg) == cmath.isfinite(loggamma(z))


def test_pole_and_nan_refusals():
    for z in (0.0, -3.0, -3.0 + 1e-9j, 1e-9):
        with pytest.raises(PoleProximityError, match="within 1e-08 of a pole"):
            gamma_ratio([z], [])
        # a denominator pole would send the ratio to zero without a word
        with pytest.raises(PoleProximityError, match="within 1e-08 of a pole"):
            gamma_ratio([1.0], [z])
        with pytest.raises(PoleProximityError, match="digamma argument"):
            log_gamma_psi(z, "digamma argument")
    for z in (complex("nan"), complex("inf"), complex(1.0, float("-inf"))):
        with pytest.raises(ValueError, match="must be finite") as exc:
            guard_pole(z)
        assert not isinstance(exc.value, PoleProximityError)


def _pole_distance_three_candidates(z) -> float:
    z = complex(z)
    n0 = int(max(0, round(-z.real)))
    return min(abs(z + n) for n in (n0 - 1, n0, n0 + 1) if n >= 0)


def test_pole_distance_is_the_three_candidate_minimum():
    for x in np.arange(-30.0, 5.0001, 0.125):
        for y in (0.0, 1e-9, -0.3, 2.0):
            for dx in (0.0, 1e-12, -1e-12):
                z = complex(x + dx, y)
                assert pole_distance(z) == _pole_distance_three_candidates(z), z


def test_cli_import_loads_no_scipy():
    code = "import sys, defectlab.cli; print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
    done = subprocess.run([sys.executable, "-c", code], env={"PYTHONPATH": str(SRC)},
                          capture_output=True, text=True, check=True)
    assert done.stdout.strip() == "[]"
