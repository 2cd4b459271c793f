"""Gamma-function ratios and digamma, with explicit pole guards.

Every scattering and transmission amplitude in this package is a ratio of
Gamma functions of complex arguments.  Evaluating such a ratio blindly near
a pole produces garbage without warning, so every call site goes through
:func:`log_gamma_psi`, which refuses arguments inside a small disk around the
pole set {0, -1, -2, ...}.  It returns the principal branch of log Gamma
(real on the positive real axis, cut along the negative one) and the digamma
function psi together, from one pass over a scalar complex argument in plain
``cmath``; :func:`gamma_ratio` sums its first value over each argument:

* for Re z < 0, the reflection formulas
  log Gamma(z) = log pi - log sin(pi z) - log Gamma(1 - z) + 2 pi i k, with
  k = sign(Im z) floor(Re z / 2 + 1/4) (Hare, J. Algorithms 25, 1997,
  Prop. 3.1), and psi(z) = psi(1 - z) - pi cot(pi z);
* for 0 <= Re z < 7 and |z| < 12, the upward recurrences
  log Gamma(z) = log Gamma(z + 2) - log(z (z + 1)) and
  psi(z) = psi(z + 2) - (2z + 1) / (z (z + 1)), until Re z >= 7 or
  |z| >= 12.  The two factors z and z + 1 have arguments of at most pi/2
  each, so the log of their product is the sum of their principal logs and
  the result stays on the principal branch;
* then the Stirling series with the Bernoulli numbers B_2 ... B_16
  (Abramowitz-Stegun 6.1.40 and 6.3.18).

Reflection sends Re z < 0 to Re(1 - z) > 1, so no call takes more than 4
recurrence steps, however far left z lies.  The amplitude arguments, with
Re z in (0, 1/2), take the recurrence, which costs half what reflection does.

Truncation bound: for Re z >= 0 the remainder of either series is at most
its first omitted term times a power of sec(arg z / 2) no higher than 20
(DLMF 5.11(ii)).  For Re z >= 7 that product is largest on the real axis,
where the factor is 1: the log-Gamma remainder is at most
|B_18| / (18 * 17 * 7^17) = 7.8e-16 and the digamma remainder at most
|B_18| / (18 * 7^18) = 1.9e-15.  For |z| >= 12 the factor is at most
2^10, and the remainders at most 8.3e-17 and 1.2e-16.
"""

from __future__ import annotations

import cmath
import math

import numpy as np

DEFAULT_POLE_GUARD = 1e-8

# the recurrence runs while Re z < X0 and |z| < R0 (see the bound above)
X0, R0 = 7.0, 12.0
_HALF_LOG_2PI = 0.5 * math.log(2.0 * math.pi)
_LOG_PI = math.log(math.pi)
# B_2k / (2k (2k - 1)) and B_2k / (2k), k = 8 down to 1, for Horner's rule in 1/z^2
_BERNOULLI = (1.0 / 6, -1.0 / 30, 1.0 / 42, -1.0 / 30, 5.0 / 66, -691.0 / 2730, 7.0 / 6,
              -3617.0 / 510)
_LOG_GAMMA_COEFFS = tuple(b / (2 * k * (2 * k - 1)) for k, b in enumerate(_BERNOULLI, 1))[::-1]
_PSI_COEFFS = tuple(b / (2 * k) for k, b in enumerate(_BERNOULLI, 1))[::-1]
# beyond this |pi Im z|, sin(pi z) and cot(pi z) take their exponential
# asymptotes; what is dropped is below exp(-40) relative
_ASYMPTOTIC_PI_Y = 20.0


class PoleProximityError(ValueError):
    """An argument sits within the guard radius of a Gamma pole or an
    explicit prefactor zero."""


def pole_distance(z) -> float:
    """Distance from z to the nearest non-positive integer."""
    z = complex(z)
    return abs(z + max(0, round(-z.real)))


def guard_pole(z, what: str = "Gamma argument"):
    if not cmath.isfinite(z):
        raise ValueError(f"{what} must be finite, got {complex(z)}")
    d = pole_distance(z)
    if d <= DEFAULT_POLE_GUARD:
        raise PoleProximityError(
            f"{what} {complex(z):.6g} lies within {DEFAULT_POLE_GUARD:g} of a pole "
            f"(distance {d:.3e})"
        )
    return z


def guard_nonzero(z, what: str = "prefactor"):
    if abs(complex(z)) <= DEFAULT_POLE_GUARD:
        raise PoleProximityError(f"{what} vanishes (|{complex(z):.6g}| <= {DEFAULT_POLE_GUARD:g})")
    return z


def _horner(coeffs, w: complex) -> complex:
    acc = 0.0j
    for c in coeffs:
        acc = acc * w + c
    return acc


def _reduce(x: float) -> tuple:
    """x = n + f with n an integer and |f| <= 1/2, f exact."""
    n = round(x)
    return n, x - n


def _log_sin_pi(z: complex) -> complex:
    """Principal log of sin(pi z), without overflow for any finite z."""
    n, f = _reduce(z.real)
    if abs(math.pi * z.imag) <= _ASYMPTOTIC_PI_Y:
        pf, py = math.pi * f, math.pi * z.imag
        s = complex(math.sin(pf) * math.cosh(py), math.cos(pf) * math.sinh(py))
        return cmath.log(-s if n % 2 else s)
    # sin(pi z) = (-1)^n e^(pi |y|) / 2 * i s e^(-i s pi f), s = sign(y)
    s = math.copysign(1.0, z.imag)
    phase = s * math.pi * (0.5 - f) + math.pi * (n % 2)
    phase = math.remainder(phase, 2.0 * math.pi)
    return complex(math.pi * abs(z.imag) - math.log(2.0), phase)


def _cot_pi(z: complex) -> complex:
    """cot(pi z) for finite z off the integers."""
    _, f = _reduce(z.real)
    if abs(math.pi * z.imag) > _ASYMPTOTIC_PI_Y:
        return complex(0.0, -math.copysign(1.0, z.imag))
    w = math.pi * complex(f, z.imag)
    return cmath.cos(w) / cmath.sin(w)


def _log_gamma_psi(z: complex) -> tuple:
    """(log Gamma(z), psi(z)) off the poles."""
    if z.real < 0.0:
        lg, dg = _log_gamma_psi(1.0 - z)
        k = math.copysign(2.0 * math.pi, z.imag) * math.floor(0.5 * z.real + 0.25)
        return complex(_LOG_PI, k) - _log_sin_pi(z) - lg, dg - math.pi * _cot_pi(z)
    acc = dacc = 0.0j
    while z.real < X0 and abs(z) < R0:
        pair = z * (z + 1.0)
        acc += cmath.log(pair)
        dacc += (2.0 * z + 1.0) / pair
        z += 2.0
    log_z, rz = cmath.log(z), 1.0 / z
    rzz = rz * rz
    lg = (z - 0.5) * log_z - z + _HALF_LOG_2PI + rz * _horner(_LOG_GAMMA_COEFFS, rzz) - acc
    return lg, log_z - 0.5 * rz - rzz * _horner(_PSI_COEFFS, rzz) - dacc


def log_gamma_psi(z, what: str = "Gamma argument") -> tuple:
    """(log Gamma(z), psi(z)) of a pole-guarded z, from one pass."""
    return _log_gamma_psi(complex(guard_pole(z, what)))


def gamma_ratio(numerator, denominator) -> complex:
    """prod Gamma(numerator) / prod Gamma(denominator), via log-Gamma.  Every
    argument is pole-guarded, in the denominator too, where a pole would
    silently send the ratio to zero."""
    total = 0.0 + 0.0j
    for z in numerator:
        total += log_gamma_psi(z)[0]
    for z in denominator:
        total -= log_gamma_psi(z)[0]
    return complex(np.exp(total))
