"""Gamma-function ratios and digamma, with explicit pole guards.

Every scattering and transmission amplitude in this package is a ratio of
Gamma functions of complex arguments.  Evaluating such a ratio blindly near
a pole produces garbage without warning, so every call site goes through
:func:`log_gamma_psi` or :func:`gamma_ratio`, which refuse arguments inside a
small disk around the pole set {0, -1, -2, ...}.  The first returns the
principal branch of log Gamma (real on the positive real axis, cut along
the negative one) and the digamma function psi together, from one pass over
a scalar complex argument in plain ``cmath``, or elementwise over a numpy
array; :func:`gamma_ratio` sums log Gamma over each scalar argument from the
same pass with the digamma's sums skipped: the same bits in about two
thirds of the time:

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

An array is refused whole if any entry would be refused, with the scalar's
error for the first such entry.  It then takes the same steps in the same
order as a scalar: the recurrence runs on the entries that still need a
step, and the Stirling series on all of them at once.  Entries with
Re z < 0, which no real amplitude grid produces, go through the scalar
reflection one by one.  Array results agree with the scalar ones to a few
ulps: numpy's complex products, quotients and logs may round differently
from Python's and ``cmath``'s.

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


def modulus(z: np.ndarray) -> np.ndarray:
    """|z| elementwise by libm's hypot, which rounds as abs() of a Python
    complex does; numpy's SIMD abs of a complex array may not."""
    return np.hypot(z.real, z.imag)


def pole_distance(z):
    """Distance from z to the nearest non-positive integer; elementwise, and
    to the bit the same, on a numpy array."""
    if isinstance(z, np.ndarray):
        return modulus(z + np.maximum(0.0, np.round(-z.real)))
    return _pole_distance(complex(z))


def _pole_distance(z: complex) -> float:
    return abs(z + max(0, round(-z.real)))


def guard_pole(z, what: str = "Gamma argument"):
    if not cmath.isfinite(z):
        raise ValueError(f"{what} must be finite, got {complex(z)}")
    d = _pole_distance(complex(z))
    if d <= DEFAULT_POLE_GUARD:
        raise PoleProximityError(
            f"{what} {complex(z):.6g} lies within {DEFAULT_POLE_GUARD:g} of a pole "
            f"(distance {d:.3e})"
        )
    return z


def _guard_poles(z: np.ndarray, what: str) -> np.ndarray:
    """z if guard_pole passes every entry, else its error for the first it refuses."""
    with np.errstate(invalid="ignore"):  # an infinite entry makes inf - inf
        refused = ~np.isfinite(z) | (pole_distance(z) <= DEFAULT_POLE_GUARD)
    if refused.any():
        guard_pole(z.flat[np.argmax(refused)], what)
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


def _log_gamma_psi(z: complex, psi: bool = True) -> tuple:
    """(log Gamma(z), psi(z)) off the poles; without ``psi``, the same
    log Gamma and None, the digamma's sums skipped."""
    if z.real < 0.0:
        lg, dg = _log_gamma_psi(1.0 - z, psi)
        k = math.copysign(2.0 * math.pi, z.imag) * math.floor(0.5 * z.real + 0.25)
        return complex(_LOG_PI, k) - _log_sin_pi(z) - lg, dg - math.pi * _cot_pi(z) if psi else None
    acc = dacc = 0.0j
    while z.real < X0 and abs(z) < R0:
        pair = z * (z + 1.0)
        acc += cmath.log(pair)
        if psi:
            dacc += (2.0 * z + 1.0) / pair
        z += 2.0
    return _stirling(z, cmath.log(z), acc, dacc if psi else None)


def _log_gamma_psi_array(z: np.ndarray) -> tuple:
    """_log_gamma_psi elementwise on a complex array off the poles."""
    lg, dg = np.empty_like(z), np.empty_like(z)
    left = z.real < 0.0
    if left.any():
        lg[left], dg[left] = np.array([_log_gamma_psi(complex(v)) for v in z[left]]).T
    right = ~left
    z = z[right]
    acc, dacc = np.zeros_like(z), np.zeros_like(z)
    # the entries that take another recurrence step
    active = np.flatnonzero((z.real < X0) & (modulus(z) < R0))
    while active.size:
        w = z[active]
        pair = w * (w + 1.0)
        acc[active] += np.log(pair)
        dacc[active] += (2.0 * w + 1.0) / pair
        w += 2.0
        z[active] = w
        active = active[(w.real < X0) & (modulus(w) < R0)]
    lg[right], dg[right] = _stirling(z, np.log(z), acc, dacc)
    return lg, dg


def _stirling(z, log_z, acc, dacc) -> tuple:
    """(log Gamma, psi) from the Stirling series at z, less the recurrence's
    sums acc and dacc; z a complex scalar or array and log_z its log.  With
    dacc None, psi is None and not summed."""
    rz = 1.0 / z
    rzz = rz * rz
    lg = (z - 0.5) * log_z - z + _HALF_LOG_2PI + rz * _horner(_LOG_GAMMA_COEFFS, rzz) - acc
    if dacc is None:
        return lg, None
    return lg, log_z - 0.5 * rz - rzz * _horner(_PSI_COEFFS, rzz) - dacc


def log_gamma_psi(z, what: str = "Gamma argument") -> tuple:
    """(log Gamma(z), psi(z)) of a pole-guarded z, from one pass; on a numpy
    array, two complex arrays of its shape."""
    if isinstance(z, np.ndarray):
        return _log_gamma_psi_array(_guard_poles(z.astype(complex, copy=False), what))
    return _log_gamma_psi(complex(guard_pole(z, what)))


def gamma_ratio(numerator, denominator) -> complex:
    """prod Gamma(numerator) / prod Gamma(denominator), via log-Gamma passes
    that skip the digamma.  Every argument is pole-guarded, in the
    denominator too, where a pole would silently send the ratio to zero."""
    total = 0.0 + 0.0j
    for z in numerator:
        total += _log_gamma_psi(complex(guard_pole(z)), False)[0]
    for z in denominator:
        total -= _log_gamma_psi(complex(guard_pole(z)), False)[0]
    return complex(np.exp(total))
