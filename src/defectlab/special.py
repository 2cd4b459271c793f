"""Gamma-function ratios and digamma, with explicit pole guards.

Every scattering and transmission amplitude in this package is a ratio of
Gamma functions of complex arguments.  Evaluating such a ratio blindly near
a pole of the numerator produces garbage without warning, so all call sites
go through :func:`gamma_ratio`, which refuses arguments inside a small disk
around the pole set {0, -1, -2, ...}.
"""

from __future__ import annotations

import numpy as np
from scipy.special import digamma as _digamma
from scipy.special import loggamma as _loggamma

DEFAULT_POLE_GUARD = 1e-8


class PoleProximityError(ValueError):
    """An argument sits within the guard radius of a Gamma pole or an
    explicit prefactor zero."""


def pole_distance(z) -> float:
    """Distance from z to the nearest non-positive integer."""
    z = complex(z)
    n0 = int(max(0, round(-z.real)))
    candidates = [n for n in (n0 - 1, n0, n0 + 1) if n >= 0]
    return min(abs(z + n) for n in candidates)


def guard_pole(z, what: str = "Gamma argument"):
    d = pole_distance(z)
    if d <= DEFAULT_POLE_GUARD:
        raise PoleProximityError(
            f"{what} {complex(z):.6g} lies within {DEFAULT_POLE_GUARD:g} of a pole "
            f"(distance {d:.3e})"
        )
    return z


def guard_nonzero(z, what: str = "prefactor"):
    if abs(complex(z)) <= DEFAULT_POLE_GUARD:
        raise PoleProximityError(
            f"{what} vanishes (|{complex(z):.6g}| <= {DEFAULT_POLE_GUARD:g})"
        )
    return z


def log_gamma(z):
    return _loggamma(complex(z))


def gamma_ratio(numerator, denominator) -> complex:
    """prod Gamma(numerator) / prod Gamma(denominator), via log-Gamma.

    Parameters
    ----------
    numerator, denominator : iterable of complex
        Gamma arguments.  Each one is pole-guarded; a denominator argument at
        a pole would silently send the ratio to zero, which callers here never
        want, so it is rejected just the same.
    """
    total = 0.0 + 0.0j
    for z in numerator:
        total += _loggamma(guard_pole(z))
    for z in denominator:
        total -= _loggamma(guard_pole(z))
    return complex(np.exp(total))


def psi(z):
    """Digamma function for complex argument, pole-guarded."""
    return complex(_digamma(guard_pole(z, what="digamma argument")))
