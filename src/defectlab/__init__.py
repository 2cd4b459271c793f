"""Numerical certification toolkit for an integrable multi-species chain
with one transmitting oscillator impurity: exact operator constructions on
truncated spaces, identity checks, nested Bethe solving, and continuum
densities/amplitudes."""

from .bethe import BetheState, ConvergenceError, RootCollisionError, solve_bae
from .checks import CheckReport
from .lax import ChainSpec, LaxSpec
from .special import PoleProximityError
from .tensor import FockSpace
from .thermo import DensityProfile, KernelTable, TailBoundError

__version__ = "0.1.0"

__all__ = [
    "BetheState",
    "ChainSpec",
    "CheckReport",
    "ConvergenceError",
    "DensityProfile",
    "FockSpace",
    "KernelTable",
    "LaxSpec",
    "PoleProximityError",
    "RootCollisionError",
    "TailBoundError",
    "solve_bae",
    "__version__",
]
