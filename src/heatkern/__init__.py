"""Spectral invariants of periodic Schrodinger operators -(d/dx)^2 + Q on a circle.

Subpackages
-----------
diffpoly    exact noncommutative differential-polynomial algebra
periodic    band-limited matrix-valued functions on the circle
heatcoeffs  heat-trace coefficient machinery (two independent recursions)
specfun     theta, boundary-layer and plateau special functions
oracle      Fourier-Galerkin eigenvalues, heat trace, zeta, determinants
perturb     second-order (weak-potential) closed forms
kdvflow     integrable hierarchy flows and conservation checks
"""

from .errors import HeatKernError, NotExactDerivativeError, ResolutionError
from .periodic import PeriodicFunction

__version__ = "0.1.0"

__all__ = [
    "HeatKernError",
    "NotExactDerivativeError",
    "PeriodicFunction",
    "ResolutionError",
    "__version__",
]
