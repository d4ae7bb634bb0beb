"""Shared exception types.

The CLI maps these onto distinct exit codes, so library code should raise
the most specific class that applies:

* bad user input / malformed configuration  -> ``ValueError`` (or a subclass)
* a request the solver refuses because the discretisation is too coarse
  (eigenbasis cutoff, evaluation grid, quadrature split) or because a flow
  blows up at its step size -> ``ResolutionError``, which carries a
  suggestion for a workable setting (``n_max``, ``steps`` or ``grid``) where
  one exists
* an integral that does not exist in the algebra -> ``NotExactDerivativeError``
"""

from __future__ import annotations


class HeatKernError(Exception):
    """Base class for package-specific failures."""


class NotExactDerivativeError(HeatKernError, ArithmeticError):
    """Raised when a differential polynomial has no polynomial antiderivative."""


class ResolutionError(HeatKernError, RuntimeError):
    """Raised when a numeric routine cannot meet its tolerance at the given cutoffs.

    Attributes
    ----------
    suggestion : dict
        Parameter values estimated to make the call succeed (for example
        ``{"n_max": 96}``).
    """

    def __init__(self, message: str, suggestion: dict | None = None):
        super().__init__(message)
        self.suggestion = dict(suggestion or {})
