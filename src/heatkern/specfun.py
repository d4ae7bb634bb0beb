"""Scalar special functions shared by the spectral evaluators.

Two functions recur throughout the numeric layer:

* ``theta``  -- lattice Gaussian sum with two Poisson-dual representations,
* ``f_q``    -- the family  int_0^1 (1 + (1 - xi^2) z / 4)^q dxi.

``theta`` picks the faster of its dual series; ``f_q`` has a closed form
at q = -3/2 and a Gauss-Legendre quadrature elsewhere.  The quadrature
(``f_q_quadrature``, node-doubling until two successive rules agree) is the
ground truth the shortcut is checked against in the test suite.

Everything here is pure and thread-safe.  The numerical settings are the
module constants below.
"""

from __future__ import annotations

import math
from functools import lru_cache

import numpy as np
from numpy.polynomial import legendre

from .errors import ResolutionError

# exp(-45) ~ 2.9e-20: exponentials below this are dropped throughout the
# package (lattice sums here, heat-trace truncation and tails in the oracle).
EXP_CUT = 45.0

# relative target of the node-doubling stop rule
_TOL = 1e-13
# Gauss-Legendre rule sizes: the first rule and the cap on doubling
_MIN_NODES = 16
_MAX_NODES = 4096
# theta switches between its two dual series here (both need ~5 terms)
_THETA_CROSSOVER = math.pi


def theta(t: float) -> float:
    """Gaussian lattice sum  sum_n exp(-pi^2 n^2 / t)  over all integers n.

    By Poisson summation the same value equals
    sqrt(t/pi) * sum_n exp(-t n^2); the faster-converging side is picked
    automatically (crossover at t = pi).  Always >= 1.
    """
    t = float(t)
    if t <= 0.0:
        raise ValueError("theta(t) requires t > 0")
    if t <= _THETA_CROSSOVER:
        n_cut = math.ceil(math.sqrt(EXP_CUT * t) / math.pi) + 1
        tail = math.fsum(
            math.exp(-math.pi * math.pi * n * n / t) for n in range(1, n_cut + 1)
        )
        return 1.0 + 2.0 * tail
    n_cut = math.ceil(math.sqrt(EXP_CUT / t)) + 1
    tail = math.fsum(math.exp(-t * n * n) for n in range(1, n_cut + 1))
    return math.sqrt(t / math.pi) * (1.0 + 2.0 * tail)


@lru_cache(maxsize=None)
def _unit_rule(n: int) -> tuple[np.ndarray, np.ndarray]:
    """Gauss-Legendre nodes/weights transplanted from [-1, 1] to [0, 1]."""
    x, w = legendre.leggauss(n)
    return 0.5 * (x + 1.0), 0.5 * w


def integrate_unit_interval(f) -> float:
    """Integrate a smooth vectorized integrand over [0, 1].

    Doubles the Gauss-Legendre node count from 16 until two successive
    rules agree to 1e-13 (relative, floored at 1), capped at 4096 nodes.
    Returns the finest estimate; raises :class:`ResolutionError` when the
    cap is reached without agreement (a kink or singularity in ``f``).
    """
    n = _MIN_NODES
    xs, ws = _unit_rule(n)
    prev = float(np.dot(ws, f(xs)))
    while n < _MAX_NODES:
        n *= 2
        xs, ws = _unit_rule(n)
        cur = float(np.dot(ws, f(xs)))
        if abs(cur - prev) <= _TOL * max(1.0, abs(cur)):
            return cur
        diff, prev = abs(cur - prev), cur
    raise ResolutionError(
        f"Gauss-Legendre quadrature on [0, 1] did not converge at {_MAX_NODES} "
        f"nodes: the last two rules differ by {diff:.3g} (tolerance {_TOL:g} "
        "relative); the integrand is not smooth enough")


def f_q_quadrature(q: float, z: float) -> float:
    """Ground-truth quadrature of  int_0^1 (1 + (1 - xi^2) z / 4)^q dxi,  z >= 0."""
    z = float(z)
    if z < 0.0:
        raise ValueError("f_q(q, z) requires z >= 0")
    if z == 0.0:
        return 1.0
    q = float(q)
    return integrate_unit_interval(lambda xi: (1.0 + (1.0 - xi * xi) * (z / 4.0)) ** q)


def f_q(q: float, z: float) -> float:
    """The family  int_0^1 (1 + (1 - xi^2) z / 4)^q dxi  on z >= 0.

    q = -3/2, the only order the determinant correction uses, has the
    rational closed form 4/(z+4); every other q goes through the quadrature
    ground truth.  For integer 0 <= q <= 15 the integrand is a polynomial of
    degree 2q, which the quadrature integrates exactly up to round-off.

    f_q(0) = 1 for every q, and f_q(z) ~ (Gamma(q+1)^2 / Gamma(2q+2)) z^q
    for large z.
    """
    z = float(z)
    if z < 0.0:
        raise ValueError("f_q(q, z) requires z >= 0")
    if float(q) == -1.5:
        return 4.0 / (z + 4.0)
    return f_q_quadrature(q, z)
