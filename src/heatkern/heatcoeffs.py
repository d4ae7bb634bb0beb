"""Heat-trace coefficient machinery for L = -(d/dx)^2 + Q on a circle.

Two independent symbolic routes to the diagonal heat-kernel coefficients
``[a_k]`` are provided and cross-validated against each other:

* :func:`taylor_coefficient` builds the full two-point Taylor table
  ``<n|a_k>`` from the operator's matrix elements in the Taylor basis, via
  the ladder recursion
  ``<n|a_k> = k/(k+n) * sum_m <n|L|m> <m|a_{k-1}>``;
* :func:`diagonal_coefficient_recursive` generates the diagonal directly with
  a third-order recursion operator ``E``:
  ``d/dx [a_k] = -(k / (2(2k-1))) E [a_{k-1}]``,
  inverting d/dx exactly in the polynomial algebra at each step.

Both produce canonical :class:`~heatkern.diffpoly.DiffPoly` objects, so the
agreement check is exact, not numeric.  Normalisation: ``[a_0] = 1``,
``[a_1] = Q``, ``[a_2] = Q^2 - Q''/3``, and the integrated invariants are
``A_k = integral tr [a_k] dx`` with ``A_0 = 2*pi*a*N``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from . import diffpoly as dp
from .diffpoly import DiffPoly
from .periodic import PeriodicFunction

__all__ = [
    "matrix_element",
    "taylor_coefficient",
    "apply_E",
    "diagonal_coefficient_recursive",
    "w_coefficient",
    "GlobalInvariant",
    "global_invariant",
]

_Q = dp.make(1, (0,))
_IDENT = dp.IDENTITY


def matrix_element(m: int, n: int) -> DiffPoly:
    """Taylor-basis matrix element ``<m|L|n>`` of ``L = -(d/dx)^2 + Q``.

    Nonzero only for ``n == m + 2`` (the constant ``-1`` from the second
    derivative) and ``n <= m`` (``binomial(m, n) Q^(m-n)`` from the
    potential); in particular ``<m|L|m+1> = 0``.
    """
    if m < 0 or n < 0:
        raise ValueError("Taylor indices must be nonnegative")
    if n == m + 2:
        return dp.make(-1, ())
    if n <= m:
        return dp.make(math.comb(m, n), (m - n,))
    return dp.ZERO


_TAYLOR_CACHE: dict[tuple[int, int], DiffPoly] = {}


def _taylor_entry(k: int, n: int) -> DiffPoly:
    got = _TAYLOR_CACHE.get((k, n))
    if got is not None:
        return got
    if k < 0 or n < 0:
        raise ValueError("Taylor indices must be nonnegative")
    if k == 0:
        val = _IDENT if n == 0 else dp.ZERO
    else:
        acc = dp.ZERO
        # <n|L|m> vanishes unless m <= n or m == n + 2
        for m in list(range(n + 1)) + [n + 2]:
            prev = _taylor_entry(k - 1, m)
            if prev.is_zero():
                continue
            acc = acc + matrix_element(n, m) * prev
        val = Fraction(k, k + n) * acc
    _TAYLOR_CACHE[(k, n)] = val
    return val


def taylor_coefficient(k: int, n: int) -> DiffPoly:
    """``<n|a_k>``, homogeneous of weight ``2k + n`` and memoised;
    ``taylor_coefficient(k, 0)`` is the diagonal ``[a_k]``."""
    return _taylor_entry(k, n)


# ---------------------------------------------------------------------------
# diagonal recursion
# ---------------------------------------------------------------------------


def _ad_q(p: DiffPoly) -> DiffPoly:
    return _Q * p - p * _Q


def apply_E(p: DiffPoly, *, scalar: bool = False) -> DiffPoly:
    """Third-order recursion operator driving the diagonal coefficients.

    ``E p = p''' - 2 Q p' - 2 (Q p)' + [Q, p'] + ([Q, p])' + [Q, V]`` where
    ``V`` is the exact antiderivative of ``[Q, p]``.  With ``scalar=True`` the
    commutator terms vanish and the result is the commutative image (words
    sorted) of the rest, which is the appropriate form for scalar
    potentials.

    The last term needs ``[Q, p]`` to be a total derivative; that holds for
    every diagonal coefficient (the interface identity gives the primitive
    explicitly) and :class:`~heatkern.errors.NotExactDerivativeError`
    propagates when called outside that family.
    """
    d1 = dp.differentiate(p)
    out = dp.differentiate(dp.differentiate(d1))
    out = out + (-2) * (_Q * d1)
    out = out + (-2) * dp.differentiate(_Q * p)
    if scalar:
        return dp.commutative_image(out)
    bracket = _ad_q(p)
    out = out + _ad_q(d1)
    out = out + dp.differentiate(bracket)
    if not bracket.is_zero():
        out = out + _ad_q(dp.antiderivative(bracket))
    return out


_RECURSIVE_CACHE: dict[tuple[int, bool], DiffPoly] = {}


def diagonal_coefficient_recursive(k: int, *, scalar: bool = False) -> DiffPoly:
    """Diagonal coefficient ``[a_k]`` from the third-order recursion.

    Each step integrates ``-(k / (2(2k-1))) E [a_{k-1}]`` exactly.  With
    ``scalar=True`` the whole chain runs in the commutative quotient; the
    result then matches ``commutative_image(taylor_coefficient(k, 0))``.
    """
    if k < 0:
        raise ValueError("k must be nonnegative")
    if k == 0:
        return _IDENT
    key = (k, scalar)
    got = _RECURSIVE_CACHE.get(key)
    if got is not None:
        return got
    prev = diagonal_coefficient_recursive(k - 1, scalar=scalar)
    rhs = Fraction(-k, 2 * (2 * k - 1)) * apply_E(prev, scalar=scalar)
    val = dp.antiderivative(rhs, commutative=scalar)
    _RECURSIVE_CACHE[key] = val
    return val


def w_coefficient(k: int) -> DiffPoly:
    """Antisymmetrised interface coefficient ``W_k = 2 <1|a_k> - d/dx [a_k]``.

    Satisfies ``d/dx W_k = [Q, [a_k]]`` exactly, and its commutative image is
    zero (a scalar potential has no interface term).
    """
    return 2 * _taylor_entry(k, 1) - dp.differentiate(_taylor_entry(k, 0))


# ---------------------------------------------------------------------------
# integrated invariants
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class GlobalInvariant:
    """Integrated heat-trace coefficient ``A_k = integral tr [a_k]``."""

    k: int
    value: float
    grid: int


_INVARIANT_CACHE: dict[tuple, GlobalInvariant] = {}
_INVARIANT_CACHE_SIZE = 256


def global_invariant(k: int, Q: PeriodicFunction, grid: int | None = None) -> GlobalInvariant:
    """Evaluate ``A_k`` for a band-limited potential.

    The evaluation grid defaults to the smallest anti-aliased size for
    ``[a_k]`` at the potential's bandwidth (rounded up to an FFT-friendly
    even size), so the circle integral -- the zero Fourier mode times
    ``2*pi*a`` -- is exact up to round-off.

    Results are memoised on ``(k, grid)`` and the potential's exact content
    (radius and mode bytes, never its ``id``), so sweeps over lambda or t
    evaluate each ``A_k`` once; it holds the 256 newest values.  A value
    beyond the float64 range (a tiny radius or huge modes) raises
    ``FloatingPointError``.
    """
    key = (k, grid) + Q.content_key()
    got = _INVARIANT_CACHE.get(key)
    if got is not None:
        return got
    poly = taylor_coefficient(k, 0)
    if grid is None:
        grid = dp.fft_grid(dp.min_grid(poly, Q.bandwidth))
    with np.errstate(over="ignore", invalid="ignore"):  # an overflow is refused below
        value = dp.evaluate(poly, Q, grid).trace_integral()
    if not math.isfinite(value):
        raise FloatingPointError(f"A_{k} of this potential is beyond the float64 range")
    got = GlobalInvariant(k=k, value=value, grid=grid)
    if len(_INVARIANT_CACHE) >= _INVARIANT_CACHE_SIZE:
        del _INVARIANT_CACHE[next(iter(_INVARIANT_CACHE))]
    _INVARIANT_CACHE[key] = got
    return got
