"""Heat-trace coefficient machinery for L = -(d/dx)^2 + Q on a circle.

Two independent symbolic routes to the diagonal heat-kernel coefficients
``[a_k]`` are provided and cross-validated against each other:

* :func:`taylor_coefficient` builds the full two-point Taylor table
  ``<n|a_k>`` from the operator's matrix elements in the Taylor basis, via
  the ladder recursion
  ``<n|a_k> = k/(k+n) * sum_m <n|L|m> <m|a_{k-1}>``; ``_ladder_step``
  states each nonzero ``<n|L|m>`` as a row of :func:`~heatkern.diffpoly.combine`;
* :func:`diagonal_coefficient_recursive` generates the diagonal directly with
  a third-order recursion operator ``E``:
  ``d/dx [a_k] = -(k / (2(2k-1))) E [a_{k-1}]``,
  inverting d/dx exactly in the polynomial algebra at each step.

Both produce canonical :class:`~heatkern.diffpoly.DiffPoly` objects, so the
agreement check is exact, not numeric.  Normalisation: ``[a_0] = 1``,
``[a_1] = Q``, ``[a_2] = Q^2 - Q''/3``, and the integrated invariants are
``A_k = integral tr [a_k] dx`` with ``A_0 = 2*pi*a*N``.

:func:`global_invariant` integrates the trace image of ``[a_k]``, one word
per class of words whose traces agree at every point (the trace is cyclic,
and a scalar potential commutes): 137 of 4181 words at k = 10 for a scalar
potential, 142 of 610 at k = 8 for a matrix one.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from . import diffpoly as dp
from .diffpoly import DiffPoly
from .periodic import PeriodicFunction

__all__ = [
    "refuse_beyond_memory",
    "taylor_coefficient",
    "apply_E",
    "diagonal_coefficient_recursive",
    "w_coefficient",
    "GlobalInvariant",
    "global_invariant",
]

_Q = dp.make(1, (0,))


def _word_counts(scalar: bool):
    """``len([a_k])`` for k = 0, 1, ...: the Fibonacci number F(2k-1), or
    in the commutative quotient the number of partitions of 2k into parts
    >= 2, which is p(2k) - p(2k-1) (p by Euler's pentagonal recurrence)."""
    if not scalar:
        a, b = 1, 1
        while True:
            yield a
            a, b = b, 3 * b - a
    p = [1]
    yield 1
    while True:
        for n in (len(p), len(p) + 1):
            total, j = 0, 1
            while (g := j * (3 * j - 1) // 2) <= n:
                term = p[n - g] + (p[n - g - j] if g + j <= n else 0)
                total += term if j % 2 else -term
                j += 1
            p.append(total)
        yield p[-1] - p[-2]


def refuse_beyond_memory(k: int, scalar: bool) -> None:
    """Refuse with ``ValueError``, before building anything, an order whose
    exact ``[a_k]`` is predicted to outgrow physical memory.

    The prediction is the word count times a peak cost per word above the
    measured one: 3 KiB for the Taylor table (1.8, 2.0 and 2.3 KiB at
    k = 12, 13, 14) and k KiB for the scalar recursion (9.4, 13.7 and
    15.6 KiB at k = 16, 18, 20).  Both grow with k, so the walk stops at
    the first order beyond memory, however large k is.
    """
    budget = os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES")
    for j, words in zip(range(k + 1), _word_counts(scalar)):
        need = words * (j if scalar else 3) * 1024
        if need > budget:
            raise ValueError(
                f"[a_{k}] cannot be built in memory: order {j} alone would need "
                f"about {need / 2**30:.1f} GiB of the {budget / 2**30:.1f} GiB present")


_TAYLOR_CACHE: dict[tuple[int, int], DiffPoly] = {}


def _ladder_step(k: int, n: int) -> DiffPoly:
    """``<n|a_k>`` from the cached ``<m|a_{k-1}>``.  The Taylor-basis
    ``<n|L|m>`` of ``L = -(d/dx)^2 + Q`` is ``C(n, m) Q^(n-m)`` for
    ``m <= n`` (the potential), ``-1`` at ``m = n + 2`` (the second
    derivative) and zero otherwise; each nonzero one is a row, with ``k``
    in its coefficient and ``k + n`` in the denominator."""
    if k == 0:
        return dp.IDENTITY if n == 0 else dp.ZERO
    rows = [(_TAYLOR_CACHE[k - 1, m], {(n - m,): k * math.comb(n, m)}) for m in range(n + 1)]
    rows.append((_TAYLOR_CACHE[k - 1, n + 2], {(): -k}))
    return dp.combine(rows, k + n)


def taylor_coefficient(k: int, n: int) -> DiffPoly:
    """``<n|a_k>``, homogeneous of weight ``2k + n`` and memoised;
    ``taylor_coefficient(k, 0)`` is the diagonal ``[a_k]``.  An order
    predicted not to fit in physical memory raises ``ValueError``."""
    got = _TAYLOR_CACHE.get((k, n))
    if got is not None:
        return got
    if k < 0 or n < 0:
        raise ValueError("Taylor indices must be nonnegative")
    refuse_beyond_memory(k, scalar=False)
    # bottom-up, so that no order recurses: <n|a_k> reads <m|a_{k-1}> for
    # m <= n and m = n + 2, hence <m|a_j> for m <= top = n + 2 (k - j)
    # other than m = top - 1
    for j in range(k + 1):
        top = n + 2 * (k - j)
        for m in range(top + 1):
            if m != top - 1 and (j, m) not in _TAYLOR_CACHE:
                _TAYLOR_CACHE[j, m] = _ladder_step(j, m)
    return _TAYLOR_CACHE[k, n]


# ---------------------------------------------------------------------------
# diagonal recursion
# ---------------------------------------------------------------------------


def _ad_q(p: DiffPoly) -> DiffPoly:
    return _Q * p - p * _Q


def _commutative_derivative(p: DiffPoly) -> DiffPoly:
    return dp.commutative_image(dp.differentiate(p))


def apply_E(p: DiffPoly, *, scalar: bool = False) -> DiffPoly:
    """Third-order recursion operator driving the diagonal coefficients.

    ``E p = p''' - 2 Q p' - 2 (Q p)' + [Q, p'] + ([Q, p])' + [Q, V]`` where
    ``V`` is the exact antiderivative of ``[Q, p]``.  With ``scalar=True`` the
    commutator terms vanish and the result is the commutative image (words
    sorted) of the rest, which is the appropriate form for scalar
    potentials; each derivative is then projected as it is taken, so the
    words of ``p'''`` never multiply out in noncommutative order.

    The last term needs ``[Q, p]`` to be a total derivative; that holds for
    every diagonal coefficient (the interface identity gives the primitive
    explicitly) and :class:`~heatkern.errors.NotExactDerivativeError`
    propagates when called outside that family.
    """
    d = _commutative_derivative if scalar else dp.differentiate
    d1 = d(p)
    out = d(d(d1))
    out = out + (-2) * (_Q * d1)  # Q = Q^(0) leads every sorted word
    out = out + (-2) * d(_Q * p)
    if scalar:
        return out
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
    An order predicted not to fit in physical memory raises ``ValueError``.
    """
    if k < 0:
        raise ValueError("k must be nonnegative")
    if (k, scalar) not in _RECURSIVE_CACHE:
        refuse_beyond_memory(k, scalar)
    # bottom-up, so that no order recurses
    prev = dp.IDENTITY
    for j in range(1, k + 1):
        got = _RECURSIVE_CACHE.get((j, scalar))
        if got is None:
            rhs = Fraction(-j, 2 * (2 * j - 1)) * apply_E(prev, scalar=scalar)
            got = _RECURSIVE_CACHE[j, scalar] = dp.antiderivative(rhs, commutative=scalar)
        prev = got
    return prev


def w_coefficient(k: int) -> DiffPoly:
    """Antisymmetrised interface coefficient ``W_k = 2 <1|a_k> - d/dx [a_k]``.

    Satisfies ``d/dx W_k = [Q, [a_k]]`` exactly, and its commutative image is
    zero (a scalar potential has no interface term).
    """
    return 2 * taylor_coefficient(k, 1) - dp.differentiate(taylor_coefficient(k, 0))


# ---------------------------------------------------------------------------
# integrated invariants
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class GlobalInvariant:
    """Integrated heat-trace coefficient ``A_k = integral tr [a_k]``."""

    value: float
    grid: int


def global_invariant(k: int, Q: PeriodicFunction, grid: int | None = None) -> GlobalInvariant:
    """Evaluate ``A_k`` for a band-limited potential.

    The integrand is the trace image of ``[a_k]``: its commutative image
    for a 1x1 potential, its cyclic image (``tr(AB) = tr(BA)``) otherwise.
    The image has the same trace as ``[a_k]`` at every point, not merely
    the same integral, so no integration by parts enters.

    The evaluation grid defaults to the smallest anti-aliased size for
    ``[a_k]`` at the potential's bandwidth (rounded up to an FFT-friendly
    even size; the words that set it, ``Q^k`` and ``Q^(2k-2)``, are classes
    of their own, so the image needs the same), so the circle integral --
    the zero Fourier mode times ``2*pi*a`` -- is exact up to round-off.
    Nothing is memoised here: a sweep over lambda, s or t evaluates its
    invariants once, where it runs.
    A value beyond the float64 range (a tiny radius or huge modes) raises
    ``FloatingPointError``.
    """
    poly = taylor_coefficient(k, 0)
    if grid is None:
        grid = dp.fft_grid(dp.min_grid(poly, Q.bandwidth))
    image = dp.commutative_image(poly) if Q.matrix_dim == 1 else dp.cyclic_image(poly)
    with np.errstate(over="ignore", invalid="ignore"):  # an overflow is refused below
        value = dp.evaluate(image, Q, grid).trace_integral()
    if not math.isfinite(value):
        raise FloatingPointError(f"A_{k} of this potential is beyond the float64 range")
    return GlobalInvariant(value=value, grid=grid)
