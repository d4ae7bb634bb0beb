"""Exact differential-polynomial algebra in one matrix potential.

A *word* ``(d1, ..., dm)`` stands for the noncommutative product
``Q^(d1) Q^(d2) ... Q^(dm)`` of derivatives of a single matrix-valued
potential ``Q``; the empty word is the identity.  A :class:`DiffPoly` is a
finite rational linear combination of words, kept in a canonical form
(zero coefficients dropped, terms ordered by word length then by the
derivative-order sequence).  All coefficient arithmetic is exact
(`fractions.Fraction`), so equality of polynomials is decidable.

The grading used throughout: letter ``d`` has weight ``d + 2``, the weight
of a word is the sum over its letters and the empty word has weight 0.
Differentiation raises the weight of every term by exactly 1 and preserves
word length.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Mapping

import numpy as np

from .errors import NotExactDerivativeError, ResolutionError
from .periodic import PeriodicFunction

Word = tuple[int, ...]

__all__ = [
    "Word",
    "DiffMonomial",
    "DiffPoly",
    "make",
    "differentiate",
    "antiderivative",
    "commutative_image",
    "evaluate",
    "min_grid",
    "fft_grid",
]


@dataclass(frozen=True)
class DiffMonomial:
    """A single term: rational coefficient times a derivative word."""

    coeff: Fraction
    word: Word


def _as_fraction(c) -> Fraction:
    if isinstance(c, (int, Fraction)):
        return Fraction(c)
    raise ValueError(f"coefficient must be exact (int/Fraction), got {type(c).__name__}")


def _add_term(terms: dict[Word, Fraction], w: Word, c: Fraction) -> None:
    """``terms[w] += c``, dropping ``w`` when it cancels; a word that
    survives keeps its place in the dict."""
    acc = terms.get(w, 0) + c
    if acc:
        terms[w] = acc
    else:
        terms.pop(w, None)


def _poly(terms: dict[Word, Fraction]) -> "DiffPoly":
    """Wrap an already canonical term dict without copying it."""
    p = DiffPoly.__new__(DiffPoly)
    p._terms = terms
    return p


def _raised(w: Word):
    """The words of ``D(w)`` by the Leibniz rule, each with coefficient 1."""
    for i in range(len(w)):
        yield w[:i] + (w[i] + 1,) + w[i + 1:]


class DiffPoly:
    """Canonical rational linear combination of derivative words."""

    __slots__ = ("_terms",)

    def __init__(self, terms: Mapping[Word, Fraction] | None = None):
        self._terms: dict[Word, Fraction] = {}
        for word, coeff in (terms or {}).items():
            word = tuple(int(d) for d in word)
            if any(d < 0 for d in word):
                raise ValueError(f"negative derivative order in word {word}")
            _add_term(self._terms, word, _as_fraction(coeff))

    # -- canonical views ------------------------------------------------

    def terms(self) -> tuple[DiffMonomial, ...]:
        """Terms in canonical order (length, then sequence)."""
        return tuple(
            DiffMonomial(self._terms[w], w)
            for w in sorted(self._terms, key=lambda w: (len(w), w))
        )

    def is_zero(self) -> bool:
        return not self._terms

    def __len__(self) -> int:
        return len(self._terms)

    def __eq__(self, other) -> bool:
        if not isinstance(other, DiffPoly):
            return NotImplemented
        return self._terms == other._terms

    def __hash__(self):
        return hash(frozenset(self._terms.items()))

    def __repr__(self) -> str:
        if not self._terms:
            return "DiffPoly(0)"
        bits = []
        for mono in self.terms():
            body = "*".join(f"Q^({d})" for d in mono.word) or "1"
            bits.append(f"{mono.coeff}*{body}")
        return "DiffPoly(" + " + ".join(bits) + ")"

    # -- arithmetic --------------------------------------------------------

    def __add__(self, other: "DiffPoly") -> "DiffPoly":
        if not isinstance(other, DiffPoly):
            return NotImplemented
        out = dict(self._terms)
        for w, c in other._terms.items():
            _add_term(out, w, c)
        return _poly(out)

    def __neg__(self) -> "DiffPoly":
        return _poly({w: -c for w, c in self._terms.items()})

    def __sub__(self, other: "DiffPoly") -> "DiffPoly":
        if not isinstance(other, DiffPoly):
            return NotImplemented
        return self + (-other)

    def __mul__(self, other):
        if isinstance(other, DiffPoly):
            out: dict[Word, Fraction] = {}
            for w1, c1 in self._terms.items():
                for w2, c2 in other._terms.items():
                    _add_term(out, w1 + w2, c1 * c2)
            return _poly(out)
        c = _as_fraction(other)
        return _poly({w: c0 * c for w, c0 in self._terms.items()} if c else {})

    def __rmul__(self, other):
        # scalars commute with everything; word concatenation is handled in __mul__
        if isinstance(other, DiffPoly):
            return NotImplemented
        return self.__mul__(other)


ZERO = DiffPoly()
IDENTITY = DiffPoly({(): Fraction(1)})


def make(coeff, word: Iterable[int]) -> DiffPoly:
    """Single-term polynomial ``coeff * Q^(d1)...Q^(dm)``."""
    return DiffPoly({tuple(word): coeff})


def differentiate(p: DiffPoly) -> DiffPoly:
    """Total space derivative (Leibniz over each word position)."""
    out: dict[Word, Fraction] = {}
    for w, c in p._terms.items():
        for dw in _raised(w):
            _add_term(out, dw, c)
    return _poly(out)


def commutative_image(p: DiffPoly) -> DiffPoly:
    """Project onto the scalar (commutative) quotient by sorting each word.

    Valid for evaluation against scalar potentials, where factor order is
    irrelevant; the image of a Hermitian-symmetric polynomial keeps the same
    scalar values.
    """
    out: dict[Word, Fraction] = {}
    for w, c in p._terms.items():
        _add_term(out, tuple(sorted(w)), c)
    return _poly(out)


# ---------------------------------------------------------------------------
# antiderivative
# ---------------------------------------------------------------------------


def antiderivative(p: DiffPoly, *, commutative: bool = False) -> DiffPoly:
    """Exact inverse of :func:`differentiate` on its image.

    Returns the unique ``q`` with no constant term and
    ``differentiate(q) == p`` (both taken in the commutative quotient when
    ``commutative``), by peeling leading terms.  Under lexicographic order
    the leading word of ``D(w)`` is ``w`` with its first letter raised, with
    coefficient 1.  In the commutative quotient, comparing words largest
    letter first, it is ``w`` with its largest letter raised, with that
    letter's multiplicity as coefficient.  Both maps are injective and
    order-preserving, so the leading word of what remains of ``p`` names
    the next word of ``q``.  Raises :class:`NotExactDerivativeError` when
    that leading word is no such image, for example for ``p = Q``, any pure
    power of ``Q`` or a constant.
    """
    if commutative:
        p = commutative_image(p)
    rest = dict(p._terms)
    result: dict[Word, Fraction] = {}
    while rest:
        if commutative:
            u = max(rest, key=lambda w: w[::-1])
            top = u[-1] if u else 0
            if top == 0 or u[-2:-1] == (top,):
                raise NotExactDerivativeError(f"{u} is not the leading word of a derivative")
            w = u[:-1] + (top - 1,)
            c = rest[u] / w.count(top - 1)
        else:
            u = max(rest)
            if not u or u[0] == 0:
                raise NotExactDerivativeError(f"{u} is not the leading word of a derivative")
            w = (u[0] - 1,) + u[1:]
            c = rest[u]
        result[w] = c
        for dw in _raised(w):
            _add_term(rest, tuple(sorted(dw)) if commutative else dw, -c)
    return _poly(result)


# ---------------------------------------------------------------------------
# numeric evaluation against a band-limited potential
# ---------------------------------------------------------------------------


def min_grid(p: DiffPoly, bandwidth: int) -> int:
    """Smallest accepted uniform grid for evaluating ``p`` on a potential
    of the given Fourier bandwidth.

    Two constraints are combined: spectral differentiation headroom
    ``4 * bandwidth * (max derivative order + 1)`` and exact mode recovery of
    the product, which has bandwidth ``(word length) * bandwidth`` and needs
    ``2 * that + 1`` samples.
    """
    need = 4
    for w in p._terms:
        if not w:
            continue
        need = max(need, 4 * bandwidth * (max(w) + 1))
        need = max(need, 2 * len(w) * bandwidth + 1)
    return need


def fft_grid(need: int) -> int:
    """FFT-friendly grid size: the smallest power of two >= ``need``, and
    at least 8."""
    return 1 << max(3, (need - 1).bit_length())


def evaluate(p: DiffPoly, Q: PeriodicFunction, grid: int) -> PeriodicFunction:
    """Evaluate ``p`` at a band-limited potential on a uniform grid.

    Exact for trigonometric-polynomial ``Q`` up to round-off as long as the
    grid clears :func:`min_grid`; otherwise raises :class:`ResolutionError`
    with that grid as its suggestion instead of silently folding spectral
    content.
    """
    need = min_grid(p, Q.bandwidth)
    if grid < need:
        raise ResolutionError(
            f"grid {grid} too coarse for this polynomial at bandwidth "
            f"{Q.bandwidth}; need at least {need}", suggestion={"grid": need})
    n = Q.matrix_dim
    eye = np.broadcast_to(np.eye(n, dtype=complex), (grid, n, n))
    samples: dict[int, np.ndarray] = {}
    acc = np.zeros((grid, n, n), dtype=complex)
    for word, coeff in p._terms.items():
        prod = eye
        for d in word:
            if d not in samples:
                samples[d] = Q.derivative(d).sample(grid)
            prod = prod @ samples[d]
        acc = acc + float(coeff) * prod
    return PeriodicFunction.from_samples(acc, Q.a)
