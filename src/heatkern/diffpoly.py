"""Exact differential-polynomial algebra in one matrix potential.

A *word* ``(d1, ..., dm)`` stands for the noncommutative product
``Q^(d1) Q^(d2) ... Q^(dm)`` of derivatives of a single matrix-valued
potential ``Q``; the empty word is the identity.  A :class:`DiffPoly` is a
finite rational linear combination of words, stored as integer numerators
over one positive common denominator in lowest terms (zero coefficients
dropped; :meth:`DiffPoly.terms` lists terms by word length then by the
derivative-order sequence).  All coefficient arithmetic is exact integer
arithmetic, so equality of polynomials is decidable; ``Fraction`` appears
only where coefficients enter or leave the algebra.  No other module reads
that storage: every sum is one :func:`combine` (``+``, ``-``, products, and
the Taylor ladder of :mod:`~heatkern.heatcoeffs` with its ``<n|L|m>``).

The grading used throughout: letter ``d`` has weight ``d + 2``, the weight
of a word is the sum over its letters and the empty word has weight 0.
Differentiation raises the weight of every term by exactly 1 and preserves
word length.
"""

from __future__ import annotations

import heapq
import math
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
    "combine",
    "differentiate",
    "antiderivative",
    "commutative_image",
    "cyclic_image",
    "evaluate",
    "min_grid",
    "fft_grid",
]


@dataclass(frozen=True)
class DiffMonomial:
    """A single term: rational coefficient times a derivative word."""

    coeff: Fraction
    word: Word


def _exact(c):
    if isinstance(c, (int, Fraction)):
        return c
    raise ValueError(f"coefficient must be exact (int/Fraction), got {type(c).__name__}")


def _lowest(num: dict[Word, int], den: int) -> tuple[dict[Word, int], int]:
    """``num / den`` (``den > 0``, no zero numerators) in lowest terms."""
    g = math.gcd(den, *num.values())
    if g == 1:
        return num, den
    return {w: c // g for w, c in num.items()}, den // g


def _poly(num: dict[Word, int], den: int) -> "DiffPoly":
    """Wrap numerators over ``den > 0`` with no zero entry, reducing them
    to lowest terms; the dict is kept (not copied) when already reduced."""
    p = DiffPoly.__new__(DiffPoly)
    p._num, p._den = _lowest(num, den)
    return p


def _sum_words(pairs: Iterable[tuple[Word, int]], den: int) -> "DiffPoly":
    """``sum c w / den`` over the ``(w, c)`` pairs, any integers ``c``: the
    one loop of the word maps.  A word that survives keeps the place where
    it first entered."""
    num: dict[Word, int] = {}
    for w, c in pairs:
        acc = num.get(w, 0) + c
        if acc:
            num[w] = acc
        else:
            num.pop(w, None)
    return _poly(num, den)


def _raised(w: Word):
    """The words of ``D(w)`` by the Leibniz rule, each with coefficient 1."""
    for i in range(len(w)):
        yield w[:i] + (w[i] + 1,) + w[i + 1:]


class DiffPoly:
    """Canonical rational linear combination of derivative words.

    The coefficient of word ``w`` is ``_num[w] / _den``: ``_den > 0``, the
    gcd of ``_den`` and every numerator is 1, and zero is ``({}, 1)``, so
    equal polynomials have equal storage whatever route built them.
    """

    __slots__ = ("_num", "_den")

    def __init__(self, terms: Mapping[Word, Fraction] | None = None):
        items = []
        for word, coeff in (terms or {}).items():
            word = tuple(int(d) for d in word)
            if any(d < 0 for d in word):
                raise ValueError(f"negative derivative order in word {word}")
            items.append((word, _exact(coeff)))
        den = math.lcm(*(c.denominator for _, c in items))
        p = _sum_words(((w, c.numerator * (den // c.denominator)) for w, c in items), den)
        self._num, self._den = p._num, p._den

    # -- canonical views ------------------------------------------------

    def terms(self) -> tuple[DiffMonomial, ...]:
        """Terms in canonical order (length, then sequence)."""
        return tuple(
            DiffMonomial(Fraction(self._num[w], self._den), w)
            for w in sorted(self._num, key=lambda w: (len(w), w))
        )

    def is_zero(self) -> bool:
        return not self._num

    def __len__(self) -> int:
        return len(self._num)

    def __eq__(self, other) -> bool:
        if not isinstance(other, DiffPoly):
            return NotImplemented
        return self._den == other._den and self._num == other._num

    def __hash__(self):
        return hash((self._den, frozenset(self._num.items())))

    def __repr__(self) -> str:
        if not self._num:
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
        return combine([(self, {(): 1}), (other, {(): 1})])

    def __neg__(self) -> "DiffPoly":
        return combine([(self, {(): -1})])

    def __sub__(self, other: "DiffPoly") -> "DiffPoly":
        if not isinstance(other, DiffPoly):
            return NotImplemented
        return combine([(self, {(): 1}), (other, {(): -1})])

    def __mul__(self, other):
        if isinstance(other, DiffPoly):
            # each word of self prefixes all of other
            return combine([(other, self._num)], self._den)
        c = _exact(other)
        if not c:
            return ZERO
        return combine([(self, {(): c.numerator})], c.denominator)

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


def combine(rows: list[tuple[DiffPoly, Mapping[Word, int]]], den: int = 1) -> DiffPoly:
    """``sum c Q^(head) p / den`` over the rows ``(p, heads)`` and the
    entries ``head: c`` of ``heads``: nonzero integers ``c``, word prefixes
    ``head`` and ``den > 0``.  The numerators are summed once, as integers
    over the lcm of the ``p`` denominators, row after row and word after
    word; an empty sum takes the next row whole, by comprehension."""
    lcm = math.lcm(*(p._den for p, _ in rows))
    num: dict[Word, int] = {}
    for p, heads in rows:
        scale = lcm // p._den
        for head, c in heads.items():
            f = c * scale
            if not num:  # the row seeds the sum; an empty head costs no concatenation
                terms = p._num.items()
                num = ({head + w: f * cw for w, cw in terms} if head
                       else {w: f * cw for w, cw in terms})
                continue
            for w, cw in p._num.items():
                w = head + w
                acc = num.get(w, 0) + f * cw
                if acc:
                    num[w] = acc
                else:
                    del num[w]
    return _poly(num, lcm * den)


def differentiate(p: DiffPoly) -> DiffPoly:
    """Total space derivative (Leibniz over each word position)."""
    return _sum_words(((dw, c) for w, c in p._num.items() for dw in _raised(w)), p._den)


def commutative_image(p: DiffPoly) -> DiffPoly:
    """Project onto the scalar (commutative) quotient by sorting each word.

    Valid for evaluation against scalar potentials, where factor order is
    irrelevant; the image of a Hermitian-symmetric polynomial keeps the same
    scalar values.
    """
    return _sum_words(zip(map(tuple, map(sorted, p._num)), p._num.values()), p._den)


def cyclic_image(p: DiffPoly) -> DiffPoly:
    """Project onto cyclic words (necklaces): each word becomes its
    lexicographically least rotation.

    Since ``tr(AB) = tr(BA)``, the image has the same trace as ``p`` at every
    point against any matrix potential, though not the same matrix values.
    """
    # the least rotation of an n-letter word w is the least n-letter window of w + w
    return _sum_words(((min([ww[i:i + n] for i in range(n)], default=w), c)
                       for w, c in p._num.items() for n, ww in [(len(w), w + w)]), p._den)


# ---------------------------------------------------------------------------
# antiderivative
# ---------------------------------------------------------------------------


def _peel_key(w: Word, commutative: bool) -> tuple[int, ...]:
    """Min-heap key that pops the leading word first: the letters (largest
    first in the commutative quotient) negated, and closed by a 1 above
    every negated letter, so a word pops before its prefixes."""
    return tuple(-d for d in (w[::-1] if commutative else w)) + (1,)


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

    The leading words come off a lazy max-heap: every word that enters or
    stays in the remainder is pushed, and a popped word that has since
    cancelled is skipped.  The division by a multiplicity stays exact on
    the integer numerators: when it does not divide, the remainder, the
    result and their common denominator are scaled by the missing factor.
    """
    if commutative:
        p = commutative_image(p)
    rest = dict(p._num)
    den = p._den
    result: dict[Word, int] = {}
    heap = [(_peel_key(u, commutative), u) for u in rest]
    heapq.heapify(heap)
    while rest:
        u = heapq.heappop(heap)[1]
        if u not in rest:
            continue
        if commutative:
            top = u[-1] if u else 0
            if top == 0 or u[-2:-1] == (top,):
                raise NotExactDerivativeError(f"{u} is not the leading word of a derivative")
            w = u[:-1] + (top - 1,)
            mult = w.count(top - 1)
            if rest[u] % mult:
                scale = mult // math.gcd(rest[u], mult)
                rest = {v: c * scale for v, c in rest.items()}
                result = {v: c * scale for v, c in result.items()}
                den *= scale
            c = rest[u] // mult
        else:
            if not u or u[0] == 0:
                raise NotExactDerivativeError(f"{u} is not the leading word of a derivative")
            w = (u[0] - 1,) + u[1:]
            c = rest[u]
        result[w] = c
        for dw in _raised(w):
            if commutative:
                dw = tuple(sorted(dw))
            acc = rest.get(dw, 0) - c
            if acc:
                rest[dw] = acc
                heapq.heappush(heap, (_peel_key(dw, commutative), dw))
            else:
                del rest[dw]
    return _poly(result, den)


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
    for w in p._num:
        if not w:
            continue
        need = max(need, 4 * bandwidth * (max(w) + 1))
        need = max(need, 2 * len(w) * bandwidth + 1)
    return need


def fft_grid(need: int) -> int:
    """FFT-friendly grid size: the smallest power of two >= ``need``, and
    at least 8."""
    return 1 << max(3, (need - 1).bit_length())


def _horner(node: dict, samples: dict[int, np.ndarray], eye: np.ndarray) -> np.ndarray:
    """``S(node) = c I + sum_d Q^(d) S(child_d)`` over a word trie whose
    node maps each next letter to its child and ``None`` to its coefficient;
    a child that is a bare leaf costs a scaling instead of a product.
    (Module level: a nested function that calls itself is a reference cycle
    that keeps every sample alive until the cyclic collector runs.)"""
    acc = node.get(None, 0.0) * eye
    for d, child in node.items():
        if d is not None:
            acc += (child[None] * samples[d] if child.keys() == {None}
                    else samples[d] @ _horner(child, samples, eye))
    return acc


def evaluate(p: DiffPoly, Q: PeriodicFunction, grid: int) -> PeriodicFunction:
    """Evaluate ``p`` at a band-limited potential on a uniform grid.

    Exact for trigonometric-polynomial ``Q`` up to round-off as long as the
    grid clears :func:`min_grid`; otherwise raises :class:`ResolutionError`
    with that grid as its suggestion instead of silently folding spectral
    content.  Words sharing a prefix share its products (Horner's rule over
    the trie of words), one batched matrix product per inner trie edge.
    The trie takes the words in lexicographic order, whatever order ``p``'s
    terms were made in; it rounds best (the cosine invariants stay within
    5e-15 up to k = 10, in the trace images' own word order they do not).
    """
    need = min_grid(p, Q.bandwidth)
    if grid < need:
        raise ResolutionError(
            f"grid {grid} too coarse for this polynomial at bandwidth "
            f"{Q.bandwidth}; need at least {need}", suggestion={"grid": need})
    n = Q.matrix_dim
    trie: dict = {}
    for word, coeff in sorted(p._num.items()):
        node = trie
        for d in word:
            node = node.setdefault(d, {})
        node[None] = coeff / p._den  # int true division rounds correctly
    samples = {d: Q.derivative(d).sample(grid) for d in set().union(*p._num)}
    eye = np.broadcast_to(np.eye(n, dtype=complex), (grid, n, n))
    return PeriodicFunction.from_samples(_horner(trie, samples, eye), Q.a)
