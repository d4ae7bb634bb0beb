"""Exact-arithmetic checks for the noncommutative differential-polynomial layer."""

import gc
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from heatkern import heatcoeffs
from heatkern.diffpoly import (
    DiffPoly,
    IDENTITY,
    ZERO,
    antiderivative,
    commutative_image,
    cyclic_image,
    differentiate,
    evaluate,
    make,
    min_grid,
)
from heatkern.errors import NotExactDerivativeError, ResolutionError
from heatkern.periodic import PeriodicFunction


# -- strategies ----------------------------------------------------------------

words = st.lists(st.integers(min_value=0, max_value=4), min_size=0, max_size=4).map(tuple)
coeffs = st.fractions(min_value=-50, max_value=50, max_denominator=12)
polys = st.dictionaries(words, coeffs, min_size=0, max_size=6).map(DiffPoly)


def coefficient(p, word):
    """Coefficient of ``word`` in ``p``, zero when the word is absent."""
    return {m.word: m.coeff for m in p.terms()}.get(tuple(word), Fraction(0))


def weights(p):
    """The weights of the words of ``p``; letter ``d`` weighs ``d + 2``."""
    return {sum(d + 2 for d in m.word) for m in p.terms()}


# -- algebra basics --------------------------------------------------------------


def test_zero_and_identity():
    assert ZERO.is_zero()
    assert len(IDENTITY) == 1
    assert coefficient(IDENTITY, ()) == 1
    assert IDENTITY * IDENTITY == IDENTITY


def test_canonicalization_drops_zeros():
    p = make(1, (0,)) + make(-1, (0,))
    assert p.is_zero()
    assert p == ZERO
    assert len(p) == 0


def test_product_concatenates_words():
    p = make(Fraction(1, 2), (0,))
    q = make(3, (2, 1))
    assert p * q == make(Fraction(3, 2), (0, 2, 1))
    # noncommutative: reversed order is a different word
    assert q * p == make(Fraction(3, 2), (2, 1, 0))
    assert p * q != q * p


@given(polys, polys, polys)
@settings(max_examples=60, deadline=None)
def test_ring_axioms(p, q, r):
    assert (p + q) + r == p + (q + r)
    assert p + q == q + p
    assert p * (q * r) == (p * q) * r
    assert p * (q + r) == p * q + p * r
    assert p - p == ZERO


@given(polys, polys)
@settings(max_examples=60, deadline=None)
def test_leibniz_rule(p, q):
    assert differentiate(p * q) == differentiate(p) * q + p * differentiate(q)


@given(polys)
@settings(max_examples=60, deadline=None)
def test_commutative_image_is_idempotent_ring_map(p):
    cp = commutative_image(p)
    assert commutative_image(cp) == cp
    # image words are sorted
    for mono in cp.terms():
        assert tuple(sorted(mono.word)) == mono.word


@given(polys, polys)
@settings(max_examples=60, deadline=None)
def test_cyclic_image_is_idempotent_and_identifies_rotations(p, q):
    cp = cyclic_image(p)
    assert cyclic_image(cp) == cp
    # tr(pq) = tr(qp): every rotation of a word lands on one necklace
    assert cyclic_image(p * q) == cyclic_image(q * p)
    for mono in cp.terms():
        w = mono.word
        assert all(w <= w[i:] + w[:i] for i in range(len(w)))


def test_weight_grading():
    # letter d contributes d + 2, so Q''Q has weight 4 + 2 = 6
    p = make(1, (2, 0))
    assert weights(p) == {6}
    assert weights(differentiate(p)) == {7}
    q = p + make(1, (0,))
    assert weights(q) == {2, 6}


# -- antiderivative ----------------------------------------------------------------


@given(polys)
@settings(max_examples=80, deadline=None)
def test_antiderivative_inverts_differentiate(p):
    dp = differentiate(p)
    q = antiderivative(dp)
    assert differentiate(q) == dp
    # the primitive is unique up to constants, and antiderivative never
    # returns a constant term, so stripping p's constant gives q exactly
    stripped = p - make(coefficient(p, ()), ())
    assert q == stripped


@given(polys)
@settings(max_examples=60, deadline=None)
def test_antiderivative_commutative_route(p):
    dp = commutative_image(differentiate(p))
    q = antiderivative(dp, commutative=True)
    assert commutative_image(differentiate(q)) == dp


@given(polys, st.booleans())
@settings(max_examples=200, deadline=None)
def test_antiderivative_exact_or_refused(p, commutative):
    # arbitrary input, mostly not a derivative: either a refusal or a
    # primitive without constant term that differentiates back to p
    if commutative:
        p = commutative_image(p)
    try:
        q = antiderivative(p, commutative=commutative)
    except NotExactDerivativeError:
        return
    dq = differentiate(q)
    assert (commutative_image(dq) if commutative else dq) == p
    assert coefficient(q, ()) == 0


def test_antiderivative_refuses_non_derivatives():
    with pytest.raises(NotExactDerivativeError):
        antiderivative(make(1, (0,)))  # Q has no polynomial primitive
    with pytest.raises(NotExactDerivativeError):
        antiderivative(IDENTITY)  # constants do not integrate to periodic words
    with pytest.raises(NotExactDerivativeError):
        antiderivative(make(1, (0, 0)))  # Q*Q: the primitive of a square is not polynomial
    for word in ((1, 1), (0, 0, 0)):  # Q'^2 and Q^3 in the commutative quotient
        with pytest.raises(NotExactDerivativeError):
            antiderivative(make(1, word), commutative=True)


def test_antiderivative_known_case():
    # d/dx (Q^2) = Q'Q + QQ'
    p = make(1, (1, 0)) + make(1, (0, 1))
    assert antiderivative(p) == make(1, (0, 0))
    # commutative quotient: 2 Q Q' integrates to Q^2
    assert antiderivative(make(2, (0, 1)), commutative=True) == make(1, (0, 0))


# -- integer storage against a Fraction reference ------------------------------
# Dict-of-Fraction copies of the operations, kept as the reference for the
# integer numerators: the same loops, so values and insertion order must match.


def _ref(p):
    return {w: Fraction(c, p._den) for w, c in p._num.items()}


def _ref_add_term(terms, w, c):
    acc = terms.get(w, 0) + c
    if acc:
        terms[w] = acc
    else:
        terms.pop(w, None)


def _ref_add(a, b):
    out = dict(a)
    for w, c in b.items():
        _ref_add_term(out, w, c)
    return out


def _ref_mul(a, b):
    out = {}
    for w1, c1 in a.items():
        for w2, c2 in b.items():
            _ref_add_term(out, w1 + w2, c1 * c2)
    return out


def _ref_differentiate(a):
    out = {}
    for w, c in a.items():
        for i in range(len(w)):
            _ref_add_term(out, w[:i] + (w[i] + 1,) + w[i + 1:], c)
    return out


def _ref_commutative_image(a):
    out = {}
    for w, c in a.items():
        _ref_add_term(out, tuple(sorted(w)), c)
    return out


def _ref_antiderivative(a, commutative):
    """The leading-term peel with a full scan for the leading word."""
    rest = _ref_commutative_image(a) if commutative else dict(a)
    result = {}
    while rest:
        if commutative:
            u = max(rest, key=lambda w: w[::-1])
            top = u[-1] if u else 0
            if top == 0 or u[-2:-1] == (top,):
                raise NotExactDerivativeError(u)
            w = u[:-1] + (top - 1,)
            c = rest[u] / w.count(top - 1)
        else:
            u = max(rest)
            if not u or u[0] == 0:
                raise NotExactDerivativeError(u)
            w = (u[0] - 1,) + u[1:]
            c = rest[u]
        result[w] = c
        for i in range(len(w)):
            dw = w[:i] + (w[i] + 1,) + w[i + 1:]
            _ref_add_term(rest, tuple(sorted(dw)) if commutative else dw, -c)
    return result


def assert_canonical(p):
    assert p._den > 0
    assert math.gcd(p._den, *p._num.values()) == 1
    assert all(p._num.values())


def assert_matches(p, want):
    assert list(_ref(p).items()) == list(want.items())  # values and order
    assert [(m.word, m.coeff) for m in p.terms()] == sorted(
        want.items(), key=lambda t: (len(t[0]), t[0]))
    assert_canonical(p)


@given(polys, polys, st.one_of(coeffs, st.integers(-3, 3)), st.booleans())
@settings(max_examples=200, deadline=None)
def test_integer_storage_matches_fraction_reference(p, q, c, commutative):
    assert_canonical(p)
    a, b = _ref(p), _ref(q)
    assert_matches(p + q, _ref_add(a, b))
    assert_matches(p - q, _ref_add(a, {w: -v for w, v in b.items()}))
    assert_matches(p * q, _ref_mul(a, b))
    assert_matches(p * c, {w: v * c for w, v in a.items()} if c else {})
    assert_matches(differentiate(p), _ref_differentiate(a))
    assert_matches(commutative_image(p), _ref_commutative_image(a))
    # an exact derivative, and arbitrary input that is mostly refused
    for src in (differentiate(p * q), p):
        try:
            want = _ref_antiderivative(_ref(src), commutative)
        except NotExactDerivativeError:
            with pytest.raises(NotExactDerivativeError):
                antiderivative(src, commutative=commutative)
            continue
        assert_matches(antiderivative(src, commutative=commutative), want)


def test_equal_polynomials_have_equal_storage_and_hash():
    assert (ZERO._num, ZERO._den) == ({}, 1)
    assert (make(1, (0,)) - make(1, (0,)))._den == 1
    half = make(Fraction(1, 2), (1, 0))
    routes = [make(Fraction(2, 4), (1, 0)), (half + half) * Fraction(1, 2),
              DiffPoly({(1, 0): Fraction(3, 4), (2,): 1}) - make(Fraction(1, 4), (1, 0))
              - make(1, (2,)), antiderivative(differentiate(half))]
    for p in routes:
        assert p == half and hash(p) == hash(half)
        assert (p._num, p._den) == ({(1, 0): 1}, 2)
    assert make(4, (0,)) * Fraction(3, 2) == make(6, (0,))
    assert half != make(1, (1, 0)) and half != make(Fraction(1, 3), (1, 0))


def test_evaluation_floats_match_fraction_floats():
    # the trie takes num / den; int true division rounds like float(Fraction)
    heatcoeffs.taylor_coefficient(10, 0)
    for (k, n), p in heatcoeffs._TAYLOR_CACHE.items():
        if k <= 10:
            for c in p._num.values():
                assert c / p._den == float(Fraction(c, p._den)), (k, n)


# -- evaluation ----------------------------------------------------------------


def _random_potential(rng, a=1.0, bandwidth=2, dim=2):
    mode_dict = {}
    for n in range(0, bandwidth + 1):
        m = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
        if n == 0:
            m = m + m.conj().T
        mode_dict[n] = m
    return PeriodicFunction.from_modes(a, mode_dict, n_dim=dim)


def test_evaluate_known_scalar_case():
    # QQ' + Q'Q at Q = cos(x): 2 cos sin' = -2 cos sin = -sin(2x)
    Q = PeriodicFunction.cosine(1.0)
    p = make(1, (0, 1)) + make(1, (1, 0))
    out = evaluate(p, Q, 16)
    x = 2 * np.pi * np.arange(16) / 16
    assert np.max(np.abs(out.sample_scalar(16) - (-np.sin(2 * x)))) < 1e-13


def test_evaluate_is_multiplicative():
    rng = np.random.default_rng(7)
    Q = _random_potential(rng)
    p = make(Fraction(1, 3), (1,)) + make(2, (0, 2))
    q = make(1, (0,)) - make(Fraction(5, 2), (3,))
    grid = 128
    lhs = evaluate(p * q, Q, grid).sample(grid)
    rhs = evaluate(p, Q, grid).sample(grid) @ evaluate(q, Q, grid).sample(grid)
    assert np.max(np.abs(lhs - rhs)) < 1e-12 * max(1.0, np.max(np.abs(lhs)))


def test_evaluate_differentiate_consistency():
    rng = np.random.default_rng(11)
    Q = _random_potential(rng, bandwidth=1)
    p = make(1, (0, 0)) + make(Fraction(1, 2), (2,))
    grid = 64
    lhs = evaluate(differentiate(p), Q, grid)
    rhs = evaluate(p, Q, grid).derivative()
    assert np.max(np.abs(lhs.sample(grid) - rhs.sample(grid))) < 1e-12


def test_evaluate_leaves_no_reference_cycle():
    # a cycle would keep every sampled derivative alive until the cyclic
    # collector runs; words share prefixes so the evaluation recurses
    Q = _random_potential(np.random.default_rng(3))
    p = make(1, (0, 0, 1)) + make(2, (0, 0)) + make(3, (0, 2, 1)) + make(1, (1,))
    gc.collect()
    gc.disable()
    try:
        evaluate(p, Q, 32)
        assert gc.collect() == 0
    finally:
        gc.enable()


def test_evaluate_rounding_is_independent_of_term_order():
    # the trie takes the words in lexicographic order, which rounds the
    # invariants best, however the polynomial's terms were inserted
    pairs = sorted((m.word, m.coeff) for m in heatcoeffs.taylor_coefficient(8, 0).terms())
    ordered, backwards = DiffPoly(dict(pairs)), DiffPoly(dict(reversed(pairs)))
    assert ordered == backwards and list(ordered._num) != list(backwards._num)
    Q = _random_potential(np.random.default_rng(5), bandwidth=3)
    grid = min_grid(ordered, Q.bandwidth)
    assert np.array_equal(evaluate(ordered, Q, grid).sample(grid),
                          evaluate(backwards, Q, grid).sample(grid))


def test_evaluate_refuses_aliasing_grids():
    Q = PeriodicFunction.from_modes(1.0, {3: 0.5})  # bandwidth 3
    p = make(1, (0, 0, 0))
    need = min_grid(p, Q.bandwidth)
    with pytest.raises(ResolutionError) as info:
        evaluate(p, Q, need - 1)
    assert info.value.suggestion == {"grid": need}
    evaluate(p, Q, need)  # and the boundary grid is accepted


def test_min_grid_grows_with_length_and_order():
    p3 = make(1, (0, 0, 0))
    p2 = make(1, (0, 0))
    assert min_grid(p3, 4) > min_grid(p2, 4)
    assert min_grid(make(1, (5,)), 4) > min_grid(make(1, (1,)), 4)
    assert min_grid(IDENTITY, 17) == 4


def test_evaluate_constant_polynomial():
    Q = PeriodicFunction.cosine(2.0)
    out = evaluate(IDENTITY, Q, 8)
    assert out.bandwidth == 0
    assert np.allclose(out.mean(), np.eye(1))
