"""Exact-arithmetic checks for the noncommutative differential-polynomial layer."""

from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from heatkern.diffpoly import (
    DiffPoly,
    IDENTITY,
    ZERO,
    antiderivative,
    commutative_image,
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
