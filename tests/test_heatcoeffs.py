"""Symbolic heat-expansion coefficients: frozen low orders, recursions, invariants."""

import math
from fractions import Fraction

import numpy as np
import pytest

from heatkern.diffpoly import (
    DiffPoly,
    IDENTITY,
    ZERO,
    commutative_image,
    differentiate,
    evaluate,
    make,
    min_grid,
)
from heatkern.heatcoeffs import (
    apply_E,
    diagonal_coefficient_recursive,
    global_invariant,
    matrix_element,
    taylor_coefficient,
    w_coefficient,
)
from heatkern.periodic import PeriodicFunction

Q = make(1, (0,))

# Frozen low-order diagonal coefficients (independently hand-derived from the
# ladder recursion before being written down here).
A1 = Q
A2 = make(1, (0, 0)) - make(Fraction(1, 3), (2,))
A3 = (
    make(1, (0, 0, 0))
    - make(Fraction(1, 2), (0, 2))
    - make(Fraction(1, 2), (2, 0))
    - make(Fraction(1, 2), (1, 1))
    + make(Fraction(1, 10), (4,))
)


def _reversed_words(p: DiffPoly) -> DiffPoly:
    return DiffPoly({m.word[::-1]: m.coeff for m in p.terms()})


def test_matrix_elements():
    assert matrix_element(3, 5) == -IDENTITY
    assert matrix_element(3, 4) == ZERO
    assert matrix_element(0, 3) == ZERO
    assert matrix_element(3, 1) == make(3, (2,))
    assert matrix_element(2, 2) == make(1, (0,))
    assert matrix_element(4, 0) == make(1, (4,))


def test_low_order_diagonal_coefficients():
    assert taylor_coefficient(0, 0) == IDENTITY
    assert taylor_coefficient(1, 0) == A1
    assert taylor_coefficient(2, 0) == A2
    assert taylor_coefficient(3, 0) == A3


def test_first_off_diagonal_entries():
    assert taylor_coefficient(1, 1) == make(Fraction(1, 2), (1,))
    expected = (
        make(Fraction(2, 3), (1, 0))
        + make(Fraction(1, 3), (0, 1))
        - make(Fraction(1, 6), (3,))
    )
    assert taylor_coefficient(2, 1) == expected


def test_homogeneous_weights():
    for k in range(0, 6):
        for n in range(0, 4):
            p = taylor_coefficient(k, n)
            if not p.is_zero():
                assert {sum(d + 2 for d in m.word) for m in p.terms()} == {2 * k + n}


def test_diagonal_coefficients_are_reversal_symmetric():
    # the diagonal of the heat kernel is self-adjoint, so each [a_k] must be
    # invariant under reversing every word
    for k in range(0, 7):
        p = taylor_coefficient(k, 0)
        assert _reversed_words(p) == p


def test_apply_E_basics():
    assert apply_E(IDENTITY) == make(-2, (1,))
    # E(Q) = Q''' - 3 Q Q' - 3 Q' Q in the noncommutative algebra
    expected = make(1, (3,)) - make(3, (0, 1)) - make(3, (1, 0))
    assert apply_E(Q) == expected
    # commutative quotient: Q''' - 6 Q Q'
    assert apply_E(Q, scalar=True) == make(1, (3,)) - make(6, (0, 1))


def test_recursions_agree_scalar():
    for k in range(0, 7):
        assert diagonal_coefficient_recursive(k, scalar=True) == commutative_image(
            taylor_coefficient(k, 0)
        )


def test_recursions_agree_matrix():
    for k in range(0, 5):
        assert diagonal_coefficient_recursive(k) == taylor_coefficient(k, 0)


def test_w_identity():
    assert w_coefficient(1) == ZERO
    assert w_coefficient(2) == make(Fraction(-1, 3), (0, 1)) + make(Fraction(1, 3), (1, 0))
    for k in range(1, 5):
        w = w_coefficient(k)
        ak = taylor_coefficient(k, 0)
        assert differentiate(w) == Q * ak - ak * Q
        assert commutative_image(w) == ZERO


def quadratic_part_reduced(p: DiffPoly) -> dict[int, Fraction]:
    """Reduce the length-2 words of ``p`` modulo total derivatives and trace
    cyclicity.

    Under the circle integral of the trace, ``Q^(i) Q^(j)`` is equivalent to
    ``(-1)^i Q Q^(i+j)``; the returned map sends the total derivative count
    ``i + j`` to the reduced coefficient of ``tr(Q Q^(i+j))``.
    """
    out: dict[int, Fraction] = {}
    for mono in p.terms():
        if len(mono.word) != 2:
            continue
        i, j = mono.word
        d = i + j
        out[d] = out.get(d, Fraction(0)) + mono.coeff * (-1) ** i
    return {d: c for d, c in out.items() if c}


def leading_quadratic_coefficient(k: int) -> Fraction:
    """Predicted reduced coefficient of ``tr(Q Q^(2k-4))`` in ``[a_k]``:

    ``(-1)^k k! (k-1)! / (2k-2)!`` from the resummed leading-derivative form
    of the quadratic sector.
    """
    return Fraction((-1) ** k * math.factorial(k) * math.factorial(k - 1),
                    math.factorial(2 * k - 2))


def test_quadratic_sector():
    for k in range(2, 6):
        reduced = quadratic_part_reduced(taylor_coefficient(k, 0))
        reduced = {d: c for d, c in reduced.items() if c != 0}
        assert reduced == {2 * k - 4: leading_quadratic_coefficient(k)}
    assert leading_quadratic_coefficient(2) == 1
    assert leading_quadratic_coefficient(3) == Fraction(-1, 2)


def test_global_invariants_constant_potential():
    # constant matrix potential C: only the pure power survives in [a_k],
    # so the k-th invariant is 2*pi*a*tr(C^k)
    a = 1.5
    C = np.array([[2.0, 1.0 - 1.0j], [1.0 + 1.0j, -1.0]])
    Qc = PeriodicFunction.constant(a, C)
    for k in range(0, 5):
        inv = global_invariant(k, Qc)
        expected = 2 * np.pi * a * np.trace(np.linalg.matrix_power(C, k)).real
        assert abs(inv.value - expected) < 1e-10 * max(1.0, abs(expected))


def test_global_invariants_cosine():
    Qc = PeriodicFunction.cosine(1.0)
    assert abs(global_invariant(0, Qc).value - 2 * np.pi) < 1e-12
    assert abs(global_invariant(1, Qc).value) < 1e-12
    assert abs(global_invariant(2, Qc).value - np.pi) < 1e-12
    assert abs(global_invariant(3, Qc).value - np.pi / 2) < 1e-12


def test_global_invariant_memo_is_keyed_by_content(monkeypatch):
    import heatkern.diffpoly as dp

    calls = []
    real = dp.evaluate
    monkeypatch.setattr(dp, "evaluate", lambda *args: calls.append(args) or real(*args))
    q0, q1 = np.array([[0.3]]), np.array([[0.2 + 0.1j]])
    Qa = PeriodicFunction.from_modes(1.25, {0: q0, 1: q1})
    first = global_invariant(4, Qa)
    again = global_invariant(4, PeriodicFunction.from_modes(1.25, {0: q0, 1: q1}))
    assert again == first and len(calls) == 1
    nudged = np.array([[np.nextafter(0.2, 1.0) + 0.1j]])
    global_invariant(4, PeriodicFunction.from_modes(1.25, {0: q0, 1: nudged}))
    assert len(calls) == 2
    other_grid = global_invariant(4, Qa, grid=2 * first.grid)
    assert len(calls) == 3 and other_grid.grid == 2 * first.grid
    assert abs(other_grid.value - first.value) <= 1e-12 * abs(first.value)


def test_evaluate_diagonal_coefficient_hermitian():
    rng = np.random.default_rng(5)
    raw = {0: None, 1: None}
    m0 = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
    raw[0] = m0 + m0.conj().T
    raw[1] = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
    Qm = PeriodicFunction.from_modes(1.0, raw, n_dim=2)
    p = taylor_coefficient(3, 0)
    out = evaluate(p, Qm, max(64, min_grid(p, Qm.bandwidth)))
    modes = np.array([out.mode(n) for n in range(-out.bandwidth, out.bandwidth + 1)])
    mismatch = np.max(np.abs(modes - modes[::-1].conj().transpose(0, 2, 1)))
    assert mismatch <= 1e-11 * max(1.0, np.max(np.abs(modes)))
