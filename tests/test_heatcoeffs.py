"""Symbolic heat-expansion coefficients: frozen low orders, recursions, invariants."""

import hashlib
import itertools
import math
from fractions import Fraction

import numpy as np
import pytest

from heatkern import heatcoeffs
from heatkern.acceptance import exact_cosine_invariant
from heatkern.diffpoly import (
    DiffPoly,
    IDENTITY,
    ZERO,
    antiderivative,
    commutative_image,
    cyclic_image,
    differentiate,
    evaluate,
    fft_grid,
    make,
    min_grid,
)
from heatkern.heatcoeffs import (
    apply_E,
    diagonal_coefficient_recursive,
    global_invariant,
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


def _matrix_element(n: int, m: int) -> DiffPoly:
    """Taylor-basis ``<n|L|m>`` of ``L = -(d/dx)^2 + Q``: ``-1`` from the
    second derivative at ``m == n + 2``, ``binomial(n, m) Q^(n-m)`` from the
    potential for ``m <= n``, zero otherwise (so ``<n|L|n+1> = 0``)."""
    if m == n + 2:
        return make(-1, ())
    return make(math.comb(n, m), (n - m,)) if m <= n else ZERO


def test_matrix_elements():
    # the table of the polynomial-arithmetic reference _ladder below
    assert _matrix_element(3, 5) == -IDENTITY
    assert _matrix_element(3, 4) == ZERO
    assert _matrix_element(0, 3) == ZERO
    assert _matrix_element(3, 1) == make(3, (2,))
    assert _matrix_element(2, 2) == make(1, (0,))
    assert _matrix_element(4, 0) == make(1, (4,))


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


def _ladder(k: int, n: int, memo: dict) -> DiffPoly:
    """``<n|a_k>`` by polynomial arithmetic: the sum of ``<n|L|m> <m|a_{k-1}>``
    term by term, then the factor ``k/(k+n)``."""
    if (k, n) not in memo:
        if k == 0:
            memo[k, n] = IDENTITY if n == 0 else ZERO
        else:
            acc = ZERO
            for m in list(range(n + 1)) + [n + 2]:
                prev = _ladder(k - 1, m, memo)
                if not prev.is_zero():
                    acc = acc + _matrix_element(n, m) * prev
            memo[k, n] = Fraction(k, k + n) * acc
    return memo[k, n]


def test_ladder_matches_polynomial_arithmetic_in_value_and_order():
    # evaluate sorts the words, so no value depends on the storage order;
    # the order is pinned as well, as a guard that a change to the summing
    # kernel builds the same dicts
    memo = {}
    _ladder(8, 0, memo)
    for (k, n), want in memo.items():
        got = taylor_coefficient(k, n)
        assert got._den == want._den, (k, n)
        assert list(got._num.items()) == list(want._num.items()), (k, n)


# sha256 of the reprs, one per line, of each family of exact coefficients;
# repr lists the terms in canonical order, so these pin every value
ALGEBRA_DIGESTS = {
    "taylor_diagonal": (lambda: [taylor_coefficient(k, 0) for k in range(11)],
                        "a463b96d067c922df48f58789b0c8ee73811f671e1efd5e89bda444b12c7b5b8"),
    "taylor_first_row": (lambda: [taylor_coefficient(k, 1) for k in range(7)],
                         "bdd46cc89183e616e53c15ef8c9895698603016410875612e898c98e5261372e"),
    "recursive_scalar": (lambda: [diagonal_coefficient_recursive(k, scalar=True)
                                  for k in range(13)],
                         "1f04fee5dfa211962848c09a01ae40fb5ee4850a0aa228a2d20279a977020a51"),
    "recursive_matrix": (lambda: [diagonal_coefficient_recursive(k) for k in range(7)],
                         "ad1f51c8a2648a6d3e3c0af708500fec2fdcd0f3c74c14718c2aad82fc6f5b0f"),
    "commutative_image": (lambda: [commutative_image(taylor_coefficient(k, 0))
                                   for k in range(9)],
                          "97a755219582bf05ac200b69b8554c6c41627ed8b3f5522b47d586aa41a8f39b"),
    "cyclic_image": (lambda: [cyclic_image(taylor_coefficient(k, 0)) for k in range(9)],
                     "3a69f60abc34a34c521422226e867303aeac91407be2a1591335151360c9318a"),
}


@pytest.mark.parametrize("family", ALGEBRA_DIGESTS)
def test_exact_coefficients_keep_their_bytes(family):
    build, digest = ALGEBRA_DIGESTS[family]
    text = "\n".join(map(repr, build()))
    assert hashlib.sha256(text.encode()).hexdigest() == digest


def test_word_counts_match_each_order():
    # the refusal below predicts memory from these counts
    for k, words, scalar_words in zip(range(11), heatcoeffs._word_counts(False),
                                      heatcoeffs._word_counts(True)):
        assert len(taylor_coefficient(k, 0)) == words
        assert len(diagonal_coefficient_recursive(k, scalar=True)) == scalar_words


def test_orders_beyond_memory_are_refused_before_building(monkeypatch):
    # 1 MiB of "physical memory": the table fits to order 7 (233 words at
    # 3 KiB), the scalar recursion to order 9 (88 words at 9 KiB); a scalar
    # invariant takes the recursion alone, a matrix one the table
    sizes = {"SC_PAGE_SIZE": 4096, "SC_PHYS_PAGES": 256}
    monkeypatch.setattr(heatcoeffs.os, "sysconf", sizes.__getitem__)
    monkeypatch.setattr(heatcoeffs, "_TAYLOR_CACHE", {})
    monkeypatch.setattr(heatcoeffs, "_RECURSIVE_CACHE", {})
    with pytest.raises(ValueError, match=r"^\[a_8\] cannot be built in memory: order 8 "):
        taylor_coefficient(8, 0)
    with pytest.raises(ValueError, match=r"^\[a_10\] cannot be built"):
        diagonal_coefficient_recursive(10, scalar=True)
    with pytest.raises(ValueError, match=r"^\[a_8\] cannot be built in memory: order 8 "):
        global_invariant(8, _random_potential(2, 3))
    assert heatcoeffs._TAYLOR_CACHE == heatcoeffs._RECURSIVE_CACHE == {}
    value = global_invariant(9, PeriodicFunction.cosine(1.0)).value
    assert heatcoeffs._TAYLOR_CACHE == {}
    exact = 2 * math.pi * float(exact_cosine_invariant(9))
    assert abs(value - exact) <= 5e-15 * abs(exact)
    assert len(taylor_coefficient(7, 0)) == 233
    assert len(diagonal_coefficient_recursive(9, scalar=True)) == 88


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


def _scalar_E_projected_last(p):
    """The scalar ``E`` projected once, after three noncommutative derivatives."""
    d1 = differentiate(p)
    out = differentiate(differentiate(d1))
    out = out + (-2) * (Q * d1)
    out = out + (-2) * differentiate(Q * p)
    return commutative_image(out)


def test_scalar_recursion_matches_projecting_last():
    # projecting after each derivative changes no value of E and neither a
    # value nor the order of the terms of any scalar [a_k]
    prev = IDENTITY
    for k in range(1, 13):
        reference = _scalar_E_projected_last(prev)
        assert apply_E(prev, scalar=True) == reference, k
        prev = antiderivative(Fraction(-k, 2 * (2 * k - 1)) * reference, commutative=True)
        got = diagonal_coefficient_recursive(k, scalar=True)
        assert (got._den, list(got._num.items())) == (prev._den, list(prev._num.items())), k


def test_recursions_agree_scalar():
    # the scalar recursion is the route of every scalar A_k
    for k in range(0, 13):
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


def test_global_invariant_keeps_no_state(monkeypatch):
    import heatkern.diffpoly as dp

    calls = []
    real = dp.evaluate
    monkeypatch.setattr(dp, "evaluate", lambda *args: calls.append(args) or real(*args))
    Qa = PeriodicFunction.from_modes(1.25, {0: np.array([[0.3]]), 1: np.array([[0.2 + 0.1j]])})
    first = global_invariant(4, Qa)
    assert global_invariant(4, Qa) == first and len(calls) == 2
    other_grid = global_invariant(4, Qa, grid=2 * first.grid)
    assert len(calls) == 3 and other_grid.grid == 2 * first.grid
    assert abs(other_grid.value - first.value) <= 1e-12 * abs(first.value)


def _random_potential(dim: int, bandwidth: int) -> PeriodicFunction:
    rng = np.random.default_rng(17)
    raw = {n: rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
           for n in range(bandwidth + 1)}
    raw[0] = raw[0] + raw[0].conj().T
    return PeriodicFunction.from_modes(1.0, raw, n_dim=dim)


def test_global_invariant_evaluates_one_word_per_trace_class(monkeypatch):
    import heatkern.diffpoly as dp

    handed = []
    real = dp.evaluate
    monkeypatch.setattr(dp, "evaluate",
                        lambda p, *args: handed.append(list(p._num)) or real(p, *args))
    # scalar: one word per multiset of letters; matrix: one per necklace
    for dim, bandwidth, counts in [(1, 2, [1, 1, 2, 4, 7, 12, 21, 34, 55, 88, 137]),
                                   (2, 3, [1, 1, 2, 4, 7, 14, 30, 63, 142])]:
        Qf = _random_potential(dim, bandwidth)
        for k, count in enumerate(counts):
            handed.clear()
            inv = global_invariant(k, Qf)
            (words,) = handed
            assert len(words) == count, (dim, k)
            assert inv.grid == fft_grid(min_grid(taylor_coefficient(k, 0), bandwidth))


def _trace_integral_long(p: DiffPoly, Qf: PeriodicFunction, grid: int) -> np.longdouble:
    """``integral tr p`` summed word by word in extended precision, from
    samples summed mode by mode: no trie, no image, no FFT."""
    n, b = Qf.matrix_dim, Qf.bandwidth
    pi = np.arccos(np.longdouble(-1))
    phase = {m: np.exp(2j * pi * ((m * np.arange(grid)) % grid) / grid)[:, None, None]
             for m in range(-b, b + 1)}
    samples = {}
    acc = np.zeros((grid, n, n), dtype=np.clongdouble)
    for mono in p.terms():
        prod = np.broadcast_to(np.eye(n, dtype=np.clongdouble), (grid, n, n))
        for d in mono.word:
            if d not in samples:
                samples[d] = sum((1j * np.longdouble(m) / np.longdouble(Qf.a)) ** d
                                 * Qf.mode(m).astype(np.clongdouble) * phase[m]
                                 for m in range(-b, b + 1))
            prod = prod @ samples[d]
        acc = acc + np.longdouble(mono.coeff.numerator) / mono.coeff.denominator * prod
    return 2 * pi * np.longdouble(Qf.a) * np.trace(acc, axis1=1, axis2=2).real.mean()


@pytest.mark.parametrize("dim,bandwidth,k_max", [(1, 2, 10), (2, 3, 8)],
                         ids=["scalar-bw2", "matrix-bw3"])
def test_global_invariant_matches_extended_precision_word_sum(dim, bandwidth, k_max):
    Qf = _random_potential(dim, bandwidth)
    for k in range(k_max + 1):
        inv = global_invariant(k, Qf)
        want = _trace_integral_long(taylor_coefficient(k, 0), Qf, inv.grid)
        assert abs(inv.value - want) <= 2e-13 * abs(want), k


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


def _word_by_word(p: DiffPoly, Qf: PeriodicFunction, grid: int) -> PeriodicFunction:
    """Each word's product from the left, scaled and summed, sharing nothing."""
    n = Qf.matrix_dim
    samples = {}
    acc = np.zeros((grid, n, n), dtype=complex)
    for mono in p.terms():
        prod = np.broadcast_to(np.eye(n, dtype=complex), (grid, n, n))
        for d in mono.word:
            if d not in samples:
                samples[d] = Qf.derivative(d).sample(grid)
            prod = prod @ samples[d]
        acc = acc + float(mono.coeff) * prod
    return PeriodicFunction.from_samples(acc, Qf.a)


@pytest.mark.parametrize("dim,bandwidth,k_max", [(2, 3, 8), (1, 2, 10)],
                         ids=["matrix-bw3", "scalar-bw2"])
def test_evaluate_matches_word_by_word_products(dim, bandwidth, k_max):
    Qf = _random_potential(dim, bandwidth)
    for k in range(k_max + 1):
        p = taylor_coefficient(k, 0)
        grid = fft_grid(min_grid(p, bandwidth))
        got, want = evaluate(p, Qf, grid), _word_by_word(p, Qf, grid)
        b = max(got.bandwidth, want.bandwidth)
        diff = max(np.max(np.abs(got.mode(n) - want.mode(n))) for n in range(-b, b + 1))
        peak = max(np.max(np.abs(want.mode(n))) for n in range(-b, b + 1))
        assert diff <= 1e-13 * peak, k


def test_cosine_invariants_match_exact_values():
    Qc = PeriodicFunction.cosine(1.0)
    for k in range(11):
        exact = 2 * math.pi * float(exact_cosine_invariant(k))
        # A_1 = 0 exactly; every other A_k of cos x is above 1
        assert abs(global_invariant(k, Qc).value - exact) <= 5e-15 * max(abs(exact), 1.0), k


def _cosine_invariant_by_sign_walk(k):
    """``exact_cosine_invariant`` summed over all 2^m sign vectors of each
    word: the reference for its closed-form count."""
    total = Fraction(0)
    for mono in commutative_image(taylor_coefficient(k, 0)).terms():
        word = mono.word
        m = len(word)
        if m == 0:
            total += mono.coeff
            continue
        if m % 2:
            continue
        acc = 0
        for signs in itertools.product((1, -1), repeat=m):
            if sum(signs) != 0:
                continue
            flips = sum(1 for d, s in zip(word, signs) if d % 2 and s < 0)
            acc += -1 if flips % 2 else 1
        total += mono.coeff * Fraction(acc * (-1) ** (k - m), 2 ** m)
    return total


def test_cosine_invariant_closed_form_matches_sign_walk():
    for k in range(13):
        assert exact_cosine_invariant(k) == _cosine_invariant_by_sign_walk(k), k
