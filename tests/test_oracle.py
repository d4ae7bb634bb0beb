"""Oracle checks: Galerkin spectra, the zeta function, the Mellin family,
and the independent period-map determinant.  Reference numbers were
computed with mpmath or closed forms noted inline."""

import importlib.util
import json
import math
from pathlib import Path

import mpmath as mp
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import linalg, special
from scipy.integrate import quad

from heatkern.errors import ResolutionError
from heatkern.heatcoeffs import global_invariant
from heatkern.oracle import (
    HP_DPS,
    EigenData,
    SpectralProblem,
    _cube_tail,
    _dressed_series,
    _log_2sinh,
    _mellin_split,
    _newton_refine_tridiagonal,
    _pair_sum,
    _parity_tridiagonals,
    _third_order_estimate,
    _upper_gamma,
    assemble,
    b_function,
    eigendata,
    eigenvalues_hp,
    floquet_log_det,
    heat_trace,
    heat_trace_hp,
    log_det,
    omega,
    zeta,
)
from heatkern.periodic import PeriodicFunction
from heatkern.specfun import EXP_CUT, theta

# 2 log(2 sinh pi), mpmath dps=30
DET_BENCHMARK = 6.279446930026116322662


def cosine_problem(a=1.0, amplitude=1.0):
    return SpectralProblem(PeriodicFunction.cosine(a, amplitude))


def constant_problem(c, a=1.0):
    return SpectralProblem(
        PeriodicFunction.constant(a, np.array([[c]], dtype=complex)))


def random_problem(seed, dim, bandwidth, a=1.0, total_norm=0.9):
    """Hermitian potential with sum_n ||q_n||_F <= total_norm."""
    rng = np.random.default_rng(seed)
    modes = {}
    for n in range(bandwidth + 1):
        q = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
        modes[n] = q + q.conj().T if n == 0 else q
    scale = total_norm / sum(np.linalg.norm(q) * (1 if n == 0 else 2)
                             for n, q in modes.items())
    Q = PeriodicFunction.from_modes(a, {n: scale * q for n, q in modes.items()}, dim)
    return SpectralProblem(Q)


def dense_galerkin(problem, n_max):
    """The Galerkin matrix in the natural mode order -n_max..n_max."""
    N = problem.dim
    H = np.zeros(((2 * n_max + 1) * N,) * 2, dtype=complex)
    for n in range(-n_max, n_max + 1):
        for m in range(-n_max, n_max + 1):
            block = problem.Q.mode(n - m) + (n == m) * n * n / problem.a ** 2 * np.eye(N)
            H[(n + n_max) * N:(n + n_max + 1) * N, (m + n_max) * N:(m + n_max + 1) * N] = block
    return H


def test_free_assemble_diagonal():
    ab = assemble(SpectralProblem.free(1.0), 2)
    assert ab.shape == (1, 5)
    assert np.array_equal(ab[0], [0.0, 1.0, 1.0, 4.0, 4.0])
    ab = assemble(SpectralProblem.free(1.0, dim=2), 2)
    assert ab.shape == (2, 10)
    assert np.array_equal(ab[0], np.repeat([0.0, 1.0, 1.0, 4.0, 4.0], 2))
    assert not np.any(ab[1:])


@pytest.mark.parametrize("problem", [
    SpectralProblem.free(1.0),
    random_problem(1, 1, 2, a=1.3),
    random_problem(2, 2, 3, a=0.8),
], ids=["free", "scalar-bw2", "2x2-bw3"])
def test_eigendata_matches_dense_eigvalsh(problem):
    for n_max in (problem.bandwidth, problem.bandwidth + 1, 9):
        ref = np.linalg.eigvalsh(dense_galerkin(problem, n_max))
        got = eigendata(problem, n_max).window(math.inf)
        assert np.all(np.abs(got - ref) <= 1e-12 * np.maximum(1.0, np.abs(ref)))


def test_graded_band_keeps_low_eigenvalues():
    # large truncations must not cost the low end its accuracy
    problem = random_problem(7, 2, 3)
    lo = eigendata(problem, 60).window(math.inf)[:20]
    hi = eigendata(problem, 400).window(math.inf)[:20]
    assert np.max(np.abs(hi - lo)) <= 1e-11


def test_non_hermitian_potential_is_refused():
    modes = np.zeros((3, 1, 1), dtype=complex)
    modes[0, 0, 0], modes[2, 0, 0] = 0.5, 0.25    # q_{-1} != conj(q_1)
    Q = PeriodicFunction(1.0, modes, check_hermitian=False)
    with pytest.raises(ValueError, match="q_n"):
        SpectralProblem(Q)


def test_assemble_refuses_below_bandwidth():
    prob = cosine_problem()
    with pytest.raises(ResolutionError) as err:
        assemble(prob, 0)
    assert err.value.suggestion == {"n_max": 1}


def test_matrix_problem_constant_exact():
    # Q = diag(1, 3): eigenvalues are (n/a)^2 + {1, 3} exactly
    Q = PeriodicFunction.constant(1.0, np.diag([1.0, 3.0]).astype(complex))
    e = eigendata(SpectralProblem(Q), 32)
    expected = sorted(n * n + c for n in range(-32, 33) for c in (1.0, 3.0))
    assert np.max(np.abs(e.window(math.inf) - np.array(expected))) < 1e-12


def test_free_trace_matches_theta():
    # acceptance criterion 3 at package tolerance
    e = eigendata(SpectralProblem.free(1.0), 80)
    for tau in np.geomspace(0.01, 10.0, 13):
        ref = 2.0 * math.pi * (4.0 * math.pi * tau) ** -0.5 * theta(tau)
        assert abs(heat_trace(e, tau) - ref) <= 1e-10 * ref


def test_omega_free_value():
    e = eigendata(SpectralProblem.free(1.0), 80)
    prob = SpectralProblem.free(1.0)
    tau = 0.5
    assert abs(omega(e, tau) - 2.0 * math.pi * theta(tau)) < 1e-12


def shifted_cosines():
    """The constant 7, cos x, -1000 + cos x, 100 + cos x and 3 cos(x/2) at
    a = 2: a diagonal truncation, whose top meets the bound exactly, means
    far from 0 either way, and an amplitude comparable to (n_max/a)^2 at 4."""
    return [SpectralProblem(PeriodicFunction.from_modes(a, {0: c, 1: amp / 2.0}))
            for c, amp, a in ((7.0, 0.0, 1.0), (0.0, 1.0, 1.0), (-1000.0, 1.0, 1.0),
                              (100.0, 1.0, 1.0), (0.0, 3.0, 2.0))]


def follow_one_suggestion(trace, floor, prob, n_max, t):
    """``trace(eigendata(prob, n_max), t)`` is refused exactly when
    t * lambda_max misses ``floor``, and then succeeds at the n_max its
    refusal suggests."""
    e = eigendata(prob, n_max)
    if float(t) * e.lambda_max >= floor:
        trace(e, t)
        return
    with pytest.raises(ResolutionError) as err:
        trace(e, t)
    n_better = err.value.suggestion["n_max"]
    assert n_better > n_max
    trace(eigendata(prob, n_better), t)


def test_heat_trace_refusal_and_suggestion():
    for prob in shifted_cosines() + [random_problem(5, 2, 1)]:
        for n_max in (4, 12):
            for t in (0.5, 0.01, 1e-3):
                follow_one_suggestion(heat_trace, EXP_CUT, prob, n_max, t)


def test_heat_trace_rejects_bad_time():
    e = eigendata(SpectralProblem.free(1.0), 16)
    for bad in (0.0, -1.0, math.inf):
        with pytest.raises(ValueError):
            heat_trace(e, bad)


def test_eigenvalue_convergence_under_doubling():
    prob = cosine_problem()
    lo = eigendata(prob, 24).window(math.inf)[:20]
    hi = eigendata(prob, 48).window(math.inf)[:20]
    assert np.max(np.abs(lo - hi)) <= 1e-10


def test_weyl_tail_law():
    # sorted eigenvalues follow lambda_j ~ (j/(2a))^2
    e = eigendata(cosine_problem(a=2.0), 400)
    j = np.arange(100, 601)
    slope = np.polyfit(np.log(j), np.log(e.window(math.inf)[j]), 1)[0]
    assert abs(slope - 2.0) < 0.02


# ---------------------------------------------------------- spectral window

EPS = np.finfo(float).eps


def full_solve(problem, n_max):
    """The whole truncation's spectrum: the solve before windows."""
    return linalg.eigvals_banded(assemble(problem, n_max), lower=True)


def solved_cut(eigen):
    """The largest leading block the truncation has solved, as a mode cut."""
    return max(eigen._solved)


def test_window_heat_trace_no_worse_than_full_solve():
    # against 50-digit eigenvalues of the same truncation, the window's sum
    # is as close as the sum over the whole spectrum, to the sums' own
    # round-off; measured worst 4.4e-16 (window) and 3.0e-16 (full)
    prob = cosine_problem()
    e = eigendata(prob, 400)
    full = full_solve(prob, 400)
    for t in np.geomspace(0.002, 1.0, 12):
        ref = float(heat_trace_hp(e, mp.mpf(float(t))))
        window_err = abs(heat_trace(e, float(t)) - ref)
        full_err = abs(float(np.sum(np.exp(-t * full))) - ref)
        assert window_err <= full_err + 2.0 * EPS * ref
    assert solved_cut(e) < 200


@pytest.mark.parametrize("seed", [2, 3])
def test_window_matches_full_truncation(seed):
    # a 2x2 bandwidth-3 potential: the eigenvalues below the level, and the
    # top from the trailing block, agree with the whole truncation's solve
    # to the solves' round-off (measured 9.0 and 10.9 eps level, 1.5 and
    # 8.7 eps lambda_max); the leading block's top is 4e15 eps away
    prob = random_problem(seed, 2, 3, a=0.8)
    level = 1600.0
    e = eigendata(prob, 60)
    full = full_solve(prob, 60)
    got = e.window(level)
    assert solved_cut(e) < 60
    assert len(got) == np.count_nonzero(full <= level)
    assert np.max(np.abs(got - full[:len(got)])) <= 32 * EPS * level
    assert abs(e.lambda_max - full[-1]) <= 32 * EPS * full[-1]
    assert abs(e.lambda_min - full[0]) <= 32 * EPS * level


@pytest.mark.parametrize("amplitude", [1.0, 5.0])
def test_window_cut_leaves_no_truncation_error(amplitude):
    # 50-digit eigenvalues of the truncation at the window's cut m against
    # those at n_max, free of float64 round-off: the decay bound is about
    # two shells conservative, so the cut leaves at most 1.1e-10 eps level
    # (measured), and one shell less leaves 4.8e-7 and 5.6e-6 eps level
    prob = cosine_problem(amplitude=amplitude)
    level = 2500.0
    e = eigendata(prob, 100)
    k = len(e.window(level))
    m = solved_cut(e)
    assert m < 100
    cut, whole = eigenvalues_hp(prob, m), eigenvalues_hp(prob, 100)
    worst = max(abs(float(cut[i] - whole[i])) for i in range(k))
    assert worst <= 1e-8 * EPS * level


@pytest.mark.parametrize("problem, n_max", [
    (cosine_problem(), 20), (random_problem(2, 2, 3, a=0.8), 12)],
    ids=["cos", "2x2-bw3"])
def test_window_is_the_full_solve_where_the_cut_reaches_n_max(problem, n_max):
    # at the smallest t the truncation supports, the window reaches n_max
    full = full_solve(problem, n_max)
    for t in (1.001 * EXP_CUT / full[-1], 1.1 * EXP_CUT / full[-1]):
        e = eigendata(problem, n_max)
        level = EXP_CUT / t + problem.width
        got = e.window(level)
        assert solved_cut(e) == n_max
        assert got.tobytes() == full[full <= level].tobytes()
        assert heat_trace(e, t) == float(np.sum(np.exp(-t * full[full <= level])))
    assert e.window(math.inf).tobytes() == full.tobytes()


# ------------------------------------------------------------------- zeta

def test_zeta_free_pi_coth_pi():
    e = eigendata(SpectralProblem.free(1.0), 48)
    ref = math.pi / math.tanh(math.pi)
    assert abs(zeta(e, 1.0, -1.0) - ref) <= 1e-10


def test_zeta_constant_shift_property():
    # spectrum of Q = c is the free spectrum shifted by c, and the tail
    # construction commutes with the shift exactly
    ec = eigendata(constant_problem(2.0), 48)
    e0 = eigendata(SpectralProblem.free(1.0), 48)
    for s in (0.8, 1.25, 2.0):
        assert abs(zeta(ec, s, -1.0) - zeta(e0, s, -3.0)) < 1e-13


def test_zeta_domain():
    e = eigendata(SpectralProblem.free(1.0), 48)
    # the continuation vanishes at s = 0, -1, -2, ..., as +0.0 (never -0)
    for s in (0.0, -1.0, -2.0, -5.0):
        assert math.copysign(1.0, zeta(e, s, -1.0)) == 1.0
        assert zeta(e, s, -1.0) == 0.0
    assert math.isfinite(zeta(e, 0.4, -1.0))
    # the real poles s = 1/2 - k, and s below the reach of the series order
    for s in (0.5, -0.5, -4.5, -5.5, -5.75, -40.0):
        with pytest.raises(ValueError, match=f"s={s:g}"):
            zeta(e, s, -1.0)
    # Gamma(s - 1/2) overflows float64: refused, never inf or nan
    with pytest.raises(ValueError, match="s=200"):
        zeta(e, 200.0, -1.0)
    with pytest.raises(ValueError):
        zeta(e, 1.0, 0.0)  # lam at the bottom eigenvalue


def test_zeta_refuses_non_finite_arguments():
    # a nan or infinite s or lam would otherwise come out as nan or 0
    e = eigendata(SpectralProblem.free(1.0), 48)
    for s, lam in ((math.nan, -1.0), (math.inf, -1.0), (1.5, math.nan),
                   (1.5, -math.inf)):
        with pytest.raises(ValueError, match="finite"):
            zeta(e, s, lam)


def _em_tail(s, lam, a, shift, W):
    """Euler-Maclaurin completion of 2*sum_{n>=W} ((n/a)^2 + c)^{-s}, with
    c = shift - lam from the free-plus-mean eigenvalue asymptotics; the
    1/n^2 corrections it ignores cancel between +n and -n."""
    c = shift - lam
    g = (W / a) ** 2 + c
    # integral_W^infty ((x/a)^2+c)^{-s} dx via the regularized beta function
    u0 = 1.0 / (1.0 + (W / (a * math.sqrt(c))) ** 2)
    integral = (a * c ** (0.5 - s) * 0.5
                * special.betainc(s - 0.5, 0.5, u0) * special.beta(s - 0.5, 0.5))
    fp = -2.0 * s * W / a ** 2 * g ** (-s - 1.0)
    fppp = (12.0 * s * (s + 1.0) * W / a ** 4 * g ** (-s - 2.0)
            - 8.0 * s * (s + 1.0) * (s + 2.0) * W ** 3 / a ** 6 * g ** (-s - 3.0))
    return 2.0 * (integral + 0.5 * g ** (-s) - fp / 12.0 + fppp / 720.0)


def _zeta_euler_maclaurin(eigen, s, lam):
    """Head sum over the modes |n| <= n_max - (B + 8) plus an Euler-Maclaurin
    tail on (n/a)^2 + d - lam, d the mean-mode eigenvalues; s > 1/2 only.
    The summation route before the Mellin one, kept as its oracle."""
    problem = eigen.problem
    n_c = eigen.n_max - (problem.bandwidth + 8)
    head = np.sum((eigen.window(math.inf)[:(2 * n_c + 1) * problem.dim] - lam) ** (-s))
    return float(head) + sum(_em_tail(s, lam, problem.a, float(d), n_c + 1)
                             for d in np.linalg.eigvalsh(problem.Q.mean()))


def test_zeta_matches_euler_maclaurin_oracle():
    # the Mellin route is converged at n_max = 64 where the head sum needs
    # n_max ~ 1000 (at s = 0.75 the head route at 64 is 1e-10 off)
    prob = cosine_problem()
    reference = eigendata(prob, 1000)
    e = eigendata(prob, 64)
    for s in (0.75, 1.0, 1.5, 2.5, 4.0, 10.0):
        ref = _zeta_euler_maclaurin(reference, s, -1.0)
        assert abs(zeta(e, s, -1.0) - ref) <= 1e-13 * ref


def _chowla_selberg(s, c):
    """sum_{n in Z} (n^2 + c)^{-s}, continued in s (Elizalde 1995, ch. 1):
    sqrt(pi) Gamma(s-1/2)/Gamma(s) c^{1/2-s}
      + 4 pi^s / Gamma(s) c^{1/4-s/2} sum_{n>=1} n^{s-1/2} K_{s-1/2}(2 pi n sqrt c);
    the Bessel terms fall like e^{-2 pi n sqrt c}, so 12 of them suffice."""
    with mp.workdps(30):
        s, c = mp.mpf(s), mp.mpf(c)
        bessel = mp.fsum(n ** (s - 0.5) * mp.besselk(s - 0.5, 2 * mp.pi * n * mp.sqrt(c))
                         for n in range(1, 13))
        return float(mp.sqrt(mp.pi) * mp.gamma(s - 0.5) * mp.rgamma(s) * c ** (0.5 - s)
                     + 4 * mp.pi ** s * mp.rgamma(s) * c ** (0.25 - s / 2) * bessel)


@pytest.mark.parametrize("s, tol", [
    (4.0, 2e-15), (1.5, 2e-15), (0.75, 2e-15), (0.25, 2e-15),
    (-0.25, 2e-14), (-1.25, 1e-12),
    (-2.25, 1.2e-11), (-3.25, 1e-9), (-4.25, 4e-8), (-5.25, 4e-6)])
def test_zeta_free_circle_chowla_selberg(s, tol):
    # measured at n_max = 64, worst of the two shifts: <= 4e-16 for
    # s >= 0.25, 1.1e-15 at -0.25, 1.0e-13 at -1.25, then 6.3e-12, 4.2e-10,
    # 2.0e-8 and 2.0e-6 at s = -2.25 .. -5.25.  The two halves of the split
    # are each of size ~ t*^(s-1/2) and cancel, more so as s falls.
    e = eigendata(SpectralProblem.free(1.0), 64)
    for lam in (-1.0, -5.0):
        ref = _chowla_selberg(s, -lam)
        assert abs(zeta(e, s, lam) - ref) <= tol * abs(ref)


# ----------------------------------------------------------- Mellin family

def test_determinant_benchmark():
    prob = constant_problem(1.0)
    e = eigendata(prob, 64)
    val = log_det(e, 0.0)
    assert abs(val - DET_BENCHMARK) <= 1e-6   # acceptance tolerance
    assert abs(val - DET_BENCHMARK) <= 1e-12  # measured headroom
    # deeper shifts against 2 log(2 sinh(pi sqrt(1 - lam))); measured
    # 5.5e-14 and 4.2e-16 relative
    for lam, n_max, tol in ((-16.0, 64, 1e-13), (-64.0, 160, 1e-15)):
        with mp.workdps(30):
            ref = float(2 * mp.log(2 * mp.sinh(mp.pi * mp.sqrt(1 - mp.mpf(lam)))))
        assert abs(log_det(eigendata(prob, n_max), lam) - ref) <= tol * ref


def test_split_point_independence():
    prob = cosine_problem()
    e = eigendata(prob, 64)
    g = _dressed_series(prob, -2.0)
    for q in (0.5, -0.7):
        chosen = b_function(e, q, -2.0)
        for t_star in (0.1, 0.05, 0.025):
            assert abs(_mellin_split(e, q, -2.0, g, t_star, 0.0) - chosen) <= 1e-8


def test_split_mismatch_refusal_suggests_n_max():
    # a split point far outside the series range is refused, and the
    # suggestion names only what a flag sets
    prob = cosine_problem()
    e = eigendata(prob, 64)
    with pytest.raises(ResolutionError, match="mismatch") as err:
        _mellin_split(e, 0.5, -2.0, _dressed_series(prob, -2.0), 2.0, 0.0)
    assert list(err.value.suggestion) == ["n_max"]
    # through zeta the suggestion anchors the tail where the series holds,
    # so the first retry succeeds (100 + cos x at lam = -1: 12 -> 348)
    shifted = SpectralProblem(PeriodicFunction.from_modes(1.0, {0: 100.0, 1: 0.5}))
    with pytest.raises(ResolutionError, match="mismatch") as err:
        zeta(eigendata(shifted, 12), 2.0, -1.0)
    zeta(eigendata(shifted, err.value.suggestion["n_max"]), 2.0, -1.0)


def _laguerre_tail(mu, t_star, q, nodes=256):
    # the large-t side of B_q, sum over mu of int_{t*}^inf t^(-q-1/2) e^(-mu t) dt,
    # by a Gauss-Laguerre rule scaled to each eigenvalue (t = t* + u/mu)
    u, w = special.roots_laguerre(nodes)
    t = t_star + u[None, :] / mu[:, None]
    return float(np.sum(np.exp(-mu * t_star) / mu * (t ** (-q - 0.5) @ w)))


def test_tail_rules_agree():
    # the tail's one incomplete gamma per eigenvalue against an independent
    # quadrature on the same eigenvalues, and against mpmath's incomplete
    # gamma; q = 1.5 and 4.75 reach the negative orders -1 and -4.25.  At
    # q = 1/2 the quadrature bound keeps log Det within 1e-8.  At q = 4.75
    # the quadrature itself is the limit (7.7e-8): t^-5.25 peaks at t* on
    # a scale the Laguerre nodes resolve poorly for the lowest eigenvalues.
    for prob, lam, t_star in ((constant_problem(1.0), 0.0, 0.2),
                              (cosine_problem(), -2.0, 0.1)):
        e = eigendata(prob, 64)
        mu = e.window(math.inf) - lam
        mu = mu[mu * t_star <= EXP_CUT + 1.0]
        for q in (0.5, -0.7, 1.5, 4.75):
            exact = float(np.sum(mu ** (q - 0.5) * _upper_gamma(0.5 - q, mu * t_star)))
            quad = _laguerre_tail(mu, t_star, q)
            assert abs(exact - quad) <= (2e-7 if q > 4 else 1e-9) * abs(exact)
            with mp.workdps(30):
                ref = float(mp.fsum(mp.mpf(m) ** (q - 0.5) * mp.gammainc(0.5 - q, m * t_star)
                                    for m in mu))
            assert abs(exact - ref) <= 1e-13 * abs(ref)


def test_integer_q_reduces_to_invariants():
    # B_k(lam) = sum_j C(k,j) (-lam)^j A_{k-j}
    prob = cosine_problem()
    e = eigendata(prob, 64)
    A = [global_invariant(k, prob.Q).value for k in range(4)]
    for k in range(4):
        exact = sum(math.comb(k, j) * 2.0 ** j * A[k - j] for j in range(k + 1))
        assert abs(b_function(e, float(k), -2.0) - exact) <= 1e-12


def test_b_at_zero_shift_equals_invariants():
    # lam = 0 sits below the spectrum of 1 + cos x (lambda_1 ~ 0.62)
    Q = PeriodicFunction.cosine(1.0) + PeriodicFunction.constant(
        1.0, np.eye(1, dtype=complex))
    prob = SpectralProblem(Q)
    e = eigendata(prob, 64)
    assert e.lambda_min > 0.5
    for k in range(4):
        A_k = global_invariant(k, Q).value
        assert abs(b_function(e, float(k), 0.0) - A_k) <= 1e-7


def test_free_b_asymptote():
    # Q = 0: B_q(lam) -> 2 pi a N (-lam)^q once a sqrt(-lam) >> 1
    prob = SpectralProblem.free(1.0)
    e = eigendata(prob, 96)
    for q in (-0.7, -1.5):
        val = b_function(e, q, -25.0)
        ref = 2.0 * math.pi * 25.0 ** q
        assert abs(val - ref) <= 1e-9 * abs(ref)


def test_b_function_domain_margin():
    prob = cosine_problem()
    e = eigendata(prob, 32)
    with pytest.raises(ValueError):
        b_function(e, 0.5, e.lambda_min - 1e-5)
    # an infinite shift would put t* at 0
    with pytest.raises(ValueError, match="not finite"):
        b_function(e, 0.5, -math.inf)


def test_b_function_truncation_refusal_and_recovery():
    prob = cosine_problem()
    small = eigendata(prob, 8)
    with pytest.raises(ResolutionError) as err:
        b_function(small, 0.5, -900.0)
    n_better = err.value.suggestion["n_max"]
    big = eigendata(prob, n_better)
    mellin = b_function(big, 0.5, -900.0)
    # deep-shift cross-check against the period map
    assert abs(mellin - floquet_log_det(prob, -900.0)) <= 1e-7


def test_mellin_vs_floquet_cosine():
    prob = cosine_problem()
    e = eigendata(prob, 64)
    for lam in (-2.0, -9.0):
        assert abs(b_function(e, 0.5, lam) - floquet_log_det(prob, lam)) <= 1e-10


def test_floquet_free_closed_form():
    # Det(-D^2 - lam) = (2 sinh(pi a sqrt(-lam)))^2
    val = floquet_log_det(SpectralProblem.free(1.0), -1.0)
    assert abs(val - DET_BENCHMARK) <= 1e-10


def test_floquet_free_bundle_closed_form():
    # N decoupled free circles: N log (2 sinh(pi a sqrt(-lam)))^2
    a = 1.7
    for lam in (-1.0, -26.0, -400.0):
        expect = 4.0 * math.log(2.0 * math.sinh(math.pi * a * math.sqrt(-lam)))
        val = floquet_log_det(SpectralProblem.free(a, dim=2), lam)
        assert abs(val - expect) <= 1e-12 * expect


def test_floquet_decoupled_bundle_is_sum_of_scalars():
    first = {0: 0.3, 1: 0.25 - 0.1j, 2: 0.05j}
    second = {0: -0.2, 1: 0.4}
    diagonal = {n: np.diag([first.get(n, 0.0), second.get(n, 0.0)]) for n in range(3)}
    bundle = SpectralProblem(PeriodicFunction.from_modes(1.0, diagonal, 2))
    scalars = [SpectralProblem(PeriodicFunction.from_modes(1.0, m)) for m in (first, second)]
    for lam in (-1.0, -26.0, -400.0):
        expect = sum(floquet_log_det(p, lam) for p in scalars)
        assert abs(floquet_log_det(bundle, lam) - expect) <= 1e-12 * expect


def test_floquet_matrix_matches_mellin():
    prob = random_problem(11, dim=2, bandwidth=3)
    assert np.any(prob.Q.mode(1)[0, 1])          # genuinely coupled
    e = eigendata(prob, 400)
    for lam in (-1.0, -26.0, -400.0):
        mellin = b_function(e, 0.5, lam)
        assert abs(floquet_log_det(prob, lam) - mellin) <= 1e-12 * abs(mellin)


def test_floquet_refuses_negative_determinant():
    # cos x: lambda_1..lambda_4 = -0.378, 0.918, 1.293, 4.032; an odd number
    # of eigenvalues below lam makes Det(L - lam) negative.  Beside it in a
    # bundle, the constant 5 has its whole spectrum above lam.
    beside = {0: np.diag([0.0, 5.0]), 1: np.diag([0.5, 0.0])}
    for prob in (cosine_problem(),
                 SpectralProblem(PeriodicFunction.from_modes(1.0, beside, 2))):
        for lam in (0.5, 2.5):
            with pytest.raises(ArithmeticError):
                floquet_log_det(prob, lam)


# ------------------------------------------------------- Hill determinant

def _direct_sum(f, start, s):
    """sum_{n >= start} f(n): float64 terms far past the flat part of width
    about s, then the integral of the rest from the last midpoint (x = c/u
    maps it onto (0, 1]); the rest is below 1e-9 of these sums and the
    midpoint rule's error, f'/24 there, below 1e-17."""
    cut = start + 1000 * (1 + math.ceil(s))
    head = math.fsum(f(np.arange(start, cut, dtype=float)))
    c = cut - 0.5
    return head + quad(lambda u: f(c / u) * c / u ** 2, 0.0, 1.0, epsabs=0.0, epsrel=1e-10)[0]


@pytest.mark.parametrize("k", [0, 1, 3])
def test_pair_sum_matches_direct_sum(k):
    for a in (1.0, 1.7):
        for s in (0.05, 0.3, 1.0, 7.0, 60.0, 1e3):
            sigma = (s / a) ** 2

            def f(n):
                return 1.0 / (((n / a) ** 2 + sigma) * (((n - k) / a) ** 2 + sigma))

            direct = _direct_sum(f, 0, s) + _direct_sum(lambda n: f(-n), 1, s)
            assert abs(_pair_sum(k, a, sigma) - direct) <= 1e-15 * direct, (a, s)


def test_cube_tail_bounds_direct_sum():
    # an upper bound on sum_{m >= c} D_m^-3, within a factor 4
    for a in (1.0, 1.7):
        for s in (0.05, 1.0, 30.0, 1e3):
            sigma = (s / a) ** 2
            for c in (1, 10, 100, 1000):
                direct = _direct_sum(lambda m: ((m / a) ** 2 + sigma) ** -3.0, c, s)
                assert direct <= _cube_tail(c, a, sigma) <= 4.0 * direct, (a, s, c)


@pytest.mark.filterwarnings("error")
def test_closed_forms_at_extreme_shifts():
    assert _log_2sinh(1e150) == 1e150
    assert abs(_log_2sinh(1e-10) - math.log(2e-10)) <= 1e-15 * abs(math.log(2e-10))
    assert abs(_log_2sinh(1.0) - math.log(2.0 * math.sinh(1.0))) <= 2e-16
    for k in (0, 2):
        assert 0.0 <= _pair_sum(k, 1.0, 1e300) < 1e-300
        assert 0.0 <= _cube_tail(1 + k, 1.0, 1e300) < 1e-300
    # sigma -> 0: the n = 0 term 1/sigma^2 dominates, nothing cancels
    assert abs(_pair_sum(0, 1.0, 1e-12) - 1e24) <= 1e-15 * 1e24


def _bench_problems(folder):
    """The benchmark's seed-7 matrix (①) and even scalar (②) problems with
    their n_max and lambda-grids."""
    spec = importlib.util.spec_from_file_location(
        "bench_inputs", Path(__file__).resolve().parents[1] / "bench" / "inputs.py")
    inputs = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(inputs)
    paths = inputs.write_problems(7, folder)
    return [(SpectralProblem.from_json_obj(json.loads(Path(paths[name]).read_text())),
             n_max, lams)
            for name, n_max, lams in (("matrix", 400, inputs.DET_MATRIX_LAMS),
                                      ("scalar_even", 1000, inputs.DET_SCALAR_LAMS))]


def test_log_det_matches_period_map(tmp_path):
    cases = [(random_problem(11, dim=2, bandwidth=3, a=a), 400, (-1.0, -26.0, -400.0))
             for a in (1.0, 1.7)] + _bench_problems(tmp_path)
    for prob, n_max, lams in cases:
        e = eigendata(prob, n_max)
        for lam in lams:
            ref = floquet_log_det(prob, lam)
            assert abs(log_det(e, lam) - ref) <= 5e-15 * abs(ref), (prob.a, lam)


def test_log_det_stays_flat_in_n_max():
    # past convergence only round-off changes the value; the high modes'
    # Cholesky pivots lie within ulps of 1, where taking their square roots
    # drifts log Det by about 1e-16 per mode
    for prob in (cosine_problem(amplitude=0.5), random_problem(11, dim=2, bandwidth=3)):
        for lam in (-1.0, -26.0):
            low = log_det(eigendata(prob, 100), lam)
            assert abs(log_det(eigendata(prob, 2000), lam) - low) <= 5e-15 * abs(low)


def test_tail_estimate_bounds_truncation_error(monkeypatch, tmp_path):
    # with the refusal off, every truncation answers; the estimate stays
    # above its true error (the period map is good to ~2e-15 relative).
    # Cutoffs from B to 2B - 1 put n_max - 2B below 0, so the estimate's sum
    # over |m| > n_max - 2B takes in m = 0 (its edge < 0 case).
    monkeypatch.setattr("heatkern.oracle.DET_TAIL_RTOL", math.inf)
    cases = [(cosine_problem(amplitude=amp), (-1.0 - amp, -4.0 * amp))
             for amp in (0.5, 2.0, 10.0)]
    cases += [(random_problem(11, dim=2, bandwidth=3, a=a), (-1.0, -26.0)) for a in (1.0, 1.7)]
    cases += [(prob, lams[::7]) for prob, _, lams in _bench_problems(tmp_path)]
    measured = 0
    for prob, lams in cases:
        q_bar = float(np.trace(prob.Q.mean()).real) / prob.dim
        b = prob.bandwidth
        for lam in lams:
            ref = floquet_log_det(prob, lam)
            for n_max in (*range(b, 2 * b), 8, 16, 32, 64, 128):
                err = abs(log_det(eigendata(prob, n_max), lam) - ref)
                assert err <= _third_order_estimate(prob, n_max, q_bar - lam) + 5e-15 * abs(ref)
                measured += err > 5e-15 * abs(ref)
    assert measured >= 30   # the bound is tested where the error shows


def test_log_det_refuses_lam_not_below_the_truncated_spectrum():
    prob = cosine_problem()
    e = eigendata(prob, 64)
    # lambda_1 of the truncation is where the Cholesky fails
    assert math.isfinite(log_det(e, e.lambda_min - 1e-6))
    with pytest.raises(ValueError, match="not below the spectrum of the truncation"):
        log_det(e, e.lambda_min + 1e-6)
    # lambda_1 <= tr q_0 / N = 0: refused before any factorization
    with pytest.raises(ValueError, match="tr q_0 / N"):
        log_det(e, 0.5)
    with pytest.raises(ValueError, match="not finite"):
        log_det(e, -math.inf)


# ------------------------------------------------------------ problem JSON

def test_json_hermitian_completion_and_rejection():
    obj = {"a": 1.0, "N": 1, "modes": [{"n": 1, "matrix": [[[0.5, 0.25]]]}]}
    prob = SpectralProblem.from_json_obj(obj)
    assert prob.Q.mode(-1)[0, 0] == pytest.approx(0.5 - 0.25j)
    bad = {"a": 1.0, "N": 1, "modes": [
        {"n": 1, "matrix": [[[0.5, 0.25]]]},
        {"n": -1, "matrix": [[[0.5, 0.25]]]},   # not the adjoint
    ]}
    with pytest.raises(ValueError):
        SpectralProblem.from_json_obj(bad)
    with pytest.raises(ValueError):
        SpectralProblem.from_json_obj({"a": 1.0, "N": 2, "modes": [
            {"n": 0, "matrix": [[[1.0, 0.0]]]}]})  # shape mismatch


# Integers are either small or far beyond any allocation (N^2 or 2|n| + 1
# complex entries overflow numpy's size limit before memory is touched),
# never in between, so no example allocates anything large.  Each field
# is well formed about half the time, so some examples load.
_JSON_INTS = (st.integers(-8, 8) | st.integers(2 ** 62, 10 ** 400)
              | st.integers(-10 ** 400, -2 ** 62))
_JSON_LEAVES = st.none() | st.booleans() | st.text(max_size=3) | _JSON_INTS | st.floats()
_JSON_ANY = st.recursive(
    _JSON_LEAVES, lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.text(max_size=2), inner, max_size=2), max_leaves=6)
_JSON_ENTRIES = st.floats(-1.0, 1.0) | _JSON_LEAVES
_JSON_MATRICES = st.integers(1, 2).flatmap(lambda k: st.lists(
    st.lists(st.lists(_JSON_ENTRIES, min_size=2, max_size=2), min_size=k, max_size=k),
    min_size=k, max_size=k))
_JSON_MODES = st.fixed_dictionaries(
    {"n": st.integers(1, 3) | _JSON_LEAVES, "matrix": _JSON_MATRICES | _JSON_ANY})
_JSON_PROBLEMS = st.fixed_dictionaries(
    {"a": st.floats(0.5, 2.0) | _JSON_LEAVES, "N": st.integers(1, 2) | _JSON_LEAVES,
     "modes": st.lists(_JSON_MODES | _JSON_ANY, max_size=3) | _JSON_ANY}) | _JSON_ANY


@settings(max_examples=300, deadline=None)
@given(obj=_JSON_PROBLEMS)
def test_json_problem_runs_or_is_refused(obj):
    try:
        SpectralProblem.from_json_obj(obj)
    except (ValueError, MemoryError):
        pass


# ---------------------------------------------------- high-precision path

def test_hp_free_spectrum_exact():
    vals = eigenvalues_hp(SpectralProblem.free(1.0), 5)
    assert [float(v) for v in vals] == [0.0, 1.0, 1.0, 4.0, 4.0, 9.0, 9.0,
                                        16.0, 16.0, 25.0, 25.0]


def test_hp_matches_float64():
    prob = cosine_problem()
    hp = eigenvalues_hp(prob, 40)
    lo = eigendata(prob, 40).window(math.inf)
    assert max(abs(float(v) - w) for v, w in zip(hp, lo)) <= 1e-10


def test_hp_trace_agrees_with_float64():
    import mpmath as mp

    prob = cosine_problem()
    e = eigendata(prob, 48)
    t = 0.05
    hp = heat_trace_hp(e, mp.mpf(t))
    assert abs(float(hp) - heat_trace(e, t)) <= 1e-11


def _refine_full_recurrence(diag, offsq, seeds, dps):
    """Newton on the whole three-term recurrence: the refinement before
    windowing, kept here as the oracle for the windowed one."""
    import mpmath as mp

    n = len(diag)
    d = [mp.mpf(x) for x in diag]
    e2 = [mp.mpf(x) for x in offsq]
    refined = []
    with mp.workdps(dps):
        for seed in seeds:
            lam = mp.mpf(float(seed))
            for _ in range(8):
                p_prev, p = mp.mpf(1), d[0] - lam
                dp_prev, dp = mp.mpf(0), mp.mpf(-1)
                for k in range(1, n):
                    p_new = (d[k] - lam) * p - e2[k - 1] * p_prev
                    dp_new = -p + (d[k] - lam) * dp - e2[k - 1] * dp_prev
                    p_prev, p = p, p_new
                    dp_prev, dp = dp, dp_new
                step = p / dp
                lam -= step
                if abs(step) <= mp.mpf(10) ** (-(dps - 2)) * max(1, abs(lam)):
                    break
            refined.append(lam)
    return refined


def _hp_reference(problem, n_max, dps=50, half_width=None):
    """eigenvalues_hp through the full recurrence, or through a fixed window
    of rows c - half_width .. c + half_width around the row c whose
    diagonal is nearest each seed."""
    de, oe, do, oo = _parity_tridiagonals(problem, n_max)
    out = []
    for diag, offsq in ((de, oe), (do, oo)):
        seeds = np.array(diag) if len(diag) == 1 else linalg.eigh_tridiagonal(
            np.array(diag), np.sqrt(np.array(offsq)), eigvals_only=True)
        if half_width is None:
            out.extend(_refine_full_recurrence(diag, offsq, seeds, dps))
            continue
        for seed in seeds:
            c = int(np.argmin(np.abs(np.array(diag) - seed)))
            lo, hi = max(0, c - half_width), min(len(diag) - 1, c + half_width)
            out.extend(_refine_full_recurrence(
                diag[lo:hi + 1], offsq[lo:hi], [seed], dps))
    return sorted(out)


def _hp_rel_err(values, reference):
    import mpmath as mp

    with mp.workdps(60):
        return max(abs(v - r) / max(1, abs(r)) for v, r in zip(values, reference))


@pytest.mark.parametrize("amplitude, n_max", [
    (0.0, 60), (1.0, 80), (20.0, 80), (200.0, 60)])
def test_hp_window_matches_full_recurrence(amplitude, n_max):
    prob = cosine_problem(amplitude=amplitude)
    ref = _hp_reference(prob, n_max)
    assert _hp_rel_err(eigenvalues_hp(prob, n_max), ref) <= 1e-48
    if amplitude >= 20.0:
        # the coupling decides the width: any fixed width of 16 rows per side
        # (or fewer) is silently wrong here
        fixed = _hp_reference(prob, n_max, half_width=16)
        assert _hp_rel_err(fixed, ref) > 1e-48


@given(st.floats(0.0, 300.0), st.integers(1, 60))
@settings(max_examples=20, deadline=None)
def test_hp_window_matches_full_recurrence_random(amplitude, n_max):
    prob = cosine_problem(amplitude=amplitude)
    assert _hp_rel_err(eigenvalues_hp(prob, n_max),
                       _hp_reference(prob, n_max)) <= 1e-48


def test_hp_newton_matches_constant_tridiagonal_closed_form():
    # diagonal d, couplings e: the eigenvalues are d + 2e cos(j pi/(n+1)),
    # j = 1..n.  No row is dominant, so the window is the whole matrix.
    n, d, e = 40, 2.5, 0.5
    seeds = linalg.eigh_tridiagonal(np.full(n, d), np.full(n - 1, e), eigvals_only=True)
    values = _newton_refine_tridiagonal([d] * n, [e * e] * (n - 1), seeds)
    with mp.workdps(60):
        exact = sorted(d + 2 * mp.mpf(e) * mp.cos(j * mp.pi / (n + 1))
                       for j in range(1, n + 1))
        assert max(abs(v - r) / abs(r) for v, r in zip(values, exact)) <= 1e-49
    # each value carries HP_DPS digits, not the 53 bits of an mpf built
    # outside mp.workdps(HP_DPS)
    assert all(v.bc > mp.libmp.dps_to_prec(HP_DPS) - 16 for v in values)


def test_hp_newton_refuses_unconverged_seed():
    prob = cosine_problem(amplitude=1.0)
    diag, offsq, _, _ = _parity_tridiagonals(prob, 40)
    with pytest.raises(ArithmeticError, match=r"seed 1000000\.0 .*dps=50"):
        _newton_refine_tridiagonal(diag, offsq, [1e6])


def test_hp_path_restrictions():
    Q2 = PeriodicFunction.constant(1.0, np.eye(2, dtype=complex))
    with pytest.raises(ValueError):
        eigenvalues_hp(SpectralProblem(Q2), 8)
    wide = PeriodicFunction.from_modes(1.0, {2: 0.5})
    with pytest.raises(ValueError):
        eigenvalues_hp(SpectralProblem(wide), 8)


def test_hp_trace_refusal():
    import mpmath as mp

    for prob in shifted_cosines():
        for n_max in (4, 12):
            for t in (mp.mpf(1) / 2, mp.mpf(1) / 100):
                follow_one_suggestion(heat_trace_hp, EXP_CUT + 15, prob, n_max, t)
