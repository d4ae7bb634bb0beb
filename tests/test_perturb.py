"""Second-order trace/determinant forms: lattice weights, the spectral
b_q/gamma family, and their agreement with the brute-force oracle."""

import math

import mpmath as mp
import numpy as np
import pytest

from heatkern.heatcoeffs import global_invariant
from heatkern.oracle import (
    SpectralProblem,
    b_function,
    eigendata,
    floquet_log_det,
    relative_log_det,
    zeta,
)
from heatkern.oracle import omega as oracle_omega
from heatkern.periodic import PeriodicFunction
from heatkern.perturb import (
    SpectralCorrection,
    beta_k,
    bq_gamma,
    det_comparison_rows,
    omega_exact2,
    resummed_omega,
    trace_comparison_rows,
    weyl_log_det,
)
from heatkern.specfun import alpha, theta


def two_eps_cosine(eps, a=1.0):
    # Q = 2 eps cos(x/a): modes q_{+-1} = eps
    return SpectralProblem(PeriodicFunction.cosine(a, 2.0 * eps))


# ------------------------------------------------------------------ beta_k

def test_beta_zero_is_theta():
    for t in np.geomspace(1e-3, 10.0, 9):
        assert abs(beta_k(0, t) - theta(t)) <= 1e-10


def test_beta_negative_mode_symmetry():
    assert beta_k(-3, 0.7) == beta_k(3, 0.7)


def test_beta_continuum_limit_is_alpha():
    # |beta_k(t) - alpha(t k^2)| collapses like the Poisson error e^{-pi^2/t}
    errs = [abs(beta_k(3, tau) - alpha(tau * 9.0)) for tau in (1.0, 0.5, 0.25)]
    assert errs[0] > errs[1] > errs[2]
    assert errs[1] <= 1e-9
    assert errs[2] <= 1e-13


@pytest.mark.parametrize("t", [0.05, 1.0, 10.0, 50.0, 200.0])
def test_beta_matches_quadrature_of_its_definition(t):
    # the lattice sum of the definition, integrated by mpmath at 30 digits
    with mp.workdps(30):
        tt = mp.mpf(t)
        radius = int(mp.sqrt(80 / tt)) + 3
        for k in (1, 2, 3, 5, 8):
            ref = mp.sqrt(tt / mp.pi) * mp.quad(lambda xi: mp.fsum(
                mp.exp(-tt * (n * n + (1 + xi) / 2 * (k * k - 2 * n * k)))
                for n in range(-radius, k + radius + 1)), [0, 1])
            assert abs(beta_k(k, t) - ref) <= 1e-14 * ref, (k, t)


def test_beta_domain():
    for bad in (0.0, -1.0, math.inf):
        with pytest.raises(ValueError):
            beta_k(1, bad)


# ------------------------------------------------------------- omega eps^2

def test_omega_exact2_constant_potential_algebra():
    # for Q = c the expansion must equal 2 pi a theta (1 - tc + t^2c^2/2)
    c, t, a = 0.3, 0.8, 1.5
    prob = SpectralProblem(
        PeriodicFunction.constant(a, np.array([[c]], dtype=complex)))
    tau = t / a ** 2
    ref = 2.0 * math.pi * a * theta(tau) * (1.0 - t * c + 0.5 * t * t * c * c)
    assert abs(omega_exact2(prob, t) - ref) <= 1e-12 * ref


def test_omega_exact2_mode_breakdown():
    # Q = 2 eps cos x has tr q0 = 0 and one +-1 pair with |q_1|^2 = eps^2:
    # Omega = 2 pi theta(t) + pi t^2 * 2 eps^2 beta_1(t)
    eps, t = 0.1, 0.5
    mean_term = 2.0 * math.pi * theta(t)
    mode_term = math.pi * t * t * 2.0 * eps ** 2 * beta_k(1, t)
    assert omega_exact2(two_eps_cosine(eps), t) == pytest.approx(
        mean_term + mode_term, rel=1e-15)


def test_omega_exact2_error_scales_as_eps4():
    # the expansion is exact through eps^2 and the potential couples only
    # through closed even paths, so the first error term is eps^4
    errs = []
    for eps in (0.1, 0.05, 0.025):
        prob = two_eps_cosine(eps)
        e = eigendata(prob, 64)
        errs.append(abs(oracle_omega(e, 0.5) - omega_exact2(prob, 0.5)))
    slope = np.polyfit(np.log([0.1, 0.05, 0.025]), np.log(errs), 1)[0]
    assert abs(slope - 4.0) <= 0.1
    assert errs[0] <= 1e-5


# ---------------------------------------------------------------- bq_gamma

def test_bq_gamma_unpacks_as_pair():
    # 2x2 Hermitian potential of bandwidth 2 with noncommuting modes
    matrix = SpectralProblem(PeriodicFunction.from_modes(1.0, {
        0: [[0.3, 0.1 - 0.2j], [0.1 + 0.2j, -0.4]],
        1: [[0.1j, 0.2], [-0.05, 0.15]],
        2: [[0.05, -0.1j], [0.08, 0.02 + 0.03j]],
    }))
    for prob in (two_eps_cosine(0.05), matrix):
        corr = bq_gamma(prob, 0.5, -4.0)
        assert isinstance(corr, SpectralCorrection)
        b, g = corr
        assert b == corr.b_q and g == corr.gamma
        # q = 1/2 reduction: f_{-3/2}(z) = 4/(z+4) turns b_q into gamma
        assert corr.gamma == pytest.approx(corr.b_q, abs=1e-15)


def test_bq_gamma_domain():
    prob = two_eps_cosine(0.05)
    with pytest.raises(ValueError):
        bq_gamma(prob, 0.5, 0.0)


def test_gamma_second_order_coefficient_against_period_map():
    # Exact second-order statement at lam = -c^2, Q = 2 eps cos x:
    #   logDet(eps) - logDet(0) = eps^2 * [-(2 pi / c) coth(pi c) / (4c^2+1)]
    #                              + O(eps^4).
    # gamma carries the same constant without the coth factor, i.e. up to
    # the e^{-2 pi c} boundary correction -- resolvable at c = 2.
    # Both the period-map difference and the Hill determinant's relative
    # part measure it.
    c, eps = 2.0, 1e-3
    coeff = -2.0 * math.pi / (c * (1.0 + 4.0 * c * c))
    coth = 1.0 / math.tanh(math.pi * c)
    for measured in (
            floquet_log_det(two_eps_cosine(eps), -c * c)
            - floquet_log_det(SpectralProblem.free(1.0), -c * c),
            relative_log_det(eigendata(two_eps_cosine(eps), 64), -c * c)):
        assert abs(measured / eps ** 2 - coeff * coth) <= 1e-6 * abs(coeff)
    # and gamma itself equals coeff * eps^2 for this potential
    g = bq_gamma(two_eps_cosine(eps), 0.5, -c * c).gamma
    assert abs(g - coeff * eps ** 2) <= 1e-12 * abs(coeff * eps ** 2) + 1e-18


def test_gamma_instrument_resolves_the_eps4_error():
    # perturbative-scaling measures the error of gamma on relative_log_det at
    # n_max 64; its truncation must sit far below that error (measured
    # 5.4e-18 / 3.4e-19 / 2.1e-20 against 6.7e-15 / 4.2e-16 / 2.6e-17)
    lam = -900.0
    for eps in (0.1, 0.05, 0.025):
        prob = two_eps_cosine(eps)
        coarse = relative_log_det(eigendata(prob, 64), lam)
        error = abs(coarse - bq_gamma(prob, 0.5, lam).gamma)
        assert abs(coarse - relative_log_det(eigendata(prob, 1000), lam)) <= 0.01 * error


def test_bq_matches_oracle_for_generic_q():
    # B_q(lam) - B_q^free(lam) against the spectral form at a sqrt(-lam) = 8,
    # q = -1/2; the free part is 2 sum_n (n^2 + 64)^{-1} = (pi/4) coth(8 pi)
    eps = 0.05
    prob = two_eps_cosine(eps)
    e = eigendata(prob, 140)
    B = b_function(e, -0.5, -64.0)
    B_free = math.pi / 4.0 / math.tanh(8.0 * math.pi)
    corr = bq_gamma(prob, -0.5, -64.0)
    assert abs((B - B_free) - corr.b_q) <= 1e-11


def test_gamma_small_shift_trend():
    # for tr q0 = 0: gamma sqrt(-lam) / (pi a) -> -a^2 sum_{n!=0} |q_n|^2/n^2
    eps = 0.05
    prob = two_eps_cosine(eps)
    target = -2.0 * eps ** 2
    scaled = [bq_gamma(prob, 0.5, lam).gamma * math.sqrt(-lam) / math.pi
              for lam in (-1e-2, -1e-4, -1e-6)]
    errs = [abs(s - target) for s in scaled]
    assert errs[0] > errs[1] > errs[2]
    assert errs[2] <= 1e-5 * abs(target)


# ------------------------------------------------------------ resummation

def _invariants(prob, order):
    return [global_invariant(k, prob.Q).value for k in range(order + 1)]


def test_resummed_omega_low_orders():
    prob = two_eps_cosine(0.3, a=2.0)
    assert resummed_omega(_invariants(prob, 0), 0.1) == pytest.approx(4.0 * math.pi)
    c = 0.7
    const = SpectralProblem(
        PeriodicFunction.constant(1.0, np.array([[c]], dtype=complex)))
    t = 0.4
    partial = sum((-t * c) ** k / math.factorial(k) for k in range(5))
    assert resummed_omega(_invariants(const, 4), t) == pytest.approx(2.0 * math.pi * partial)


def test_resummed_omega_tracks_oracle_at_small_t():
    prob = SpectralProblem(PeriodicFunction.cosine(1.0))
    e = eigendata(prob, 80)
    assert abs(resummed_omega(_invariants(prob, 6), 0.05)
               - oracle_omega(e, 0.05)) <= 1e-10


def test_resummed_omega_domain():
    prob = two_eps_cosine(0.1)
    with pytest.raises(ValueError):
        resummed_omega([], 0.1)
    with pytest.raises(ValueError, match="order"):
        trace_comparison_rows(prob, eigendata(prob, 32), [0.5], order=-1)


# -------------------------------------------------------------- reporting

def test_trace_comparison_rows():
    prob = two_eps_cosine(0.1)
    e = eigendata(prob, 64)
    rows = trace_comparison_rows(prob, e, [0.1, 0.5])
    assert len(rows) == 2 and all(len(r) == 4 for r in rows)
    for t, om_oracle, om_eps2, om_resum in rows:
        assert abs(om_oracle - om_eps2) <= 1e-4
        assert math.isfinite(om_resum)


def test_det_comparison_rows():
    prob = two_eps_cosine(0.1)
    e = eigendata(prob, 64)
    rows = det_comparison_rows(prob, e, [-4.0, -9.0])
    for lam, ld, weyl, g in rows:
        assert weyl == weyl_log_det(prob, lam)
        # oracle determinant sits near Weyl + free-boundary + gamma
        free_rest = 2.0 * math.log1p(-math.exp(-2.0 * math.pi * math.sqrt(-lam)))
        assert abs(ld - (weyl + free_rest + g)) <= 1e-4


def test_each_sweep_evaluates_its_invariants_once(monkeypatch):
    import heatkern.diffpoly as dp

    calls = []
    real = dp.evaluate
    monkeypatch.setattr(dp, "evaluate", lambda *args: calls.append(args) or real(*args))
    prob = two_eps_cosine(0.1)
    e = eigendata(prob, 300)
    lams = -np.geomspace(1.0, 400.0, 12)
    rows = det_comparison_rows(prob, e, lams)
    assert calls == []  # the Hill determinant reads no invariant
    assert det_comparison_rows(prob, e, lams) == rows
    assert all(math.isfinite(zeta(e, s, -1.0)) for s in (1.5, 2.0, 2.5, 3.0, 3.5, 4.0))
    assert len(calls) == 9  # A_0..A_8, read by every s
    trace_comparison_rows(prob, e, 0.002 * 1.6 ** np.arange(14), order=6)
    assert len(calls) == 9 + 7  # A_0..A_6, read by every t


def test_rows_refuse_the_spectrum_of_another_problem():
    # same radius, different potential: the rows would mix two operators
    prob = two_eps_cosine(0.1)
    other = eigendata(two_eps_cosine(0.2), 32)
    with pytest.raises(ValueError, match="different problem"):
        trace_comparison_rows(prob, other, [0.5])
    with pytest.raises(ValueError, match="different problem"):
        det_comparison_rows(prob, other, [-4.0])
