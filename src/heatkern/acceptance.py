"""Runnable acceptance checks.

Each check exercises one advertised guarantee of the package end to end, at
its stated tolerance, and reports a one-line quantitative summary.  The test
suite and the ``verify`` CLI subcommand both run exactly these functions, so
"the tests pass" and "the installed tool verifies" cannot drift apart.

One check (``perturbative-scaling``) is currently expected to FAIL: it
demands a cubic error law for expansions around a pure-cosine potential, but
every spectral functional of ``Q = 2 eps cos(x/a)`` is even in ``eps`` (the
potential couples Fourier modes only through balanced +1/-1 hop sequences),
so the leading neglected term is quartic.  Both halves, the heat trace and
the Hill determinant's relative part, measure slope 4.00.  The check states
the advertised requirement faithfully rather than bending it to pass; the
README's "Known red check" section carries the analysis.
"""

from __future__ import annotations

import functools
import math
import os
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .diffpoly import ZERO, commutative_image, differentiate, make
from .heatcoeffs import (
    diagonal_coefficient_recursive,
    global_invariant,
    taylor_coefficient,
    w_coefficient,
)
from .kdvflow import (
    conservation_report,
    integrate_flow,
    trace_pairing,
    variational_derivative,
)
from .oracle import (
    HP_DPS,
    SpectralProblem,
    b_function,
    eigendata,
    heat_trace,
    heat_trace_hp,
    omega,
    relative_log_det,
)
from .periodic import PeriodicFunction
from .perturb import bq_gamma, omega_exact2
from .specfun import alpha_ode_residual, f_q_quadrature, theta

__all__ = ["CheckResult", "CHECK_NAMES", "run_check", "run_all",
           "exact_cosine_invariant"]


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    detail: str


# ---------------------------------------------------------------------------
# support: exact invariants of the cosine potential
# ---------------------------------------------------------------------------


def exact_cosine_invariant(k: int) -> Fraction:
    """``A_k / (2 pi)`` for ``Q = cos x``, ``a = 1``, in exact arithmetic.

    Writing ``cos^(d)(x) = (1/2) sum_{s=+-1} (s i)^d e^{isx}``, the zero mode
    of a word ``(d_1 .. d_m)`` is a sum over balanced sign vectors, which
    put ``m/2`` minus signs on the letters; each of the ``p`` that falls on
    an odd letter flips the sign.  With ``o`` odd letters that sum is
    ``sum_p (-1)^p C(o, p) C(m - o, m/2 - p)`` (zero for odd ``m``), and the
    phase ``i^(d_1+..+d_m)`` collapses to ``(-1)^(k-m)`` because each word of
    ``[a_k]`` has total derivative order ``2k - 2m``.  The sum depends only
    on each word's multiset of letters, so it runs over the commutative
    image.  Exactness here matters: the small-t check resolves residuals
    near 1e-24, far below what float64 invariants could anchor.
    """
    total = Fraction(0)
    for mono in commutative_image(taylor_coefficient(k, 0)).terms():
        m = len(mono.word)
        if m % 2:
            continue
        odd = sum(d % 2 for d in mono.word)
        acc = sum((-1) ** p * math.comb(odd, p) * math.comb(m - odd, m // 2 - p)
                  for p in range(min(odd, m // 2) + 1))
        total += mono.coeff * Fraction(acc * (-1) ** (k - m), 2 ** m)
    return total


def _cosine_problem(amplitude: float = 1.0) -> SpectralProblem:
    return SpectralProblem(PeriodicFunction.cosine(1.0, amplitude))


def _loglog_slope(xs, ys) -> float:
    return float(np.polyfit(np.log(np.asarray(xs, dtype=float)),
                            np.log(np.asarray(ys, dtype=float)), 1)[0])


# ---------------------------------------------------------------------------
# the checks
# ---------------------------------------------------------------------------


def _check_symbolic_ground_truth():
    q = make(1, (0,))
    expected = {
        1: q,
        2: make(1, (0, 0)) - make(Fraction(1, 3), (2,)),
        3: (make(1, (0, 0, 0))
            - make(Fraction(1, 2), (0, 2))
            - make(Fraction(1, 2), (2, 0))
            - make(Fraction(1, 2), (1, 1))
            + make(Fraction(1, 10), (4,))),
    }
    bad = [k for k, p in expected.items() if taylor_coefficient(k, 0) != p]
    return not bad, ("[a1], [a2], [a3] equal their canonical forms exactly"
                     if not bad else f"mismatch at k ∈ {bad}")


def _check_recursion_cross_validation():
    for k in range(0, 9):
        if diagonal_coefficient_recursive(k, scalar=True) != commutative_image(
                taylor_coefficient(k, 0)):
            return False, f"scalar recursions disagree at k = {k}"
    for k in range(0, 6):
        if diagonal_coefficient_recursive(k) != taylor_coefficient(k, 0):
            return False, f"matrix recursions disagree at k = {k}"
    return True, "ladder and integration recursions agree: scalar k <= 8, matrix k <= 5"


def _check_free_trace_identity():
    worst = 0.0
    for a, dim, n_max in ((1.0, 1, 96), (1.7, 2, 160)):
        ed = eigendata(SpectralProblem.free(a, dim), n_max)
        for tau in np.geomspace(0.01, 10.0, 13):
            t = tau * a * a
            ref = 2.0 * math.pi * a * dim * (4.0 * math.pi * t) ** -0.5 * theta(tau)
            worst = max(worst, abs(heat_trace(ed, t) - ref) / ref)
    return worst <= 1e-10, f"free heat trace vs theta: worst rel {worst:.2e} (tol 1e-10)"


def _check_small_t_asymptotics():
    import mpmath as mp

    eigen = eigendata(_cosine_problem(), 280)
    eigen.eigenvalues_hp  # one 50-digit solve, before the nine sums
    ts = np.geomspace(1e-3, 1e-1, 9)
    residuals = []
    with mp.workdps(HP_DPS):
        coeffs = [mp.mpf(f.numerator) / f.denominator
                  for f in (exact_cosine_invariant(k) for k in range(7))]
        for t in ts:
            tt = mp.mpf(float(t))
            om = mp.sqrt(4 * mp.pi * tt) * heat_trace_hp(eigen, tt)
            series = 2 * mp.pi * mp.fsum(
                (-tt) ** k / mp.factorial(k) * c for k, c in enumerate(coeffs))
            residuals.append(abs(float(om - series)))
    slope = _loglog_slope(ts, residuals)
    ok = abs(slope - 7.0) <= 0.3
    return ok, (f"residual of the 6-term series: slope {slope:.4f} "
                f"(need 7 +- 0.3), range {residuals[0]:.2e}..{residuals[-1]:.2e}")


def _check_determinant_benchmark():
    target = 6.279446930026116322662  # 2 log(2 sinh pi)
    prob = SpectralProblem(
        PeriodicFunction.constant(1.0, np.array([[1.0]], dtype=complex)))
    err = abs(b_function(eigendata(prob, 64), 0.5, 0.0) - target)
    return err <= 1e-6, f"|log Det - 2 log(2 sinh pi)| = {err:.2e} (tol 1e-6)"


def _check_perturbative_scaling():
    eps_list = (0.1, 0.05, 0.025)
    t, lam = 0.5, -900.0  # a sqrt(-lambda) = 30
    omega_errors, gamma_errors = [], []
    for eps in eps_list:
        prob = _cosine_problem(2.0 * eps)
        eigen = eigendata(prob, 64)
        omega_errors.append(abs(omega(eigen, t) - omega_exact2(prob, t)))
        gamma_errors.append(abs(relative_log_det(eigen, lam)
                                - bq_gamma(prob, 0.5, lam).gamma))
    slope_omega = _loglog_slope(eps_list, omega_errors)
    slope_gamma = _loglog_slope(eps_list, gamma_errors)

    ok = abs(slope_omega - 3.0) <= 0.3 and abs(slope_gamma - 3.0) <= 0.3
    return ok, (f"error slopes: Omega {slope_omega:.4f}, gamma {slope_gamma:.2f} "
                "(need 3 +- 0.3 both; expansions in 2 eps cos are even in eps, "
                "so the true law of both is eps^4)")


def _check_special_function_identities():
    worst_f = max(abs(f_q_quadrature(-1.5, z) - 4.0 / (z + 4.0))
                  for z in np.linspace(0.0, 100.0, 41))
    worst_ode = max(abs(alpha_ode_residual(z))
                    for z in np.geomspace(1e-3, 1e3, 61))
    worst_theta = max(abs(theta(tau) - math.sqrt(tau / math.pi) * theta(math.pi ** 2 / tau))
                      for tau in np.geomspace(0.01, 100.0, 37))
    ok = worst_f <= 1e-10 and worst_ode <= 1e-10 and worst_theta <= 1e-12
    return ok, (f"f(-3/2) vs 4/(z+4): {worst_f:.2e} (1e-10); alpha ODE residual: "
                f"{worst_ode:.2e} (1e-10); theta duality: {worst_theta:.2e} (1e-12)")


def _check_variational_derivative():
    rng = np.random.default_rng(20260814)
    def rand_fn():
        re, im = rng.uniform(-0.4, 0.4, size=4), rng.uniform(-0.4, 0.4, size=2)
        return PeriodicFunction.from_modes(1.0, {
            0: re[0], 1: re[1] + 1j * im[0], 2: re[2] + 1j * im[1]})
    Q, phi = rand_fn(), rand_fn()
    h, worst = 1e-5, 0.0
    for k in range(1, 5):
        fd = (global_invariant(k, Q + phi * h).value
              - global_invariant(k, Q + phi * (-h)).value) / (2.0 * h)
        pair = trace_pairing(phi, variational_derivative(k, Q))
        worst = max(worst, abs(fd - pair) / abs(pair))
    return worst <= 1e-6, (f"central differences vs k[a_(k-1)] pairing, k <= 4: "
                           f"worst rel {worst:.2e} (tol 1e-6)")


# (flow, s_end, steps, grid, record, invariants).  Flow 2 at the advertised
# scale doubles as the k = 2 cross row; flow 1 is integrated exactly by the
# phase factors; flow 3 runs at the largest scale its stiffness admits (the
# symbol ~ 20 max|Q| (grid/3)^3 makes grid 256 / s_end 1 unreachable by any
# explicit scheme); the last two runs halve the step.
_FLOW_RUNS = (
    (2, 1.0, 10000, 256, 33, ("A2", "A3", "A4", "A5", "I1", "I2", "I3")),
    (1, 1.0, 64, 256, 9, ("I1", "I2", "I3")),
    (3, 0.01, 5000, 64, 9, ("I1", "I2", "I3")),
    (2, 0.5, 1000, 96, 17, ("A2", "A3", "A4")),
    (2, 0.5, 2000, 96, 17, ("A2", "A3", "A4")),
)


def _flow_drifts(run) -> dict[str, float]:
    flow, s_end, steps, grid, record, invariants = run
    trajectory = integrate_flow(flow, PeriodicFunction.cosine(1.0), s_end, steps,
                                grid=grid, record=record)
    return conservation_report(trajectory, list(invariants)).drifts


def _conservation_verdict(drifts):
    flow2, flow1, flow3, coarse, fine = drifts
    flow2_drift = max(flow2[n] for n in ("A2", "A3", "A4", "A5"))
    cross = {1: max(flow1.values()), 2: max(flow2[n] for n in ("I1", "I2", "I3")),
             3: max(flow3.values())}
    ratios = [coarse[n] / fine[n] for n in ("A2", "A3", "A4")]

    ok = (flow2_drift <= 1e-6 and max(cross.values()) <= 1e-6
          and all(10.0 <= r <= 26.0 for r in ratios))
    return ok, (f"flow-2 drift A2..A5: {flow2_drift:.2e}; cross-drifts I_m "
                f"under flows 1/2/3: {cross[1]:.2e}/{cross[2]:.2e}/{cross[3]:.2e} "
                f"(tol 1e-6); halving ratios {min(ratios):.1f}..{max(ratios):.1f} "
                "(need ~16)")


def _check_conservation_involution():
    return _conservation_verdict([_flow_drifts(run) for run in _FLOW_RUNS])


def _check_w_identity():
    q = make(1, (0,))
    for k in range(1, 5):
        w = w_coefficient(k)
        ak = taylor_coefficient(k, 0)
        if differentiate(w) != q * ak - ak * q:
            return False, f"D(W_k) != [Q, [a_k]] at k = {k}"
        if commutative_image(w) != ZERO:
            return False, f"scalar image of W_{k} is not zero"
    return True, "D(W_k) = [Q, [a_k]] exactly for k <= 4; scalar W_k vanishes"


_CHECKS = {
    "symbolic-ground-truth": _check_symbolic_ground_truth,
    "recursion-cross-validation": _check_recursion_cross_validation,
    "free-trace-identity": _check_free_trace_identity,
    "small-t-asymptotics": _check_small_t_asymptotics,
    "determinant-benchmark": _check_determinant_benchmark,
    "perturbative-scaling": _check_perturbative_scaling,
    "special-function-identities": _check_special_function_identities,
    "variational-derivative": _check_variational_derivative,
    "conservation-involution": _check_conservation_involution,
    "w-identity": _check_w_identity,
}

CHECK_NAMES = list(_CHECKS)


def _check(name: str):
    if name not in _CHECKS:
        raise ValueError(f"unknown check {name!r}; choose from {CHECK_NAMES}")
    return _CHECKS[name]


def _result(name: str, check) -> CheckResult:
    try:
        passed, detail = check()
    except Exception as exc:  # a crash is a failed guarantee, not a crash of the runner
        passed, detail = False, f"raised {type(exc).__name__}: {exc}"
    return CheckResult(name, bool(passed), detail)


def run_check(name: str) -> CheckResult:
    """Run one named check; unexpected exceptions count as failures."""
    return _result(name, _check(name))


def _worker_count(jobs: int) -> int:
    """One per CPU this process may use (one where that is unknown), at most ``jobs``."""
    return min(jobs, len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else 1)


def run_all(only: list[str] | None = None) -> list[CheckResult]:
    """Run the named checks (all by default), each as :func:`run_check` would.

    Each check and each flow run of ``conservation-involution`` is one job;
    the jobs run longest first on one forked worker per usable CPU, or in
    process on one CPU.  Not spawn: a spawned worker imports heatkern again,
    which costs about what the pool saves.
    """
    import multiprocessing
    from concurrent.futures import ProcessPoolExecutor

    names = CHECK_NAMES if only is None else list(only)
    checks = {name: _check(name) for name in names}
    flows = ([(_flow_drifts, run) for run in _FLOW_RUNS]
             if "conservation-involution" in checks else [])
    singles = [(checks[name],) for name in checks if name != "conservation-involution"]
    # longest first, by seconds measured one job at a time: the flow runs 0.79
    # (grid 256), 0.01, 0.26 (flow 3), 0.045, 0.075, small-t 0.16, others < 0.02
    seconds = dict(zip(flows, (0.79, 0.01, 0.26, 0.045, 0.075)))
    seconds[(_CHECKS["small-t-asymptotics"],)] = 0.16
    jobs = sorted(flows + singles, key=lambda job: -seconds.get(job, 0.0))
    workers = _worker_count(len(jobs))
    if workers > 1 and "fork" in multiprocessing.get_all_start_methods():
        fork = multiprocessing.get_context("fork")
        with ProcessPoolExecutor(workers, mp_context=fork) as pool:
            outcome = {job: pool.submit(*job).result for job in jobs}
    else:
        outcome = {job: functools.partial(*job) for job in jobs}
    return [_result(name, outcome[(checks[name],)]) if name != "conservation-involution"
            else _result(name, lambda: _conservation_verdict([outcome[job]() for job in flows]))
            for name in names]
