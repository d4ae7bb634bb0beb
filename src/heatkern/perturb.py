"""Closed second-order forms of the heat trace and the determinant shift.

For a potential with Fourier modes q_k the heat trace is, exactly through
second order in the potential,

    Omega(t) = theta(t/a^2) 2 pi a (N - t tr q0)
               + pi a t^2 sum_{k in Z} |q_k|^2 beta_k(t/a^2),

where |q_k|^2 = tr(q_k q_k^dagger) and ``beta_k`` is the lattice pairing
weight below (beta_0 = theta, and beta_k -> alpha(t k^2) in the continuum
limit).  Pushing the same expansion through the Mellin transform gives the
large-shift determinant family

    b_q(lam) = 2 pi a q mu^{q-1} tr q0
               + pi a q (q-1) mu^{q-2} sum_{k in Z} |q_k|^2 f_{q-2}(k^2/(mu a^2)),

mu = -lam, whose q = 1/2 value is the determinant correction gamma; via
f_{-3/2}(z) = 4/(z+4) it collapses to the rational form

    gamma(lam) = pi a tr q0 / sqrt(mu)
                 - pi a^3 / sqrt(mu) * sum_{k in Z} |q_k|^2 / (k^2 + 4 mu a^2).

Both k-sums run over the whole lattice including k = 0 (the constant-
potential check Omega = 2 pi a theta e^{-tc} pins that term and the
coefficient pi a of the quadratic part; see the test suite).  Everything
here is an asymptotic statement in a sqrt(-lam) (resp. small t/a^2).
"""

from __future__ import annotations

import math
from typing import NamedTuple

import numpy as np

from .heatcoeffs import global_invariant, refuse_beyond_memory
from .specfun import EXP_CUT, f_q, theta


def beta_k(k: int, t: float) -> float:
    """Pairing weight of lattice mode k at dimensionless time t:

        beta_k(t) = sqrt(t/pi) int_0^1 dxi
                    sum_n exp(-t [n^2 + (1+xi)/2 (k^2 - 2 n k)]).

    With x = t k (k - 2n) / 2 the xi-integral of term n is elementary,
    e^{-t n^2} (e^{-x} - e^{-2x}) / x = e^{-t n^2 - min(x, 2x)} (1 - e^{-|x|}) / |x|;
    the exponential is the integrand's larger endpoint value (at most 1) and
    expm1 takes the rest, so nothing overflows or cancels.  Terms beyond the
    e^{-45} radius of the Gaussian in n are dropped.  beta_{-k} = beta_k.
    """
    if not (t > 0.0 and math.isfinite(t)):
        raise ValueError("beta_k needs t > 0")
    k = abs(int(k))
    radius = math.sqrt(EXP_CUT / t) + 1.0
    ns = np.arange(math.floor(k / 2 - radius), math.ceil(k + radius) + 1,
                   dtype=float)
    x = 0.5 * t * k * (k - 2.0 * ns)
    u = np.abs(x)
    ramp = np.divide(-np.expm1(-u), u, out=np.ones_like(u), where=u > 0.0)
    terms = np.exp(-t * ns * ns - np.minimum(x, 2.0 * x)) * ramp
    return math.sqrt(t / math.pi) * math.fsum(terms)


def _mode_weights(Q) -> list[tuple[int, float, float]]:
    """(k, lattice multiplicity, |q_k|^2) for k >= 0 with nonzero weight."""
    out = []
    for k in range(Q.bandwidth + 1):
        w = Q.mode_norm_sq(k)
        if w != 0.0:
            out.append((k, 1.0 if k == 0 else 2.0, w))
    return out


def omega_exact2(problem, t: float) -> float:
    """Normalized heat trace, exact through second order in the potential:
    the theta-dressed Weyl plus tr q0 term, plus one term per +-k pair."""
    if not (t > 0.0 and math.isfinite(t)):
        raise ValueError("omega expansion needs t > 0")
    Q = problem.Q
    a = problem.a
    tau = t / a ** 2
    tr_q0 = float(np.trace(Q.mean()).real)
    mean_term = theta(tau) * 2.0 * math.pi * a * (problem.dim - t * tr_q0)
    return mean_term + math.fsum(math.pi * a * t * t * mult * w * beta_k(k, tau)
                                 for k, mult, w in _mode_weights(Q))


class SpectralCorrection(NamedTuple):
    """The (b_q, gamma) pair of :func:`bq_gamma`."""

    b_q: float
    gamma: float


def bq_gamma(problem, q: float, lam: float) -> SpectralCorrection:
    """Large-shift spectral forms of B_q(lam) minus its free part, and of
    the determinant correction gamma = b_{1/2}.  Requires lam < 0; accuracy
    is O(eps^3) plus relative corrections e^{-2 pi a sqrt(-lam)}."""
    if not (lam < 0.0 and math.isfinite(lam)):
        raise ValueError("spectral forms need lam < 0")
    a = problem.a
    mu = -lam
    Q = problem.Q
    tr_q0 = float(np.trace(Q.mean()).real)
    weights = _mode_weights(Q)
    ssum = math.fsum(mult * w * f_q(q - 2.0, k * k / (mu * a * a))
                     for k, mult, w in weights)
    b_q = (2.0 * math.pi * a * q * mu ** (q - 1.0) * tr_q0
           + math.pi * a * q * (q - 1.0) * mu ** (q - 2.0) * ssum)
    gsum = math.fsum(mult * w / (k * k + 4.0 * mu * a * a)
                     for k, mult, w in weights)
    gamma = (math.pi * a * tr_q0 / math.sqrt(mu)
             - math.pi * a ** 3 / math.sqrt(mu) * gsum)
    return SpectralCorrection(b_q, gamma)


def weyl_log_det(problem, lam: float) -> float:
    """Leading free-determinant growth 2 pi a N sqrt(-lam)."""
    if not lam < 0.0:
        raise ValueError("Weyl term needs lam < 0")
    return 2.0 * math.pi * problem.a * problem.dim * math.sqrt(-lam)


def resummed_omega(invariants, t: float) -> float:
    """Partial sum sum_k (-t)^k A_k / k! of the local expansion over the
    given invariants A_0..A_order.

    Asymptotic in t/a^2 -> 0: the terms grow past the optimal order, they
    do not converge at fixed t.
    """
    if not invariants:
        raise ValueError("order must be >= 0")
    return math.fsum(
        (-t) ** k * a_k / math.factorial(k) for k, a_k in enumerate(invariants))


def _require_own_spectrum(problem, eigen) -> None:
    if eigen.problem is not problem:
        raise ValueError("eigendata was computed from a different problem")


def trace_comparison_rows(problem, eigen, ts, order: int = 6):
    """(t, Omega_oracle, Omega_eps2, Omega_resummed) rows for reporting;
    ``eigen`` must be the spectrum of ``problem``.  The refusals come
    cheapest first: an order beyond memory, then the oracle column, so that
    a truncation it refuses costs no invariant."""
    from .oracle import omega as oracle_omega

    _require_own_spectrum(problem, eigen)
    refuse_beyond_memory(order, scalar=False)
    ts = [float(t) for t in ts]
    oracle = [oracle_omega(eigen, t) for t in ts]
    invariants = [global_invariant(k, problem.Q).value for k in range(order + 1)]
    return [(t, o, omega_exact2(problem, t), resummed_omega(invariants, t))
            for t, o in zip(ts, oracle)]


def det_comparison_rows(problem, eigen, lams):
    """(lam, logDet_oracle, Weyl, gamma) rows for reporting; ``eigen`` must
    be the truncation of ``problem``, whose spectrum the Hill determinant
    never computes."""
    from .oracle import log_det

    _require_own_spectrum(problem, eigen)
    rows = []
    for lam in lams:
        lam = float(lam)
        corr = bq_gamma(problem, 0.5, lam)
        rows.append((
            lam,
            log_det(eigen, lam),
            weyl_log_det(problem, lam),
            corr.gamma,
        ))
    return rows
