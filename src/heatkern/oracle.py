"""Brute-force spectral ground truth for -D^2 + Q on the circle.

A plane-wave Galerkin truncation, modes ordered 0, 1, -1, 2, -2, ... so the
diagonal ascends, turns the operator into a Hermitian band matrix that
LAPACK's banded routines read in lower band storage (the graded order keeps
the small eigenvalues accurate).  ``eigendata(problem, n_max)`` returns an
:class:`EigenData` that holds the truncation and computes its spectrum on
first use, so everything downstream takes the truncation alone:

* ``heat_trace(eigen, t)`` / ``omega(eigen, t)`` -- exponential sums with
  explicit refusal when the truncation cannot support the requested time,
* ``b_function(eigen, q, lam)`` -- the Mellin family B_q(lambda) via a
  split integral: the small-t series in the local invariants integrated
  termwise and continued in q, and one upper incomplete gamma per computed
  eigenvalue beyond, split where the series has converged,
* ``zeta(eigen, s, lam)`` -- the same family at q = 1/2 - s, continued in
  s down to -5.5 except at its poles,
* ``log_det(eigen, lam)`` -- the Hill determinant: the free determinant in
  closed form times one banded Cholesky of the rescaled Galerkin band, plus
  the second-order tail in closed form; it needs no eigenvalues and no
  invariants.

``floquet_log_det`` is an entirely independent determinant route for any
bundle dimension (det(I - M) of the 2N x 2N period map M, by multiple
shooting) used to cross-check the other two.

Conventions: potential modes q_n with q_{-n} = q_n^dagger, free eigenvalue
of mode n is (n/a)^2, eigenvalues are reported sorted ascending.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass
from functools import cached_property

import numpy as np
from scipy import linalg, special

from .errors import ResolutionError
from .heatcoeffs import global_invariant
from .periodic import PeriodicFunction
from .specfun import EXP_CUT


# ----------------------------------------------------------------- problem

def _json_int(value, name: str) -> int:
    """A JSON integer; floats such as 1.5 are refused, not truncated."""
    if isinstance(value, bool) or not isinstance(value, int):
        raise ValueError(f"{name} must be an integer, got {value!r}")
    return value


def _json_float(value, name: str) -> float:
    """A JSON number; booleans and strings are refused, not converted."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ValueError(f"{name} must be a number, got {value!r}")
    return float(value)


@dataclass(frozen=True)
class SpectralProblem:
    """Potential bundle on a circle of radius a: the data of -D^2 + Q.

    The radius and the bundle dimension are those of ``Q``.
    """

    Q: PeriodicFunction

    def __post_init__(self):
        if not (self.a > 0.0 and math.isfinite(self.a)):
            raise ValueError("radius a must be positive and finite")
        # the band solver reads one triangle only: refuse, never symmetrise
        if not self.Q.is_hermitian():
            raise ValueError("potential violates q_{-n} = q_n^dagger")

    @property
    def a(self) -> float:
        return self.Q.a

    @property
    def dim(self) -> int:
        return self.Q.matrix_dim

    @property
    def bandwidth(self) -> int:
        return self.Q.bandwidth

    @cached_property
    def invariants(self) -> tuple[float, ...]:
        """``A_0..A_K`` (K = SERIES_ORDER), evaluated once per problem: every
        Mellin value of a sweep over lambda or s reads the same ones.  Only
        the Mellin route (``b_function``, so ``zeta``) reads them."""
        return tuple(global_invariant(k, self.Q).value for k in range(SERIES_ORDER + 1))

    @classmethod
    def free(cls, a: float = 1.0, dim: int = 1) -> "SpectralProblem":
        return cls(PeriodicFunction.zero(a, dim))

    @classmethod
    def from_json_obj(cls, obj: dict) -> "SpectralProblem":
        try:
            a = _json_float(obj["a"], "radius a")
            dim = _json_int(obj["N"], "N")
            raw = obj["modes"]
        except (KeyError, TypeError) as exc:
            raise ValueError(f"problem JSON missing field: {exc}") from exc
        except OverflowError as exc:
            raise ValueError(f"radius a is beyond the float64 range: {exc}") from exc
        if not isinstance(raw, list):
            raise ValueError("modes must be a list of {n, matrix} objects")
        given: dict[int, np.ndarray] = {}
        for entry in raw:
            if not (isinstance(entry, dict) and "n" in entry and "matrix" in entry):
                raise ValueError("every mode entry must be an object with n and matrix")
            n = _json_int(entry["n"], "mode index n")
            try:
                m = np.array([[complex(_json_float(re, "entry"), _json_float(im, "entry"))
                               for re, im in row] for row in entry["matrix"]], dtype=complex)
            except (TypeError, ValueError, OverflowError) as exc:
                raise ValueError(f"mode {n}: matrix must be N rows of N [re, im] "
                                 f"pairs of float64 numbers ({exc})") from exc
            if not np.isfinite(m).all():
                raise ValueError(f"mode {n}: matrix entries must be finite")
            if n in given:
                raise ValueError(f"mode {n} listed twice")
            given[n] = m
        # from_modes checks the shapes and sets q_{-n} := q_n^dagger for any
        # one-sided mode; a two-sided pair that is not adjoint is refused
        return cls(PeriodicFunction.from_modes(a, given, dim))


# -------------------------------------------------------------- eigenvalues

def _graded(n: np.ndarray) -> np.ndarray:
    """Block position of mode n in the order 0, 1, -1, 2, -2, ..."""
    return 2 * np.abs(n) - (n > 0)


def assemble(problem: SpectralProblem, n_max: int) -> np.ndarray:
    """Hermitian Galerkin matrix on plane waves |n| <= n_max, in LAPACK lower
    band storage: ``ab[i - j, j] = H[i, j]`` for ``0 <= i - j <= kd``.

    Block (n, m) is (n/a)^2 delta_{nm} + q_{n-m}, with mode n at block
    position 2|n| - [n > 0], so the diagonal ascends and the band height is
    kd = (2B+1)N - 1.  Refuses n_max below the potential bandwidth, where
    the matrix would silently drop couplings.
    """
    bw = problem.bandwidth
    if n_max < bw:
        raise ResolutionError(
            f"n_max={n_max} cannot represent a bandwidth-{bw} potential",
            suggestion={"n_max": bw},
        )
    N = problem.dim
    ab = np.zeros(((2 * bw + 1) * N, (2 * n_max + 1) * N), dtype=complex)
    ns = (np.arange(2 * n_max + 1) + 1) // 2          # |n| at each block
    ab[0] = np.repeat((ns * ns) * (1.0 / problem.a ** 2), N)
    alpha, beta = np.divmod(np.arange(N * N), N)
    for k in range(-bw, bw + 1):
        qk = problem.Q.mode(k)
        if not np.any(qk):
            continue
        n = np.arange(max(-n_max, k - n_max), min(n_max, n_max + k) + 1)
        rows = (_graded(n) * N)[:, None] + alpha
        cols = (_graded(n - k) * N)[:, None] + beta
        lower = rows >= cols
        ab[(rows - cols)[lower], cols[lower]] += np.broadcast_to(
            qk[alpha, beta], rows.shape)[lower]
    return ab


@dataclass(frozen=True)
class EigenData:
    """The Galerkin truncation |n| <= n_max of ``problem``.  Its sorted
    spectrum is computed on first use, so a determinant sweep, which reads
    only the truncation, never eigensolves; the tail formulas read the
    radius, the bundle dimension, the bandwidth and the mean mode from
    ``problem``."""

    problem: SpectralProblem
    n_max: int

    @cached_property
    def eigenvalues(self) -> np.ndarray:
        vals = linalg.eigvals_banded(assemble(self.problem, self.n_max), lower=True)
        vals.setflags(write=False)
        return vals

    @property
    def lambda_min(self) -> float:
        return float(self.eigenvalues[0])

    @property
    def lambda_max(self) -> float:
        return float(self.eigenvalues[-1])


def eigendata(problem: SpectralProblem, n_max: int) -> EigenData:
    return EigenData(problem, n_max)


def _fits_in_memory(problem: SpectralProblem, n_max: int) -> bool:
    """Whether the band storage of truncation n_max, (kd+1)(2 n_max+1)N
    complex entries, fits in physical memory."""
    entries = (2 * problem.bandwidth + 1) * problem.dim ** 2 * (2 * n_max + 1)
    return 16 * entries <= os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES")


def _refusal(problem: SpectralProblem, reason: str, n_max: int) -> ResolutionError:
    """Refusal suggesting ``n_max``, or none where it does not fit in memory."""
    if not _fits_in_memory(problem, n_max):
        return ResolutionError(f"{reason}; no n_max that fits in memory can anchor the tail")
    return ResolutionError(reason, suggestion={"n_max": n_max})


def _truncation_error(eigen: EigenData, reason: str, t: float,
                      lam: float = 0.0) -> ResolutionError:
    """Refusal of a truncation whose top misses the e^{-45} floor at heat
    time t, suggesting the n_max that reaches it where one fits in memory."""
    problem = eigen.problem
    n_max = (math.ceil(problem.a * math.sqrt(max(EXP_CUT / t + lam, 1.0)))
             + problem.bandwidth + 2)
    return _refusal(problem, reason, n_max)


def heat_trace(eigen: EigenData, t: float) -> float:
    """Theta(t) = sum_n exp(-t lambda_n) over the computed spectrum.

    Refuses when the truncation top does not reach the e^{-45} floor at
    this t — the missing tail would alias into the answer.
    """
    if not (t > 0.0 and math.isfinite(t)):
        raise ValueError("heat time t must be positive and finite")
    if t * eigen.lambda_max < EXP_CUT:
        raise _truncation_error(
            eigen, f"truncation n_max={eigen.n_max} too small for t={t:g}: "
            f"t*lambda_max={t * eigen.lambda_max:.2f} < {EXP_CUT}", t)
    return float(np.sum(np.exp(-t * eigen.eigenvalues)))


def omega(eigen: EigenData, t: float) -> float:
    """Normalized trace (4 pi t)^{1/2} Theta(t)."""
    return math.sqrt(4.0 * math.pi * t) * heat_trace(eigen, t)


# ------------------------------------------------------------ Mellin family

SERIES_ORDER = 8


def _upper_gamma(beta: float, x: np.ndarray) -> np.ndarray:
    """Unregularized upper incomplete gamma, any real beta, x > 0."""
    if beta > 1e-12:
        return special.gammaincc(beta, x) * special.gamma(beta)
    if abs(beta) <= 1e-12:
        return special.exp1(x)
    # one stable step of the downward recurrence; x <= ~46 here, so the
    # cancellation costs at most a couple of digits per level
    return (_upper_gamma(beta + 1.0, x) - x ** beta * np.exp(-x)) / beta


def _dressed_series(problem: SpectralProblem, lam: float) -> list[float]:
    """Taylor coefficients g_0..g_K of e^{t lam} Omega(t) at t = 0, from the
    invariants A_0..A_K (K = SERIES_ORDER)."""
    inv_list = problem.invariants
    return [math.fsum(lam ** (m - k) / math.factorial(m - k)
                      * (-1.0) ** k * inv_list[k] / math.factorial(k)
                      for k in range(m + 1))
            for m in range(SERIES_ORDER + 1)]


def _mellin_split(eigen: EigenData, q: float, lam: float, g: list[float],
                  t_star: float) -> float:
    """B_q(lam) split at t_star: the series g integrated termwise on
    (0, t*] and continued in q, one upper incomplete gamma per computed
    eigenvalue beyond; at q = k = 0, 1, 2, ... the limit (-1)^k k! g_k."""
    # q <= K - 2 keeps the series part's truncation error, O(t*^(K+1-q)),
    # at least cubic in t*
    if not (math.isfinite(q) and q <= len(g) - 3):
        raise ValueError(f"q={q:g} needs series order > {len(g) - 1}")
    mu_all = eigen.eigenvalues - lam
    # split-point consistency: the truncated series must still describe the
    # dressed trace at t*, else the answer would silently lose digits
    g_series = math.fsum(g_m * t_star ** m for m, g_m in enumerate(g))
    g_exact = math.sqrt(4.0 * math.pi * t_star) * float(
        np.sum(np.exp(-t_star * mu_all)))
    if abs(g_series - g_exact) > 1e-6 * max(1.0, abs(g_exact)):
        raise _truncation_error(
            eigen, f"series/spectrum mismatch {abs(g_series - g_exact):.3g} at "
            f"t_star={t_star:g}; the split point sits outside the series range",
            t_star / 2.0, lam)
    if q >= 0 and float(q).is_integer():
        return (-1.0) ** q * math.factorial(int(q)) * g[int(q)]
    small = math.fsum(g_m * t_star ** (m - q) / (m - q) for m, g_m in enumerate(g))
    mu = np.asarray(mu_all[mu_all * t_star <= EXP_CUT + 1.0], dtype=float)
    tail = math.sqrt(4.0 * math.pi) * math.fsum(
        mu ** (q - 0.5) * _upper_gamma(0.5 - q, mu * t_star))
    return (small + tail) / special.gamma(-q)


def b_function(eigen: EigenData, q: float, lam: float) -> float:
    """Mellin transform B_q(lam) of the normalized heat trace.

    B_q = [sum_m g_m t*^(m-q) / (m-q) + sqrt(4 pi) sum_n mu_n^(q-1/2)
    Gamma(1/2-q, mu_n t*)] / Gamma(-q), with mu_n = lambda_n - lam: the
    termwise integral of the small-t series on (0, t*], which continues in
    q by itself, plus the exact integral of the computed spectrum beyond.
    q = 1/2 is the log-determinant; q > 6 is beyond the series order.

    The split point t* is where the last series term g_K t*^K falls to
    1e-16 g_0, clamped from above by min(a^2/4, 0.2/max(1, -lam)), which
    keeps |lam| t* small, and from below by EXP_CUT/mu_max, so the computed
    spectrum reaches the e^{-45} floor of the tail; a truncation too small
    for both is refused with a workable ``n_max`` where one fits in memory.
    """
    problem = eigen.problem
    margin = 1e-3 / problem.a ** 2
    if not -math.inf < lam <= eigen.lambda_min - margin:
        raise ValueError(f"lam={lam:g} is not finite or too close to the "
                         f"spectrum (lambda_1={eigen.lambda_min:g})")
    hi = min(problem.a ** 2 / 4.0, 0.2 / max(1.0, -lam))
    lo = EXP_CUT / (eigen.lambda_max - lam)
    if lo > hi:
        raise _truncation_error(
            eigen, f"truncation top {eigen.lambda_max:.3g} cannot anchor the "
            f"tail at t_star={hi:g}", hi, lam)
    g = _dressed_series(problem, lam)
    t_conv = (1e-16 * abs(g[0]) / abs(g[-1])) ** (1.0 / SERIES_ORDER) if g[-1] else hi
    return _mellin_split(eigen, q, lam, g, max(lo, min(hi, t_conv)))


def zeta(eigen: EigenData, s: float, lam: float) -> float:
    """Spectral zeta sum_n (lambda_n - lam)^{-s}, continued in s through
    the Mellin family: zeta(s) = Gamma(s - 1/2) / (2 sqrt(pi) Gamma(s))
    B_{1/2-s}(lam).

    Refuses the real poles s = 1/2 - k (k >= 0), s < -5.5 (beyond the
    series order), an s whose value or Gamma factors overflow float64, and
    a non-finite s or lam.  At s = 0, -1, -2, ... the value is exactly 0.
    """
    if not (math.isfinite(s) and math.isfinite(lam)):
        raise ValueError("zeta needs finite s and lam")
    if s <= 0.5 and (0.5 - s).is_integer():
        raise ValueError(f"zeta has a pole at s={s:g}")
    if s < -5.5:
        raise ValueError(f"zeta at s={s:g} needs series order > {SERIES_ORDER}")
    with np.errstate(over="ignore", invalid="ignore"):
        value = float(special.gamma(s - 0.5) * special.rgamma(s)
                      / (2.0 * math.sqrt(math.pi)) * b_function(eigen, 0.5 - s, lam))
    if not math.isfinite(value):
        raise ValueError(f"the Mellin route overflows float64 at s={s:g}")
    return value + 0.0   # turns -0.0 (s = 0, -2, ...) into 0, never printed "-0"


# ------------------------------------------------------- Hill determinant

DET_TAIL_RTOL = 1e-8   # third-order tail estimate against max(1, |log Det|)


def _log_2sinh(x: float) -> float:
    """log(2 sinh x) for x > 0, neither overflowing nor cancelling."""
    return x + math.log(-math.expm1(-2.0 * x))


def _pair_sum(k: int, a: float, sigma: float) -> float:
    """sum over n in Z of 1/(D_n D_{n-k}), D_n = (n/a)^2 + sigma > 0.

    With s = a sqrt(sigma) it is a^4 2 pi coth(pi s) / (s (k^2 + 4 s^2)) for
    k != 0 and a^4 [pi coth(pi s) / (2 s^3) + pi^2 / (2 s^2 sinh^2(pi s))]
    at k = 0, written in e^{-2 pi s} and sqrt(sigma) so that it neither
    overflows (sigma = 1e300) nor cancels (sigma -> 0).
    """
    root = math.sqrt(sigma)
    s = a * root
    e = math.exp(-2.0 * math.pi * s)
    one_minus_e = -math.expm1(-2.0 * math.pi * s)
    coth = (1.0 + e) / one_minus_e
    if k:
        return 2.0 * math.pi * a * coth / root / ((k / a) * (k / a) + 4.0 * sigma)
    csch = 2.0 * math.pi * a * math.exp(-math.pi * s) / one_minus_e  # pi a / sinh(pi s)
    return (math.pi * a * coth / (2.0 * root) + 0.5 * csch * csch) / sigma


def _cube_tail(c: int, a: float, sigma: float) -> float:
    """Upper bound on sum_{m >= c} D_m^{-3}, c >= 1: its first term plus
    the integral of the decreasing D^{-3} from c, which is at most
    a^2 D_c^{-2} min(1/(5c), pi/(2 a sqrt(sigma)))."""
    r = 1.0 / ((c / a) * (c / a) + sigma)
    s = a * math.sqrt(sigma)
    reach = 0.2 / c if 0.4 * s <= math.pi * c else 0.5 * math.pi / s
    return r * r * r + (a * r) * (a * r) * reach


def _split_mean(problem: SpectralProblem) -> tuple[float, np.ndarray]:
    """q_bar = tr q_0 / N and v_0 = q_0 - q_bar, the zero mode of Q - q_bar."""
    q0 = problem.Q.mean()
    q_bar = float(np.trace(q0).real) / problem.dim
    return q_bar, q0 - q_bar * np.eye(problem.dim)


def _third_order_estimate(problem: SpectralProblem, n_max: int, sigma: float) -> float:
    """N W^3 sum_{|m| > n_max - 2B} D_m^{-3}, W = sum_k ||v_k||_2: the size
    of the third-order products of modes that reach past the truncation."""
    width = float(np.linalg.norm(_split_mean(problem)[1], 2)) + 2.0 * sum(
        float(np.linalg.norm(problem.Q.mode(k), 2))
        for k in range(1, problem.bandwidth + 1))
    edge = n_max - 2 * problem.bandwidth
    cubes = 2.0 * _cube_tail(max(edge, 0) + 1, problem.a, sigma)
    if edge < 0:
        cubes += (1.0 / sigma) ** 3
    return problem.dim * width * width * width * cubes


def log_det(eigen: EigenData, lam: float) -> float:
    """log Det(L - lam) as a Hill determinant, with no eigensolve.

    With q_bar = tr q_0 / N, sigma = q_bar - lam, D_n = (n/a)^2 + sigma and
    v_k the modes of V = Q - q_bar,

        log Det = 2N log(2 sinh(pi a sqrt(sigma))) + log det(I + K) + T_2,

    the free determinant of -D^2 + sigma times the Fredholm determinant of
    I + K, K = D^{-1/2} V D^{-1/2}.  On the truncation |n| <= n_max,
    I + K = D^{-1/2} (H - lam) D^{-1/2} is ``assemble``'s band rescaled, and
    log det(I + K), the sum of the logs of its squared Cholesky pivots,
    takes one banded Cholesky.  The first-order tail vanishes
    (tr v_0 = 0); the second-order tail is

        T_2 = -1/2 sum_{|k| <= B} tr(v_k v_{-k}) sum' 1/(D_n D_{n-k})

    over the pairs (n, n - k) not both inside: the closed-form lattice sum
    :func:`_pair_sum` minus the pairs inside.  What remains is third order,
    about n_max^-5.

    Refuses, with ``ValueError``, a non-finite lam, a lam with sigma <= 0
    (lambda_1 <= min eig q_0 <= q_bar, so it is not below the spectrum) and
    a lam at which the Cholesky fails, at or above the truncation's lowest
    eigenvalue.  Refuses, with ``ResolutionError``, a truncation whose
    third-order tail estimate :func:`_third_order_estimate` exceeds
    DET_TAIL_RTOL max(1, |log Det|), suggesting the smallest n_max that
    meets it where one fits in memory.
    """
    problem, n_max = eigen.problem, eigen.n_max
    if not math.isfinite(lam):
        raise ValueError(f"lam={lam:g} is not finite")
    N, a, bw = problem.dim, problem.a, problem.bandwidth
    q_bar, v0 = _split_mean(problem)
    sigma = q_bar - lam
    if not sigma > 0.0:
        raise ValueError(f"lam={lam:g} is not below the spectrum: "
                         f"lambda_1 <= tr q_0 / N = {q_bar:g}")
    ab = assemble(problem, n_max)
    ns = (np.arange(2 * n_max + 1) + 1) // 2          # |n| at each block
    d = np.repeat((ns / a) ** 2 + sigma, N)
    diag_k = np.tile(np.diag(v0).real, 2 * n_max + 1) / d
    ab[0] = 1.0 + diag_k
    scale = 1.0 / np.sqrt(d)
    for r in range(1, ab.shape[0]):
        ab[r, :-r] *= scale[r:] * scale[:-r]
    try:
        chol = linalg.cholesky_banded(ab, lower=True)
    except np.linalg.LinAlgError:
        raise ValueError(f"lam={lam:g} is not below the spectrum of the "
                         f"truncation n_max={n_max}") from None
    # the squared pivots 1 + K_jj - sum_i |L_ji|^2 from the factor's
    # off-diagonal part: its diagonal, a square root within ulps of 1 on
    # the high modes, rounds away from 1 on half of them, a bias of 1e-13
    # in log det(I + K) at n_max = 1000
    pivot_less_one = diag_k.copy()
    for r in range(1, chol.shape[0]):
        pivot_less_one[r:] -= np.abs(chol[r, :-r]) ** 2
    recip = 1.0 / ((np.arange(-n_max, n_max + 1) / a) ** 2 + sigma)
    t2 = 0.0
    for k in range(bw + 1):
        weight = (float(np.linalg.norm(v0)) ** 2 if k == 0
                  else 2.0 * problem.Q.mode_norm_sq(k))
        if weight:
            inside = float(recip[k:] @ recip[:recip.size - k])
            t2 -= 0.5 * weight * (_pair_sum(k, a, sigma) - inside)
    value = (2.0 * N * _log_2sinh(math.pi * a * math.sqrt(sigma))
             + float(np.sum(np.log1p(pivot_less_one))) + t2)
    if not math.isfinite(value):
        raise OverflowError(f"log Det(L - lam) at lam={lam:g} is beyond float64")

    tol = DET_TAIL_RTOL * max(1.0, abs(value))
    estimate = _third_order_estimate(problem, n_max, sigma)
    if estimate > tol:
        reason = (f"truncation n_max={n_max} too small for lam={lam:g}: "
                  f"third-order tail estimate {estimate:.3g} > {tol:.3g}")
        lo, hi = n_max, 2 * n_max + 1
        while _third_order_estimate(problem, hi, sigma) > tol:
            if not _fits_in_memory(problem, hi):
                raise _refusal(problem, reason, hi)
            lo, hi = hi, 2 * hi
        while hi - lo > 1:
            mid = (lo + hi) // 2
            if _third_order_estimate(problem, mid, sigma) > tol:
                lo = mid
            else:
                hi = mid
        raise _refusal(problem, reason, hi)
    return value


# ------------------------------------------------- independent determinant

FLOQUET_RTOL = 1e-12


def floquet_log_det(problem: SpectralProblem, lam: float) -> float:
    """log Det(L - lam) through the period map M(lam) of -psi'' + (Q-lam) psi:
    Det = (-1)^N det(I_2N - M), any bundle dimension N.

    M grows like exp(sqrt(-lam) x) and is never formed.  The period is cut
    into m panels short enough that each propagator P_j (2N x 2N, started
    from the identity) stays well inside float64; all of them are
    integrated in one batched call, and det(I - P_m...P_1) is the
    determinant of the block-cyclic matrix with I on the diagonal and -P_j
    in block (j+1 mod m, j).  A sign other than (-1)^N means Det <= 0 (an
    odd number of eigenvalues below lam) and raises ``ArithmeticError``.
    Completely independent of the Galerkin routes — used as a cross-check
    oracle.
    """
    from scipy.integrate import solve_ivp

    N, bw = problem.dim, problem.bandwidth
    period = 2.0 * math.pi * problem.a
    q_scale = float(np.max(np.linalg.norm(
        problem.Q.sample(max(64, 4 * bw + 4)), 2, axis=(1, 2))))
    rate = math.sqrt(max(-lam, 0.0) + q_scale + 1.0)
    panels = max(4, math.ceil(rate * period / 20.0))
    ns = np.arange(-bw, bw + 1)
    modes = np.stack([problem.Q.mode(n) for n in ns])
    starts = period / panels * np.arange(panels)
    shift = lam * np.eye(N)

    def rhs(x, y):
        # Q - lam at offset x into every panel at once
        phases = np.exp(1j / problem.a * np.outer(starts + x, ns))
        W = np.einsum("jn,nab->jab", phases, modes) - shift
        P = y.reshape(panels, 2 * N, 2 * N)
        return np.concatenate([P[:, N:], W @ P[:, :N]], axis=1).ravel()

    start = np.tile(np.eye(2 * N, dtype=complex), (panels, 1, 1)).ravel()
    sol = solve_ivp(rhs, (0.0, period / panels), start, method="DOP853",
                    rtol=FLOQUET_RTOL, atol=1e-14)
    if not sol.success:
        raise ArithmeticError(f"period-map integration failed: {sol.message}")
    C = np.eye(panels * 2 * N, dtype=complex).reshape(panels, 2 * N, panels, 2 * N)
    j = np.arange(panels)
    C[(j + 1) % panels, :, j, :] = -sol.y[:, -1].reshape(panels, 2 * N, 2 * N)
    sign, log_abs = np.linalg.slogdet(C.reshape(panels * 2 * N, -1))
    if (sign * (-1) ** N).real <= 0.0:
        raise ArithmeticError("period-map determinant is not positive: "
                              f"lam={lam:g} not below the spectrum?")
    return float(log_abs)


# ------------------------------------------------------ high-precision path

HP_DPS = 50  # decimal digits of the eigenvalues, the Newton steps and the trace


def _parity_tridiagonals(problem: SpectralProblem, n_max: int):
    """Cosine/sine split of a real even scalar potential of bandwidth <= 1.

    Returns (diag_even, offsq_even, diag_odd, offsq_odd) where offsq holds
    the *squares* of the off-diagonal couplings: the cosine block's first
    coupling is sqrt(2) q_1, whose square 2 q_1^2 is exact in binary while
    the root is not, and only the square enters the Newton recurrence.
    """
    if problem.dim != 1:
        raise ValueError("high-precision path supports dim = 1 only")
    if problem.bandwidth > 1:
        raise ValueError("high-precision path supports bandwidth <= 1 only")
    q0 = complex(problem.Q.mode(0)[0, 0])
    q1 = complex(problem.Q.mode(1)[0, 0]) if problem.bandwidth >= 1 else 0.0 + 0.0j
    if abs(q0.imag) > 1e-14 or abs(q1.imag) > 1e-14:
        raise ValueError("high-precision path needs a real even potential")
    q0, q1 = q0.real, q1.real
    inv_a2 = 1.0 / problem.a ** 2
    diag_even = [q0] + [m * m * inv_a2 + q0 for m in range(1, n_max + 1)]
    offsq_even = [2.0 * q1 * q1] + [q1 * q1] * (n_max - 1)
    diag_odd = [m * m * inv_a2 + q0 for m in range(1, n_max + 1)]
    offsq_odd = [q1 * q1] * (n_max - 1)
    return diag_even, offsq_even, diag_odd, offsq_odd


def _window_edge(diag, off, centre: int, seed: float, log_tol: float,
                 step: int) -> int:
    """Last row to keep when walking from ``centre`` in direction ``step``.

    Beyond a row j of T - seed that is diagonally dominant (|d_j - seed| -
    |e_outer| > |e_link|), an eigenvector decays by at most
    |e_link| / (|d_j - seed| - |e_outer|) per row, and cutting the link
    to row j moves the eigenvalue, to first order, by at most (decay
    product so far) * e_link^2 / (|d_j - seed| - |e_outer|).  The walk
    stops once that estimate is below exp(log_tol); a row that is not
    dominant restarts the product, and without dominance the walk reaches
    the matrix edge.
    """
    n = len(diag)
    log_decay = 0.0
    i = centre
    while 0 <= i + step < n:
        j = i + step
        link = off[min(i, j)]
        outer = off[min(j, j + step)] if 0 <= j + step < n else 0.0
        margin = abs(diag[j] - seed) - outer
        if margin > link:
            if link == 0.0:
                return i
            log_ratio = math.log(link) - math.log(margin)
            if log_decay + log_ratio + math.log(link) <= log_tol:
                return i
            log_decay += 2.0 * log_ratio
        else:
            log_decay = 0.0
        i = j
    return i


def _newton_refine_tridiagonal(diag, offsq, seeds):
    """Refine float64 eigenvalue seeds of a symmetric tridiagonal matrix to
    ``HP_DPS`` digits via Newton on the characteristic-polynomial recurrence.
    ``offsq`` carries the squared couplings (float-to-mpf is exact).

    Each seed's recurrence runs only over a window of rows around the row
    whose diagonal is nearest the seed.  The window ends on each side where
    the decay bound of :func:`_window_edge` puts the eigenvalue change from
    the dropped rows below 10^-(HP_DPS+4) max(1, |seed|); where diagonal
    dominance never sets in, it is the whole matrix.  A seed whose Newton
    iteration does not converge in 8 steps raises ``ArithmeticError``.
    """
    import mpmath as mp

    diag_arr = np.asarray(diag, dtype=float)
    off = np.sqrt(np.asarray(offsq, dtype=float)).tolist()
    d = [mp.mpf(x) for x in diag]
    e2 = [mp.mpf(x) for x in offsq]
    refined = []
    with mp.workdps(HP_DPS):
        for seed in seeds:
            seed = float(seed)
            centre = int(np.argmin(np.abs(diag_arr - seed)))
            log_tol = math.log(max(1.0, abs(seed))) - (HP_DPS + 4) * math.log(10.0)
            lo = _window_edge(diag, off, centre, seed, log_tol, -1)
            hi = _window_edge(diag, off, centre, seed, log_tol, +1)
            lam = mp.mpf(seed)
            for _ in range(8):
                p_prev, p = mp.mpf(1), d[lo] - lam
                dp_prev, dp = mp.mpf(0), mp.mpf(-1)
                for k in range(lo + 1, hi + 1):
                    p_new = (d[k] - lam) * p - e2[k - 1] * p_prev
                    dp_new = -p + (d[k] - lam) * dp - e2[k - 1] * dp_prev
                    p_prev, p = p, p_new
                    dp_prev, dp = dp, dp_new
                step = p / dp
                lam -= step
                if abs(step) <= mp.mpf(10) ** (-(HP_DPS - 2)) * max(1, abs(lam)):
                    break
            else:
                raise ArithmeticError(
                    f"Newton refinement of seed {seed!r} did not converge "
                    f"in 8 steps at dps={HP_DPS}")
            refined.append(lam)
    return refined


def eigenvalues_hp(problem: SpectralProblem, n_max: int):
    """All Galerkin eigenvalues (|n| <= n_max) of a real even scalar
    potential, refined to ``HP_DPS`` digits.  Returns a sorted list of mpf.

    float64 seeds of the cosine and sine tridiagonal blocks are Newton-refined
    on a window of rows around each seed, cut where the diagonal-dominance
    decay bound puts the dropped rows' effect below 10^-(HP_DPS+4) relative;
    where dominance never sets in the window is the whole block.
    """
    de, oe, do, oo = _parity_tridiagonals(problem, n_max)
    out = []
    for diag, offsq in ((de, oe), (do, oo)):
        if len(diag) == 1:
            seeds = np.array(diag)
        else:
            seeds = linalg.eigh_tridiagonal(
                np.array(diag), np.sqrt(np.array(offsq)), eigvals_only=True)
        out.extend(_newton_refine_tridiagonal(diag, offsq, seeds))
    return sorted(out)


def heat_trace_hp(values, t):
    """High-precision Theta(t) over the sorted spectrum ``values`` of one
    :func:`eigenvalues_hp` run, reusable across many t; same refusal rule
    as the float64 path."""
    import mpmath as mp

    with mp.workdps(HP_DPS):
        tt = mp.mpf(t)
        if tt * values[-1] < EXP_CUT + 15:
            n_max = (len(values) - 1) // 2
            raise ResolutionError(
                f"hp truncation n_max={n_max} too small for t={float(t):g}",
                suggestion={"n_max": n_max * 2},
            )
        return mp.fsum(mp.e ** (-tt * v) for v in values)
