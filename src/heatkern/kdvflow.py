"""Hierarchy flows generated by the integrated heat invariants.

The scalar potential evolves by ``dQ/ds = D(dI_k/dQ)`` where the rescaled
invariants are ``I_k = (-1)^k (2k)!/(k!(k+1)!) A_{k+1}`` and the functional
gradient is a multiple of the diagonal coefficient, ``dI_k/dQ =
(-1)^k C(2k,k) [a_k]``.  Flow ``k = 1`` is pure transport, ``k = 2`` is the
familiar ``12 Q Q' - 2 Q'''`` equation (in this normalization), and every
``I_m`` is conserved along every flow -- the property the integrator here
exists to exhibit.

Time stepping is classical four-stage Runge-Kutta applied to the
integrating-factor transform of the spectral state: the constant-coefficient
part of the right-hand side (``-2 D^{2k-1}`` for every ``k``, by the leading
linear term of ``[a_k]``) is absorbed into exact phase factors, so only the
variable-coefficient remainder limits the step.  Without the transform the
dispersive symbol ``2 (grid/3)^{2k-1}`` would force absurd step counts at
any useful resolution (for ``k = 3`` on a 256-point grid the bare stability
limit is below ``1e-9``).  Space is Fourier-collocation with the 2/3 rule
applied after every pairwise product, so quadratic and cubic terms are
alias-free.  The state holds only the modes that rule keeps, and one batched
transform each way serves all derivative orders and all products.

Stability heuristic for choosing ``steps`` (see :func:`suggested_steps`):
the surviving stiffness comes from variable-coefficient terms like
``Q * D^{2k-2}`` in the gradient; a safe step is roughly
``2.5 / (2 |c_k| max|Q| (grid/3)^{2k-3})`` with ``c_k = (-1)^k C(2k,k)``.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from . import diffpoly as dp
from .errors import FlowDivergenceError, ResolutionError
from .heatcoeffs import diagonal_coefficient_recursive, global_invariant, taylor_coefficient
from .periodic import PeriodicFunction

__all__ = [
    "FlowState",
    "ConservationReport",
    "invariant_rescale",
    "gradient_rescale",
    "variational_derivative",
    "trace_pairing",
    "suggested_steps",
    "integrate_flow",
    "conservation_report",
]


def invariant_rescale(k: int) -> Fraction:
    """Rescaling constant: ``I_k = invariant_rescale(k) * A_{k+1}``."""
    return Fraction(gradient_rescale(k), k + 1)


def gradient_rescale(k: int) -> int:
    """Gradient constant: ``dI_k/dQ = gradient_rescale(k) * [a_k]``."""
    if k < 1:
        raise ValueError("flow index must be >= 1")
    return (-1) ** k * math.comb(2 * k, k)


# ---------------------------------------------------------------------------
# functional gradients
# ---------------------------------------------------------------------------


def variational_derivative(k: int, Q: PeriodicFunction) -> PeriodicFunction:
    """Functional gradient ``dA_k/dQ = k [a_{k-1}]`` of an integrated
    invariant at the potential ``Q``, evaluated on the anti-aliased grid.

    The gradient is the density whose pairing ``integral tr(phi . grad)``
    gives the first-order response of the invariant to ``Q -> Q + h phi``.
    """
    if k < 1:
        raise ValueError("k must be >= 1")
    poly = taylor_coefficient(k - 1, 0)
    grid = dp.fft_grid(dp.min_grid(poly, Q.bandwidth))
    return dp.evaluate(poly, Q, grid) * float(k)


def trace_pairing(f: PeriodicFunction, g: PeriodicFunction) -> float:
    """Exact circle integral ``integral tr(f(x) g(x)) dx`` for band-limited factors."""
    if f.matrix_dim != g.matrix_dim:
        raise ValueError("matrix dimensions differ")
    if abs(f.a - g.a) > 1e-12 * max(f.a, g.a):
        raise ValueError("circle radii differ")
    m = dp.fft_grid(2 * (f.bandwidth + g.bandwidth) + 1)
    prod = np.einsum("mij,mji->m", f.sample(m), g.sample(m))
    return float(np.mean(prod.real) * 2.0 * math.pi * f.a)


# ---------------------------------------------------------------------------
# pseudospectral integrator
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class FlowState:
    """One recorded snapshot of a hierarchy flow."""

    k: int
    s: float
    Q: PeriodicFunction
    grid: int
    dt: float


def _flow_operator(k: int, a: float, grid: int):
    """Split the flow-``k`` right-hand side for integrating-factor stepping.

    Returns ``(lin, nonlinear)``: the Fourier symbol of the constant-
    coefficient part, and the dealiased pseudospectral evaluator for the
    rest.  Both act on the ``grid // 3 + 1`` rfft modes the 2/3 rule keeps
    (``irfft(x, grid)`` zero-pads the others); interior letters of words of
    length 3 or more take an extra dealiasing round trip.
    """
    poly = diagonal_coefficient_recursive(k, scalar=True)
    kept = grid // 3 + 1
    ik = 1j * np.arange(kept, dtype=float) / a
    gik = float(gradient_rescale(k)) * ik
    lin_word = (2 * k - 2,)
    lin_coeff = Fraction(0)
    words: list[tuple[tuple[int, ...], float]] = []
    for mono in poly.terms():
        if mono.word == lin_word:
            lin_coeff = mono.coeff
        else:
            words.append((mono.word, float(mono.coeff)))
    lin = float(gradient_rescale(k) * lin_coeff) * ik ** (2 * k - 1)
    orders = sorted({d for word, _ in words for d in word})
    powers = np.array([ik ** d for d in orders]).reshape(len(orders), kept)
    # each word as rows of the batched derivative transform
    plan = [(orders.index(word[0]), [orders.index(d) for d in word[1:-1]],
             orders.index(word[-1]), coeff) for word, coeff in words]

    def nonlinear(u_hat: np.ndarray) -> np.ndarray:
        phys = np.fft.irfft(u_hat * powers, grid)
        prods = np.empty((len(plan), grid))
        for prod, (first, inner, last, _) in zip(prods, plan):
            cur = phys[first]
            for r in inner:
                cur = np.fft.irfft(np.fft.rfft(cur * phys[r])[:kept], grid)
            np.multiply(cur, phys[last], out=prod)
        acc = np.zeros(kept, dtype=complex)
        for spec, (_, _, _, coeff) in zip(np.fft.rfft(prods)[:, :kept], plan):
            acc += coeff * spec
        return gik * acc

    return lin, nonlinear


def suggested_steps(k: int, Q0: PeriodicFunction, s_end: float, grid: int = 256) -> int:
    """Step count from the documented stability heuristic (with safety margin).

    The variable-coefficient stiffness rate is taken as
    ``2 |c_k| amp (grid/3)^{2k-3}`` with ``amp = 2 max(1, max|Q0|)`` (flows
    from order-one data are observed to steepen by about that factor), and
    the step is held below a 0.15 phase-per-step envelope -- measured, not
    the textbook RK4 bound: with the integrating factor the remainder term
    turns weakly unstable near the dealiasing cutoff well before the plain
    CFL limit would bite.
    """
    if k == 1:
        return 64  # the transport flow is handled exactly by the phase factors
    amp = 2.0 * max(1.0, float(np.max(np.abs(Q0.sample_scalar(max(64, grid))))))
    omega = 2.0 * abs(gradient_rescale(k)) * amp * (grid // 3 / Q0.a) ** (2 * k - 3)
    return max(64, math.ceil(s_end * omega / 0.15))


def integrate_flow(k: int, Q0: PeriodicFunction, s_end: float, steps: int, *,
                   grid: int = 256, record: int = 33) -> list[FlowState]:
    """Run flow ``k`` from ``Q0`` to ``s_end`` and return recorded snapshots.

    ``record`` snapshots (including both endpoints) are sampled evenly in
    step index.  Blow-up raises :class:`FlowDivergenceError` carrying the
    last finite snapshot and a suggested larger step count.
    """
    if k < 1:
        raise ValueError("flow index must be >= 1")
    if Q0.matrix_dim != 1:
        raise ValueError("flows are scalar-only")
    if not (math.isfinite(s_end) and s_end > 0.0):
        raise ValueError("s_end must be positive and finite")
    if not 1 <= steps <= 2 ** 53:  # beyond 2**53, i and dt * i are not exact
        raise ValueError(f"steps must be between 1 and 2**53, got {steps}")
    if grid < 1:
        raise ValueError(f"grid must be >= 1, got {grid}")
    if grid // 3 < Q0.bandwidth:
        need = 3 * Q0.bandwidth + (3 * Q0.bandwidth) % 2
        raise ResolutionError(
            f"grid {grid} cannot hold bandwidth {Q0.bandwidth} inside the "
            f"2/3-rule band; need at least {need}", suggestion={"grid": need})

    lin, nonlinear = _flow_operator(k, Q0.a, grid)
    u = np.fft.rfft(Q0.sample_scalar(grid))[:lin.size]
    dt = s_end / steps
    half_dt, sixth_dt = 0.5 * dt, dt / 6.0
    half = np.exp(lin * (dt / 2.0))
    full = half * half
    twice_half = 2.0 * half
    record_at = {int(round(x)) for x in np.linspace(0.0, steps, max(2, record))}

    def snapshot(i: int, spec: np.ndarray) -> FlowState:
        Q = PeriodicFunction.from_samples(np.fft.irfft(spec, grid), Q0.a)
        return FlowState(k=k, s=dt * i, Q=Q, grid=grid, dt=dt)

    trajectory = [snapshot(0, u)]
    # blow-up is detected and reported as a typed error; silence the
    # overflow chatter numpy emits on the step that produces it
    with np.errstate(over="ignore", invalid="ignore"):
        for i in range(1, steps + 1):
            full_u = full * u
            k1 = nonlinear(u)
            k2 = nonlinear(half * (u + half_dt * k1))
            k3 = nonlinear(half * u + half_dt * k2)
            k4 = nonlinear(full_u + dt * (half * k3))
            u = full_u + sixth_dt * (full * k1 + twice_half * (k2 + k3) + k4)
            if not np.all(np.isfinite(u)):
                raise FlowDivergenceError(
                    f"flow {k} blew up near s = {dt * i:.6g} (dt = {dt:.3g}); "
                    "the step exceeds the stability envelope",
                    state=trajectory[-1], suggestion={"steps": 4 * steps})
            if i in record_at:
                trajectory.append(snapshot(i, u))
    return trajectory


# ---------------------------------------------------------------------------
# conservation diagnostics
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ConservationReport:
    """Invariant time series along a trajectory and their relative drifts."""

    flow_k: int
    grid: int
    dt: float
    s: np.ndarray
    series: dict[str, np.ndarray]
    drifts: dict[str, float]

    @property
    def max_drift(self) -> float:
        return max(self.drifts.values()) if self.drifts else 0.0


_INVARIANT_NAME = re.compile(r"^([AI])([0-9]+)$")


def conservation_report(trajectory: list[FlowState],
                        invariants: list[str]) -> ConservationReport:
    """Evaluate named invariants (``"A2"``, ``"I3"``, ...) along a trajectory.

    Drift is ``max_s |v(s) - v(0)|`` relative to ``max(|v(0)|, 1e-9)``; an
    invariant that is exactly conserved reports exactly 0.
    """
    if not trajectory:
        raise ValueError("empty trajectory")
    a_series: dict[int, np.ndarray] = {}

    def a_values(idx: int) -> np.ndarray:
        if idx not in a_series:
            a_series[idx] = np.array(
                [global_invariant(idx, state.Q).value for state in trajectory])
        return a_series[idx]

    series: dict[str, np.ndarray] = {}
    for name in invariants:
        m = _INVARIANT_NAME.match(name)
        if not m:
            raise ValueError(f"unknown invariant name {name!r}; use 'A<k>' or 'I<k>'")
        kind, idx = m.group(1), int(m.group(2))
        if kind == "A":
            series[name] = a_values(idx)
        else:
            if idx < 1:
                raise ValueError("rescaled invariants start at I1")
            series[name] = float(invariant_rescale(idx)) * a_values(idx + 1)
    drifts = {name: float(np.max(np.abs(vals - vals[0])) / max(abs(vals[0]), 1e-9))
              for name, vals in series.items()}
    first = trajectory[0]
    return ConservationReport(flow_k=first.k, grid=first.grid, dt=first.dt,
                              s=np.array([state.s for state in trajectory]),
                              series=series, drifts=drifts)
