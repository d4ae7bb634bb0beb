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
alias-free.  The state holds only the modes that rule keeps, and one real
FFT each way serves all derivative orders and all products; while they fit in
2**17 entries, those maps are applied as dense real matrices instead.

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
from .errors import ResolutionError
from .heatcoeffs import (
    diagonal_coefficient_recursive,
    global_invariant,
    refuse_beyond_memory,
    taylor_coefficient,
)
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
    "invariant_orders",
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

    s: float
    Q: PeriodicFunction


# Entries (1 MiB of float64) up to which _flow_operator uses dense DFT
# matrices: below it a matrix-vector product costs less than the 7-10 us
# overhead of an np.fft call, above it the O(grid^2) products cost more.
_MATRIX_ENTRIES = 2 ** 17
# The most steps suggested_steps plans, minutes at 50-100 us a step; at the
# kdv defaults flow 3 on cos x would plan 3.3e8 steps (hours), flow 4 8.3e12.
_MAX_PLANNED_STEPS = 10 ** 7


def _flow_operator(k: int, a: float, grid: int):
    """Split the flow-``k`` right-hand side for integrating-factor stepping.

    Returns ``(lin, nonlinear)``: the Fourier symbol of the constant-
    coefficient part, and the dealiased pseudospectral evaluator for the
    rest.  Both act on the ``grid // 3 + 1`` rfft modes the 2/3 rule keeps
    (``irfft(x, grid)`` zero-pads the others).

    The evaluator is written against three linear maps: ``to_phys`` samples
    every derivative order the words read, ``dealias`` is the 2/3-rule round
    trip that interior letters of words of length 3 or more take, and
    ``to_spec`` truncates the summed flux to the kept modes and applies
    ``gradient_rescale(k) D``.  The words are summed in physical space, so
    ``to_spec`` runs once.  Where the maps fit in ``_MATRIX_ENTRIES`` they
    are applied as the dense real matrices they are, read off the identity.
    The evaluator works in buffers of its own; each result is a new array.
    """
    poly = diagonal_coefficient_recursive(k, scalar=True)
    kept = grid // 3 + 1
    ik = 1j * np.arange(kept, dtype=float) / a
    gik = float(gradient_rescale(k)) * ik
    lin_coeff = Fraction(0)
    words: list[tuple[tuple[int, ...], float]] = []
    for mono in poly.terms():
        if mono.word == (2 * k - 2,):
            lin_coeff = mono.coeff
        else:
            words.append((mono.word, float(mono.coeff)))
    lin = float(gradient_rescale(k) * lin_coeff) * ik ** (2 * k - 1)
    orders = sorted({d for word, _ in words for d in word})
    powers = np.array([ik ** d for d in orders]).reshape(len(orders), kept)
    # each word as rows of the batched derivative transform, its coefficient
    # as the 0-d array numpy would make of the float on every call
    plan = [(orders.index(word[0]), [orders.index(d) for d in word[1:-1]],
             orders.index(word[-1]), np.array(coeff)) for word, coeff in words]
    acc, prod = np.zeros(grid), np.empty(grid)  # acc stays 0 with no word (flow 1)

    def to_phys(u_hat):
        return np.fft.irfft(u_hat[..., None, :] * powers, grid)

    def dealias(v):
        return np.fft.irfft(np.fft.rfft(v)[..., :kept], grid)

    def to_spec(v):
        return gik * np.fft.rfft(v)[..., :kept]

    interior = any(inner for _, inner, _, _ in plan)
    if ((len(orders) + 1) * grid * 2 * kept + interior * grid ** 2) <= _MATRIX_ENTRIES:
        # each map applied to the identity: row j is the image of input j, so
        # x @ rows applies it; complex sides are read as interleaved (Re, Im)
        phys_rows = to_phys(np.eye(2 * kept).view(np.complex128)).reshape(2 * kept, -1)
        spec_rows = to_spec(np.eye(grid)).view(np.float64)
        dealias_rows = dealias(np.eye(grid)) if interior else None
        phys_flat, dealiased = np.empty(len(orders) * grid), np.empty(grid)
        phys = phys_flat.reshape(len(orders), grid)

        def to_phys(u_hat):
            np.dot(u_hat.view(np.float64), phys_rows, out=phys_flat)
            return phys

        def dealias(v):
            return np.dot(v, dealias_rows, out=dealiased)

        def to_spec(v):
            return np.dot(v, spec_rows).view(np.complex128)

    def rhs(u_hat: np.ndarray) -> np.ndarray:
        phys = to_phys(u_hat)
        for n, (first, inner, last, coeff) in enumerate(plan):
            cur = phys[first]
            for r in inner:
                cur = dealias(np.multiply(cur, phys[r], out=prod))
            term = prod if n else acc  # the first word's term starts the sum
            np.multiply(coeff, np.multiply(cur, phys[last], out=term), out=term)
            if n:
                np.add(acc, term, out=acc)
        return to_spec(acc)

    return lin, rhs


def _refuse_flow(k: int, Q0: PeriodicFunction, grid: int) -> None:
    """The one gate for flow inputs.  It refuses, in this order, a flow
    index below 1, a matrix potential, a grid below 1 or one whose 2/3-rule
    band cannot hold ``Q0``, and a flow whose ``[a_k]`` cannot fit in
    memory (before any polynomial is built)."""
    if k < 1:
        raise ValueError("flow index must be >= 1")
    if Q0.matrix_dim != 1:
        raise ValueError("flows are scalar-only")
    if grid < 1:
        raise ValueError(f"grid must be >= 1, got {grid}")
    if grid // 3 < Q0.bandwidth:
        need = 3 * Q0.bandwidth + (3 * Q0.bandwidth) % 2
        raise ResolutionError(
            f"grid {grid} cannot hold bandwidth {Q0.bandwidth} inside the "
            f"2/3-rule band; need at least {need}", suggestion={"grid": need})
    refuse_beyond_memory(k, scalar=True)


def suggested_steps(k: int, Q0: PeriodicFunction, s_end: float, grid: int = 256) -> int:
    """Step count from the documented stability heuristic (with safety margin).

    The variable-coefficient stiffness rate is taken as
    ``2 |c_k| amp (grid/3)^{2k-3}`` with ``amp = 2 max(1, max|Q0|)`` (flows
    from order-one data are observed to steepen by about that factor), and
    the step is held below a 0.15 phase-per-step envelope -- measured, not
    the textbook RK4 bound: with the integrating factor the remainder term
    turns weakly unstable near the dealiasing cutoff well before the plain
    CFL limit would bite.  The inputs pass the flow gate first, so a flow
    whose ``[a_k]`` cannot fit in physical memory is refused before the
    estimate grows beyond any workable step count.  A plan above
    ``_MAX_PLANNED_STEPS`` is refused with an ``s_end`` that fits, unless
    ``Q0`` is constant (it takes no step).
    """
    _refuse_flow(k, Q0, grid)
    if k == 1:
        return 64  # the transport flow is handled exactly by the phase factors
    amp = 2.0 * max(1.0, float(np.max(np.abs(Q0.sample_scalar(max(64, grid))))))
    omega = 2.0 * abs(gradient_rescale(k)) * amp * (grid // 3 / Q0.a) ** (2 * k - 3)
    planned = s_end * omega / 0.15
    if planned > _MAX_PLANNED_STEPS and Q0.bandwidth:
        fits = float(f"{0.99 * _MAX_PLANNED_STEPS * 0.15 / omega:.3g}")
        raise ResolutionError(
            f"flow {k} plans {planned:.3g} steps to s_end = {s_end:g} on grid {grid}, above "
            f"{_MAX_PLANNED_STEPS}; s_end = {fits:g} fits, or give the steps",
            suggestion={"s_end": fits})
    return max(64, math.ceil(planned))


def integrate_flow(k: int, Q0: PeriodicFunction, s_end: float, steps: int, *,
                   grid: int = 256, record: int = 33) -> list[FlowState]:
    """Run flow ``k`` from ``Q0`` to ``s_end`` and return recorded snapshots.

    ``record`` snapshots (including both endpoints) are sampled evenly in
    step index.  Blow-up raises :class:`ResolutionError` with a suggested
    larger step count, ``{"steps": 4 * steps}``, while that stays under the
    2**53 cap.
    """
    _refuse_flow(k, Q0, grid)
    if not (math.isfinite(s_end) and s_end > 0.0):
        raise ValueError("s_end must be positive and finite")
    if not 1 <= steps <= 2 ** 53:  # beyond 2**53, i and dt * i are not exact
        raise ValueError(f"steps must be between 1 and 2**53, got {steps}")

    lin, nonlinear = _flow_operator(k, Q0.a, grid)
    u = np.fft.rfft(Q0.sample_scalar(grid))[:lin.size]
    dt = s_end / steps
    half = np.exp(lin * (dt / 2.0))
    full = half * half
    twice_half = 2.0 * half
    # the step sizes as the complex 0-d arrays numpy would build on every call;
    # the loop does its comment's float operations, in order, in buffers
    dt_c, half_dt, sixth_dt = (np.array(complex(x)) for x in (dt, 0.5 * dt, dt / 6.0))
    full_u, stage, tmp = np.empty((3, u.size), dtype=complex)
    mul, add = np.multiply, np.add
    record_at = {int(round(x)) for x in np.linspace(0.0, steps, max(2, record))}

    def snapshot(i: int, spec: np.ndarray) -> FlowState:
        Q = PeriodicFunction.from_samples(np.fft.irfft(spec, grid), Q0.a)
        return FlowState(s=dt * i, Q=Q)

    if not np.any(u[1:]):
        # a constant is a fixed point: its flux is constant and D kills it,
        # so skip the steps, whose dense-DFT stages return round-off, not 0
        return [snapshot(i, u) for i in sorted(record_at)]
    trajectory = [snapshot(0, u)]
    # blow-up is detected and reported as a typed error; silence the
    # overflow chatter numpy emits on the step that produces it
    with np.errstate(over="ignore", invalid="ignore"):
        for i in range(1, steps + 1):
            # full_u = full u, k1 = N(u), k2 = N(half (u + half_dt k1)),
            # k3 = N(half u + half_dt k2), k4 = N(full_u + dt (half k3)),
            # u = full_u + sixth_dt (full k1 + twice_half (k2 + k3) + k4)
            mul(full, u, out=full_u)
            k1 = nonlinear(u)
            k2 = nonlinear(mul(half, add(u, mul(half_dt, k1, out=stage), out=stage), out=stage))
            k3 = nonlinear(add(mul(half, u, out=stage), mul(half_dt, k2, out=tmp), out=stage))
            k4 = nonlinear(add(full_u, mul(dt_c, mul(half, k3, out=stage), out=stage), out=stage))
            add(mul(full, k1, out=k1), mul(twice_half, add(k2, k3, out=k2), out=k2), out=k1)
            add(full_u, mul(sixth_dt, add(k1, k4, out=k1), out=k1), out=u)
            if not np.isfinite(u).all():
                fits = 4 * steps <= 2 ** 53
                raise ResolutionError(
                    f"flow {k} blew up near s = {dt * i:.6g} (dt = {dt:.3g}); "
                    "the step exceeds the stability envelope"
                    + ("" if fits else ", and no step count under the 2**53 cap helps"),
                    suggestion={"steps": 4 * steps} if fits else None)
            if i in record_at:
                trajectory.append(snapshot(i, u))
    return trajectory


# ---------------------------------------------------------------------------
# conservation diagnostics
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ConservationReport:
    """Invariant time series along a trajectory and their relative drifts."""

    series: dict[str, np.ndarray]
    drifts: dict[str, float]

    @property
    def max_drift(self) -> float:
        return max(self.drifts.values()) if self.drifts else 0.0


_INVARIANT_NAME = re.compile(r"^([AI])([0-9]+)$")


def invariant_orders(names: list[str]) -> dict[str, tuple[int, float]]:
    """Resolve invariant names (``"A2"``, ``"I3"``, ...) to ``(j, c)``: the
    named invariant is ``c * A_j``.  Each name is refused with
    ``ValueError``, in order and before anything is evaluated, when it is
    not ``A<k>`` or ``I<k>``, when it is ``I0``, or when ``[a_j]`` cannot
    fit in physical memory (counted in the commutative quotient: flows are
    scalar-only).
    """
    orders: dict[str, tuple[int, float]] = {}
    for name in names:
        m = _INVARIANT_NAME.match(name)
        if not m:
            raise ValueError(f"unknown invariant name {name!r}; use 'A<k>' or 'I<k>'")
        kind, idx = m.group(1), int(m.group(2))
        if kind == "I" and idx < 1:
            raise ValueError("rescaled invariants start at I1")
        orders[name] = (idx, 1.0) if kind == "A" else (idx + 1, float(invariant_rescale(idx)))
        refuse_beyond_memory(orders[name][0], scalar=True)
    return orders


def conservation_report(trajectory: list[FlowState],
                        invariants: list[str]) -> ConservationReport:
    """Evaluate named invariants (``"A2"``, ``"I3"``, ...) along a trajectory.

    The names are resolved by :func:`invariant_orders` first.  Drift is
    ``max_s |v(s) - v(0)|`` relative to ``max(|v(0)|, 1e-9)``; an invariant
    that is exactly conserved reports exactly 0.
    """
    if not trajectory:
        raise ValueError("empty trajectory")
    orders = invariant_orders(invariants)
    a_series = {j: np.array([global_invariant(j, state.Q).value for state in trajectory])
                for j in {j for j, _ in orders.values()}}
    series = {name: scale * a_series[j] for name, (j, scale) in orders.items()}
    drifts = {name: float(np.max(np.abs(vals - vals[0])) / max(abs(vals[0]), 1e-9))
              for name, vals in series.items()}
    return ConservationReport(series=series, drifts=drifts)
