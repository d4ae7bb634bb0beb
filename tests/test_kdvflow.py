"""Hierarchy flows: gradient identities, the dealiased integrator, and
conservation along trajectories."""

import hashlib
import math
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest

from heatkern import acceptance, kdvflow
from heatkern import diffpoly as dp
from heatkern.errors import ResolutionError
from heatkern.heatcoeffs import (
    diagonal_coefficient_recursive,
    global_invariant,
    taylor_coefficient,
)
from heatkern.kdvflow import (
    _MATRIX_ENTRIES,
    _flow_operator,
    conservation_report,
    gradient_rescale,
    integrate_flow,
    invariant_rescale,
    suggested_steps,
    trace_pairing,
    variational_derivative,
)
from heatkern.periodic import PeriodicFunction

COS = PeriodicFunction.cosine(1.0)


def grid_x(m):
    return 2.0 * math.pi * np.arange(m) / m


# ------------------------------------------------------------- constants

def test_rescale_constants():
    assert [invariant_rescale(k) for k in (1, 2, 3)] == [-1, 2, -5]
    assert [gradient_rescale(k) for k in (1, 2, 3)] == [-2, 6, -20]
    for bad in (0, -1):
        with pytest.raises(ValueError):
            invariant_rescale(bad)
        with pytest.raises(ValueError):
            gradient_rescale(bad)


# ------------------------------------------------------------- gradients

def rescaled_gradient(k, Q):
    """``dI_k/dQ = gradient_rescale(k) [a_k]`` at a scalar potential ``Q``."""
    poly = taylor_coefficient(k, 0)
    grid = dp.fft_grid(dp.min_grid(poly, Q.bandwidth))
    return dp.evaluate(poly, Q, grid) * float(gradient_rescale(k))


def test_variational_derivative_low_orders():
    v1 = variational_derivative(1, COS)
    assert v1.bandwidth == 0 and abs(v1.mode(0)[0, 0] - 1.0) <= 1e-15

    v2 = variational_derivative(2, COS)
    x = grid_x(32)
    assert np.max(np.abs(v2.sample_scalar(32) - 2.0 * np.cos(x))) <= 1e-13

    g1 = rescaled_gradient(1, COS)
    assert np.max(np.abs(g1.sample_scalar(32) + 2.0 * np.cos(x))) <= 1e-13

    # dI2/dQ = 6(Q^2 - Q''/3) = 3 + 2 cos x + 3 cos 2x at Q = cos x
    g2 = rescaled_gradient(2, COS)
    x = grid_x(64)
    expect = 3.0 + 2.0 * np.cos(x) + 3.0 * np.cos(2.0 * x)
    assert np.max(np.abs(g2.sample_scalar(64) - expect)) <= 1e-13


def kdv_rhs(k, Q):
    """Right-hand side ``D(dI_k/dQ)`` of flow ``k`` at the potential ``Q``."""
    return rescaled_gradient(k, Q).derivative()


def test_kdv_rhs_flow2_cosine():
    rhs = kdv_rhs(2, COS)
    x = grid_x(64)
    expect = -6.0 * np.sin(2.0 * x) - 2.0 * np.sin(x)
    assert np.max(np.abs(rhs.sample_scalar(64) - expect)) <= 1e-13
    assert abs(rhs.mean()[0, 0]) == 0.0  # zero mode of a derivative, exactly


def test_scalar_only_guards():
    Qm = PeriodicFunction.constant(1.0, np.diag([1.0, 2.0]).astype(complex))
    with pytest.raises(ValueError, match="scalar-only"):
        integrate_flow(2, Qm, 0.1, 10)
    with pytest.raises(ValueError):
        variational_derivative(0, COS)


# -------------------------------------------------- finite-difference check

FD_H = 1e-5


def fd_invariant(k, Q, phi):
    plus = global_invariant(k, Q + phi * FD_H).value
    minus = global_invariant(k, Q + phi * (-FD_H)).value
    return (plus - minus) / (2.0 * FD_H)


def test_fd_variational_check_scalar():
    Q = PeriodicFunction.from_modes(1.0, {0: 0.4, 1: 0.35 - 0.2j, 2: -0.15 + 0.1j})
    phi = PeriodicFunction.from_modes(1.0, {0: 0.3, 1: 0.2 - 0.1j, 2: 0.05 + 0.2j})
    for k in range(1, 5):
        pair = trace_pairing(phi, variational_derivative(k, Q))
        assert abs(fd_invariant(k, Q, phi) - pair) <= 1e-8 * abs(pair)


def test_fd_variational_check_matrix():
    rng = np.random.default_rng(7)

    def herm(m):
        return (m + m.conj().T) / 2.0

    Q = PeriodicFunction.from_modes(1.0, {
        0: 0.4 * herm(rng.normal(size=(2, 2)) + 0j),
        1: 0.3 * (rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2)))})
    phi = PeriodicFunction.from_modes(1.0, {
        0: 0.3 * herm(rng.normal(size=(2, 2)) + 0j),
        1: 0.2 * (rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2)))})
    for k in range(1, 5):
        pair = trace_pairing(phi, variational_derivative(k, Q))
        assert abs(fd_invariant(k, Q, phi) - pair) <= 1e-8 * abs(pair)


def test_trace_pairing_guards():
    Qm = PeriodicFunction.constant(1.0, np.diag([1.0, 2.0]).astype(complex))
    with pytest.raises(ValueError):
        trace_pairing(COS, Qm)
    with pytest.raises(ValueError):
        trace_pairing(COS, PeriodicFunction.cosine(2.0))


# ------------------------------------------------------------- integration

def test_transport_flow_translates():
    Q0 = PeriodicFunction.from_modes(1.0, {1: 0.5, 2: 0.15})
    s = 0.35
    final = integrate_flow(1, Q0, s, 64, grid=64)[-1].Q
    # dQ/ds = -2 Q' translates the profile: mode n picks up e^{-2ins/a}
    for n in (1, 2):
        expect = Q0.mode(n)[0, 0] * np.exp(-2j * n * s)
        assert abs(final.mode(n)[0, 0] - expect) <= 1e-13
    assert abs(final.mean()[0, 0] - Q0.mean()[0, 0]) <= 1e-15


def test_constant_potential_is_static():
    # on the dense-DFT grids (below the FFT side at 1024) the flow-2
    # right-hand side of a constant is round-off, which steps would grow
    for c, steps, grid in [(0.7, 50, 32)] + [
            (1.0, 10, grid) for grid in (64, 96, 120, 128, 192, 256)]:
        cst = PeriodicFunction.constant(1.0, np.array([[c]], dtype=complex))
        for state in integrate_flow(2, cst, 1.0, steps, grid=grid):
            assert state.Q.bandwidth == 0
            assert abs(state.Q.mean()[0, 0] - c) <= 1e-15


def test_mean_is_conserved_exactly():
    Q0 = PeriodicFunction.from_modes(1.0, {0: 0.3, 1: 0.5})
    traj = integrate_flow(2, Q0, 0.2, 400, grid=64)
    for state in traj:
        assert abs(state.Q.mean()[0, 0] - 0.3) <= 5e-16


def test_flow2_conserves_invariants():
    traj = integrate_flow(2, COS, 0.1, 200, grid=64, record=9)
    report = conservation_report(traj, ["A2", "A3", "A4", "I1"])
    assert report.max_drift <= 1e-8
    assert traj[0].s == 0.0 and traj[-1].s == pytest.approx(0.1)


def test_flow3_cross_conservation():
    # involution shadow: flow 3 preserves the lower Hamiltonians as well
    traj = integrate_flow(3, COS, 0.01, 5000, grid=64, record=9)
    report = conservation_report(traj, ["I1", "I2", "I3"])
    assert report.max_drift <= 1e-9


def test_flow1_full_scale_exactness():
    traj = integrate_flow(1, COS, 1.0, 64, grid=256, record=9)
    report = conservation_report(traj, ["I1", "I2", "I3"])
    assert report.max_drift <= 1e-12


def test_step_halving_is_fourth_order():
    drifts = []
    for steps in (1000, 2000):
        traj = integrate_flow(2, COS, 0.5, steps, grid=96, record=17)
        drifts.append(conservation_report(traj, ["A2", "A3", "A4"]).drifts)
    for name in ("A2", "A3", "A4"):
        ratio = drifts[0][name] / drifts[1][name]
        assert 10.0 <= ratio <= 26.0


def test_divergence_is_reported():
    with pytest.raises(ResolutionError, match=r"^flow 2 blew up near s = 0\.") as info:
        integrate_flow(2, COS, 1.0, 100, grid=128)
    assert info.value.suggestion == {"steps": 400}


def test_integrate_flow_validation():
    with pytest.raises(ValueError):
        integrate_flow(0, COS, 1.0, 10)
    with pytest.raises(ValueError):
        integrate_flow(2, COS, -1.0, 10)
    with pytest.raises(ValueError):
        integrate_flow(2, COS, 1.0, 0)
    for grid in (0, -4):
        with pytest.raises(ValueError, match=f"grid must be >= 1, got {grid}") as info:
            integrate_flow(2, COS, 1.0, 10, grid=grid)
    wide = PeriodicFunction.from_modes(1.0, {6: 0.1})
    with pytest.raises(ResolutionError) as info:
        integrate_flow(2, wide, 0.1, 10, grid=16)
    assert info.value.suggestion == {"grid": 18}


def full_spectrum_operator(k, a, grid):
    """Flow-``k`` split on the full rfft spectrum: one transform per
    derivative order and per product, truncating by zeroing after each."""
    poly = diagonal_coefficient_recursive(k, scalar=True)
    gam = float(gradient_rescale(k))
    ik = 1j * np.arange(grid // 2 + 1, dtype=float) / a
    cut = grid // 3
    lin_coeff = Fraction(0)
    words = []
    for mono in poly.terms():
        if mono.word == (2 * k - 2,):
            lin_coeff = mono.coeff
        else:
            words.append((mono.word, float(mono.coeff)))
    lin = float(gradient_rescale(k) * lin_coeff) * ik ** (2 * k - 1)
    powers = {d: ik ** d for word, _ in words for d in word}

    def trunc(spec):
        out = spec.copy()
        out[cut + 1:] = 0.0
        return out

    def nonlinear(u_hat):
        derivs = {}

        def phys(d):
            if d not in derivs:
                derivs[d] = np.fft.irfft(u_hat * powers[d], grid)
            return derivs[d]

        acc = np.zeros(grid // 2 + 1, dtype=complex)
        for word, coeff in words:
            cur = phys(word[0])
            for d in word[1:-1]:
                cur = np.fft.irfft(trunc(np.fft.rfft(cur * phys(d))), grid)
            acc += coeff * np.fft.rfft(cur * phys(word[-1]))
        return gam * ik * trunc(acc)

    return lin, trunc, nonlinear


def full_spectrum_flow(k, Q0, s_end, steps, grid, record):
    """Integrating-factor RK4 on the full spectrum; samples at the snapshots."""
    lin, trunc, nonlinear = full_spectrum_operator(k, Q0.a, grid)
    u = trunc(np.fft.rfft(Q0.sample_scalar(grid)))
    dt = s_end / steps
    half = np.exp(lin * (dt / 2.0))
    full = half * half
    record_at = {int(round(x)) for x in np.linspace(0.0, steps, record)}
    out = [np.fft.irfft(u, grid)]
    for i in range(1, steps + 1):
        k1 = nonlinear(u)
        k2 = nonlinear(half * (u + (0.5 * dt) * k1))
        k3 = nonlinear(half * u + (0.5 * dt) * k2)
        k4 = nonlinear(full * u + dt * (half * k3))
        u = full * u + (dt / 6.0) * (full * k1 + 2.0 * half * (k2 + k3) + k4)
        if i in record_at:
            out.append(np.fft.irfft(u, grid))
    return out


def flow_s_end(k, grid):
    """A flow-``k`` horizon that 24 steps on ``grid`` carry stably: the
    stiffness grows as ``(grid/3)^(2k-3)``."""
    return {1: 0.3, 2: 1e-3, 3: 1e-5, 4: 1e-7}[k] * min(1.0, 96 / grid) ** (2 * k - 3)


def fft_calls(monkeypatch, k, grid):
    """``np.fft`` calls inside one flow-``k`` right-hand side on ``grid``:
    none on the dense-matrix side, at least two on the FFT side."""
    rhs = _flow_operator(k, 1.0, grid)[1]
    u = np.fft.rfft(COS.sample_scalar(grid))[:grid // 3 + 1]
    calls = []
    with monkeypatch.context() as patch:
        for name in ("rfft", "irfft"):
            def counted(*args, _fft=getattr(np.fft, name), **kwargs):
                calls.append(1)
                return _fft(*args, **kwargs)
            patch.setattr(np.fft, name, counted)
        rhs(u)
    return len(calls)


def _content(f: PeriodicFunction) -> tuple:
    """The radius, the mode array's shape and its exact bytes."""
    modes = np.stack([f.mode(n) for n in range(-f.bandwidth, f.bandwidth + 1)])
    return (f.a, modes.shape, modes.tobytes())


@pytest.mark.parametrize("k", [1, 2, 3, 4])
@pytest.mark.parametrize("grid", [48, 64, 96, 384, 512])
def test_flow_matches_full_spectrum_bitwise(monkeypatch, k, grid):
    # Flow 1 has no nonlinear words: its right-hand side is zero on both
    # sides and its trajectory matches bit for bit.  On the FFT side (above
    # the dense-matrix bound) flow 2 sums its one nonlinear word exactly as
    # the reference does, and matches bit for bit.  Everywhere else the
    # words are summed before one transform, so the match is to round-off.
    # k >= 3 dealiases interior letters; k = 4 has word coefficients
    # (2/5, 3/5, 4/5) that are not powers of two.
    bitwise = k == 1 or (k == 2 and fft_calls(monkeypatch, k, grid) > 0)
    assert bitwise == (k == 1 or (k == 2 and grid > 96))
    kept = grid // 3 + 1
    s_end = flow_s_end(k, grid)
    for a in (1.0, 2.5):
        Q0 = PeriodicFunction.from_modes(a, {0: 0.2, 1: 0.3 - 0.1j, 3: 0.05j})
        lin, nonlinear = _flow_operator(k, a, grid)
        ref_lin, trunc, ref_nonlinear = full_spectrum_operator(k, a, grid)
        assert lin.size == kept and lin.tobytes() == ref_lin[:kept].tobytes()
        # Q0, and a state that fills the kept band, so that products alias
        noise = np.random.default_rng(grid).normal(size=grid)
        for samples in (Q0.sample_scalar(grid), noise):
            u = trunc(np.fft.rfft(samples))
            rhs, ref_rhs = nonlinear(u[:kept]), ref_nonlinear(u)[:kept]
            if k == 1:  # equal as values; the signs of the zeros may differ
                assert not np.any(rhs) and not np.any(ref_rhs)
            elif bitwise:
                assert rhs.tobytes() == ref_rhs.tobytes()
            else:
                assert np.max(np.abs(rhs - ref_rhs)) <= 2e-14 * np.max(np.abs(ref_rhs))

        trajectory = integrate_flow(k, Q0, s_end, 24, grid=grid, record=5)
        reference = full_spectrum_flow(k, Q0, s_end, 24, grid, 5)
        assert len(trajectory) == len(reference) == 5
        for state, values in zip(trajectory, reference):
            expect = PeriodicFunction.from_samples(values, a)
            if bitwise:
                assert _content(state.Q) == _content(expect)
            else:
                assert state.Q.bandwidth == expect.bandwidth
                got, want = state.Q.sample_scalar(grid), expect.sample_scalar(grid)
                assert np.max(np.abs(got - want)) <= 1e-13 * np.max(np.abs(want))


@pytest.mark.parametrize("k", [1, 2, 3, 4])
@pytest.mark.parametrize("grid", [64, 96, 256, 384])
def test_matrix_and_fft_sides_agree(monkeypatch, k, grid):
    # each side forced on the same grid; the grids straddle the bound
    kept = grid // 3 + 1
    rng = np.random.default_rng(grid)
    u = np.fft.rfft(rng.normal(size=grid))[:kept]
    rhs = {}
    for bound in (0, 2 ** 40):
        monkeypatch.setattr(kdvflow, "_MATRIX_ENTRIES", bound)
        rhs[bound] = _flow_operator(k, 2.5, grid)[1](u)
        assert (fft_calls(monkeypatch, k, grid) == 0) == (bound > 0)
    assert np.max(np.abs(rhs[0] - rhs[2 ** 40])) <= 2e-14 * np.max(np.abs(rhs[0]))


# sha256 of every snapshot's mode bytes over 40 steps of each (flow, grid)
# that verify's conservation check runs, at that run's dt = s_end / steps,
# plus flow 2 on the FFT side (grid 384) at the grid-256 run's dt
TRAJECTORY_DIGESTS = {
    (2, 256, 1.0, 10000):
        "5cf451f85c632c5c17067430639010df459b8be6a3f54ee319f0ac5fdfbbb9c9",
    (1, 256, 1.0, 64):
        "416fdd67800a49ee4ee9e017e0591dc7cb33dd579ecda7fc9e8b3b477bb2327d",
    (3, 64, 0.01, 5000):
        "5b97b095d68e84c6e1f0d9f7a9a67adba615a8f7ee9e1b07688021e3ac7f72bd",
    (2, 96, 0.5, 1000):
        "badca919c548667a4c03eebab4cbde01d0e9c6507670fe45da7b5383c3b1f12c",
    (2, 96, 0.5, 2000):
        "aaef4a1c089f0acfc9d765767e7d3d14154a5df830a38e0a67b25ad85d648878",
    (2, 384, 1.0, 10000):
        "d547bff31b6ea90ab7572bef12c252646ffac21490bbdf03b4fa4cf10a05d7ab",
}


def test_trajectory_digests_cover_verify_runs():
    runs = {(flow, grid, s_end, steps)
            for flow, s_end, steps, grid, _, _ in acceptance._FLOW_RUNS}
    assert runs < set(TRAJECTORY_DIGESTS)


def trajectory_digest(flow, grid, s_end, steps, cut=40):
    dt = s_end / steps
    trajectory = integrate_flow(flow, COS, dt * cut, cut, grid=grid, record=cut + 1)
    assert [state.s for state in trajectory] == [dt * i for i in range(cut + 1)]
    digest = hashlib.sha256()
    for state in trajectory:
        a, shape, modes = _content(state.Q)
        digest.update(repr((a, shape)).encode() + modes)
    return digest.hexdigest()


@pytest.mark.parametrize("flow, grid, s_end, steps", list(TRAJECTORY_DIGESTS))
def test_flow_trajectory_bytes(flow, grid, s_end, steps):
    assert (trajectory_digest(flow, grid, s_end, steps)
            == TRAJECTORY_DIGESTS[flow, grid, s_end, steps])


def held_bytes(k, grid):
    """Bytes that the flow-``k`` operator on ``grid`` keeps alive."""
    _flow_operator(k, 1.0, grid)  # fill the symbolic caches first
    tracemalloc.start()
    try:
        operator = _flow_operator(k, 1.0, grid)  # alive while measured
        held = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    return held


def test_evaluator_selection(monkeypatch):
    # verify's three flows, and flow 3 one grid up, run on the dense matrices
    for k, grid in ((2, 256), (3, 64), (2, 96), (3, 128)):
        assert fft_calls(monkeypatch, k, grid) == 0, (k, grid)
    for k, grid in ((3, 256), (2, 384)):
        assert fft_calls(monkeypatch, k, grid) >= 2, (k, grid)
    # neither side holds much more than _MATRIX_ENTRIES floats
    for k in (2, 3, 4):
        for grid in range(32, 400, 16):
            assert held_bytes(k, grid) <= 8 * _MATRIX_ENTRIES + 2 ** 16, (k, grid)


# ---------------------------------------------------------------- reports

def test_conservation_report_validation():
    traj = integrate_flow(2, COS, 0.01, 10, grid=32)
    with pytest.raises(ValueError):
        conservation_report([], ["A2"])
    with pytest.raises(ValueError):
        conservation_report(traj, ["B2"])
    with pytest.raises(ValueError):
        conservation_report(traj, ["I0"])


def test_conservation_report_free_is_exact_zero():
    traj = integrate_flow(2, PeriodicFunction.zero(1.0), 0.5, 10, grid=32)
    report = conservation_report(traj, ["A2", "I1"])
    assert report.drifts == {"A2": 0.0, "I1": 0.0}


def test_report_series_rescaling():
    traj = integrate_flow(2, COS, 0.05, 100, grid=64, record=5)
    report = conservation_report(traj, ["A3", "I2"])
    assert np.array_equal(report.series["I2"], 2.0 * report.series["A3"])


def test_suggested_steps():
    assert suggested_steps(1, COS, 5.0) == 64
    s1 = suggested_steps(2, COS, 0.5, 256)
    s2 = suggested_steps(2, COS, 1.0, 256)
    assert 64 <= s1 < s2
    assert s2 == 13600  # the kdv defaults' flow-2 plan


@pytest.mark.parametrize("k, grid", [(3, 256), (4, 256), (3, 1024), (5, 64)])
def test_suggested_steps_refuses_beyond_the_ceiling(k, grid):
    with pytest.raises(ResolutionError, match=rf"^flow {k} plans .* steps to s_end = 1 ") as info:
        suggested_steps(k, COS, 1.0, grid)
    fits = info.value.suggestion["s_end"]
    assert 64 <= suggested_steps(k, COS, fits, grid) <= kdvflow._MAX_PLANNED_STEPS
    # a constant is a fixed point that takes no step, so its plan is not refused
    flat = PeriodicFunction.constant(1.0, np.array([[3.0]], dtype=complex))
    assert suggested_steps(k, flat, 1.0, grid) > kdvflow._MAX_PLANNED_STEPS
