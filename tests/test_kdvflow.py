"""Hierarchy flows: gradient identities, the dealiased integrator, and
conservation along trajectories."""

import math
from fractions import Fraction

import numpy as np
import pytest

from heatkern import diffpoly as dp
from heatkern.errors import FlowDivergenceError, ResolutionError
from heatkern.heatcoeffs import (
    diagonal_coefficient_recursive,
    global_invariant,
    taylor_coefficient,
)
from heatkern.kdvflow import (
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
    cst = PeriodicFunction.constant(1.0, np.array([[0.7]], dtype=complex))
    traj = integrate_flow(2, cst, 1.0, 50, grid=32)
    for state in traj:
        assert state.Q.bandwidth == 0
        assert abs(state.Q.mean()[0, 0] - 0.7) <= 1e-15


def test_mean_is_conserved_exactly():
    Q0 = PeriodicFunction.from_modes(1.0, {0: 0.3, 1: 0.5})
    traj = integrate_flow(2, Q0, 0.2, 400, grid=64)
    for state in traj:
        assert abs(state.Q.mean()[0, 0] - 0.3) <= 5e-16


def test_flow2_conserves_invariants():
    traj = integrate_flow(2, COS, 0.1, 200, grid=64, record=9)
    report = conservation_report(traj, ["A2", "A3", "A4", "I1"])
    assert report.max_drift <= 1e-8
    assert report.flow_k == 2 and report.grid == 64
    assert report.s[0] == 0.0 and report.s[-1] == pytest.approx(0.1)


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
    with pytest.raises(FlowDivergenceError) as info:
        integrate_flow(2, COS, 1.0, 100, grid=128)
    err = info.value
    assert err.suggestion == {"steps": 400}
    assert 0.0 <= err.state.s < 1.0
    assert np.all(np.isfinite(err.state.Q.sample_scalar(err.state.grid)))


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


FLOW_Q0 = PeriodicFunction.from_modes(1.0, {0: 0.2, 1: 0.3 - 0.1j, 3: 0.05j})


@pytest.mark.parametrize("k", [1, 2, 3, 4])
@pytest.mark.parametrize("grid", [48, 64, 96])
def test_flow_matches_full_spectrum_bitwise(k, grid):
    # k = 1 has no nonlinear words; k >= 3 dealiases interior letters, and
    # k = 4 has word coefficients (2/5, 3/5, 4/5) that are not powers of two
    lin, nonlinear = _flow_operator(k, 1.0, grid)
    ref_lin, trunc, ref_nonlinear = full_spectrum_operator(k, 1.0, grid)
    kept = grid // 3 + 1
    assert lin.size == kept and lin.tobytes() == ref_lin[:kept].tobytes()
    u = trunc(np.fft.rfft(FLOW_Q0.sample_scalar(grid)))
    assert nonlinear(u[:kept]).tobytes() == ref_nonlinear(u)[:kept].tobytes()

    s_end = {1: 0.3, 2: 1e-3, 3: 1e-5, 4: 1e-7}[k]
    trajectory = integrate_flow(k, FLOW_Q0, s_end, 24, grid=grid, record=5)
    reference = full_spectrum_flow(k, FLOW_Q0, s_end, 24, grid, 5)
    assert len(trajectory) == len(reference) == 5
    for state, values in zip(trajectory, reference):
        expect = PeriodicFunction.from_samples(values, 1.0)
        assert state.Q.content_key() == expect.content_key()


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
