"""Band-limited matrix-valued periodic functions: construction and calculus."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from heatkern.periodic import PeriodicFunction


def test_cosine_modes():
    f = PeriodicFunction.cosine(1.0, amplitude=2.0)
    assert f.bandwidth == 1
    assert f.matrix_dim == 1
    assert np.allclose(f.mode(1), [[1.0]])
    assert np.allclose(f.mode(-1), [[1.0]])
    assert np.allclose(f.mode(0), [[0.0]])


def test_from_modes_hermitian_completion():
    m = np.array([[1.0 + 2.0j, 0.5], [3.0, -1.0j]])
    f = PeriodicFunction.from_modes(2.0, {0: np.eye(2), 1: m})
    assert f.is_hermitian()
    assert np.allclose(f.mode(-1), m.conj().T)


def test_from_modes_rejects_non_hermitian_zero_mode():
    with pytest.raises(ValueError):
        PeriodicFunction.from_modes(1.0, {0: np.array([[1.0, 1.0], [0.0, 1.0]])})


def test_sample_round_trip():
    rng = np.random.default_rng(3)
    raw = {n: rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2)) for n in (1, 2)}
    raw[0] = np.eye(2)
    f = PeriodicFunction.from_modes(1.5, raw, n_dim=2)
    g = PeriodicFunction.from_samples(f.sample(16), 1.5)
    assert g.bandwidth <= f.bandwidth
    for n in range(-2, 3):
        assert np.allclose(g.mode(n), f.mode(n), atol=1e-14)


def test_sample_refuses_coarse_grid():
    f = PeriodicFunction.from_modes(1.0, {4: 0.5})
    with pytest.raises(ValueError):
        f.sample(8)  # needs 2*4 + 1 = 9


def test_scalar_samples_match_cosine():
    a = 2.0
    f = PeriodicFunction.from_modes(a, {2: 0.75})  # 1.5 cos(2x/a)
    m = 32
    x = 2 * np.pi * a * np.arange(m) / m
    assert np.max(np.abs(f.sample_scalar(m) - 1.5 * np.cos(2 * x / a))) < 1e-14


def test_derivative_of_cosine():
    a = 3.0
    f = PeriodicFunction.cosine(a)
    df = f.derivative()
    m = 16
    x = 2 * np.pi * a * np.arange(m) / m
    assert np.max(np.abs(df.sample_scalar(m) + np.sin(x / a) / a)) < 1e-14
    d2 = f.derivative(2)
    assert np.max(np.abs(d2.sample_scalar(m) + f.sample_scalar(m) / a**2)) < 1e-14


def test_trace_integral_and_mean():
    f = PeriodicFunction.cosine(2.0)  # mean zero
    assert abs(f.trace_integral()) < 1e-15
    g = PeriodicFunction.constant(2.0, np.diag([1.0, 3.0]))
    # integral of tr over the circle of radius 2: 2*pi*2*(1+3)
    assert abs(g.trace_integral() - 16 * np.pi) < 1e-12
    assert np.allclose(g.mean(), np.diag([1.0, 3.0]))


def test_mode_norm_sq():
    f = PeriodicFunction.cosine(1.0, amplitude=2.0)  # modes +-1 are [[1.0]]
    assert abs(f.mode_norm_sq(1) - 1.0) < 1e-15
    assert f.mode_norm_sq(5) == 0.0


def test_arithmetic_pads_bandwidths():
    f = PeriodicFunction.cosine(1.0)
    g = PeriodicFunction.from_modes(1.0, {3: 0.5})
    h = f + g
    assert h.bandwidth == 3
    m = 16
    assert np.max(np.abs(h.sample_scalar(m) - f.sample_scalar(m) - g.sample_scalar(m))) < 1e-14
    assert (h + g * -1).bandwidth == 1  # exact-zero outer shells are trimmed
    k = f * 2.5
    assert np.allclose(k.mode(1), 2.5 * f.mode(1))


def test_from_samples_trims_zero_shells():
    m = 16
    x = 2 * np.pi * np.arange(m) / m
    vals = np.cos(x).reshape(m, 1, 1).astype(complex)
    f = PeriodicFunction.from_samples(vals, 1.0)
    assert f.bandwidth == 1


def test_radius_must_be_positive_and_finite():
    for a in (0.0, -1.0, math.inf, math.nan):
        with pytest.raises(ValueError, match="radius a must be positive and finite"):
            PeriodicFunction.from_modes(a, {1: 0.5})


def test_matrix_dimension_below_one_is_refused():
    for build, n in ((lambda: PeriodicFunction.from_modes(1.0, {}, 0), 0),
                     (lambda: PeriodicFunction.from_modes(1.0, {1: [[1.0]]}, 0), 0),
                     (lambda: PeriodicFunction.zero(1.0, 0), 0),
                     (lambda: PeriodicFunction.zero(1.0, -1), -1),
                     (lambda: PeriodicFunction(1.0, np.zeros((3, 0, 0))), 0),
                     (lambda: PeriodicFunction.from_samples(np.zeros((8, 0, 0)), 1.0), 0)):
        with pytest.raises(ValueError, match=f"dimension N must be >= 1, got {n}$"):
            build()
    assert PeriodicFunction.from_modes(1.0, {}).matrix_dim == 1


# -------------------------------------- bit identity with the looped forms


def from_samples_shell_by_shell(values, a):
    """Mode gather and trim as one loop step per mode and per outer shell."""
    values = np.asarray(values, dtype=complex)
    if values.ndim == 1:
        values = values[:, None, None]
    m = values.shape[0]
    spec = np.fft.fft(values, axis=0) / m
    b = (m - 1) // 2
    modes = np.empty((2 * b + 1, values.shape[1], values.shape[2]), dtype=complex)
    for n in range(-b, b + 1):
        modes[n + b] = spec[n % m]
    cut = 1e-13 * max(np.max(np.abs(modes)), 1e-300)
    while b > 0 and np.max(np.abs(modes[0])) <= cut and np.max(np.abs(modes[-1])) <= cut:
        modes = modes[1:-1].copy()
        b -= 1
    return PeriodicFunction(a, modes, check_hermitian=False)


def sample_by_scatter_loop(f, m):
    spec = np.zeros((m, f.matrix_dim, f.matrix_dim), dtype=complex)
    for n in range(-f.bandwidth, f.bandwidth + 1):
        spec[n % m] += f.mode(n)
    return np.fft.ifft(spec, axis=0) * m


# per-side shell magnitudes: absent, below the trim cut, at round-off, content
SHELL_SCALES = st.sampled_from([0.0, 1e-16, 1e-14, 1e-12, 1.0])


@st.composite
def sampled_functions(draw):
    n_dim = draw(st.sampled_from([1, 2]))
    m = draw(st.integers(min_value=1, max_value=40))
    top = (m - 1) // 2
    band = draw(st.integers(min_value=0, max_value=top))
    rng = np.random.default_rng(draw(st.integers(min_value=0, max_value=2**32 - 1)))
    spec = np.zeros((m, n_dim, n_dim), dtype=complex)
    for n in range(-band, band + 1):
        noise = rng.normal(size=(n_dim, n_dim)) + 1j * rng.normal(size=(n_dim, n_dim))
        spec[n % m] = draw(SHELL_SCALES) * noise
    values = np.fft.ifft(spec, axis=0) * m
    if n_dim == 1 and draw(st.booleans()):
        values = values.reshape(m)  # the 1-D scalar input form
    return values


def _content(f: PeriodicFunction) -> tuple:
    """The radius, the mode array's shape and its exact bytes."""
    modes = np.stack([f.mode(n) for n in range(-f.bandwidth, f.bandwidth + 1)])
    return (f.a, modes.shape, modes.tobytes())


@settings(max_examples=300, deadline=None)
@given(sampled_functions())
def test_from_samples_matches_shell_by_shell_trim(values):
    new = PeriodicFunction.from_samples(values, 1.5)
    old = from_samples_shell_by_shell(values, 1.5)
    assert _content(new) == _content(old)  # shape and mode bytes


def test_from_samples_trim_edge_cases():
    # all-zero input, a constant, and a shell negligible on one side only
    m = 17
    one_sided = np.zeros(m, dtype=complex)
    one_sided[5] = 1.0
    one_sided[-5] = 1e-15
    one_sided[3] = 1e-15
    cases = [np.zeros(m), np.zeros((m, 2, 2)), np.full(m, 0.7), np.zeros(1),
             np.fft.ifft(one_sided) * m]
    for values in cases:
        new = PeriodicFunction.from_samples(values, 1.0)
        old = from_samples_shell_by_shell(values, 1.0)
        assert _content(new) == _content(old)
    assert PeriodicFunction.from_samples(cases[-1], 1.0).bandwidth == 5
    assert PeriodicFunction.from_samples(cases[0], 1.0).bandwidth == 0


@pytest.mark.parametrize("n_dim", [1, 2])
def test_sample_matches_scatter_loop(n_dim):
    rng = np.random.default_rng(11 + n_dim)
    for band in (0, 1, 4, 7):
        raw = {n: rng.normal(size=(n_dim, n_dim)) + 1j * rng.normal(size=(n_dim, n_dim))
               for n in range(1, band + 1)}
        raw[0] = np.eye(n_dim)
        f = PeriodicFunction.from_modes(1.0, raw, n_dim=n_dim)
        for m in (2 * band + 1, 2 * band + 2, 32, 33):
            assert f.sample(m).tobytes() == sample_by_scatter_loop(f, m).tobytes()
