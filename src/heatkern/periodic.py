"""Matrix-valued trigonometric polynomials on a circle.

A :class:`PeriodicFunction` stores the Fourier modes ``q_n`` (``|n| <= B``)
of an ``N x N`` matrix function on a circle of radius ``a`` (circumference
``2*pi*a``), ``f(x) = sum_n q_n exp(i n x / a)``.  Potentials are Hermitian
as matrix functions, i.e. ``q_{-n} = q_n^dagger``; the constructor checks
this unless told otherwise (derivatives of Hermitian functions stay
Hermitian, arbitrary mode data may not).
"""

from __future__ import annotations

import numpy as np

__all__ = ["PeriodicFunction"]

_HERM_TOL = 1e-12


def _require_dim(n: int) -> None:
    if n < 1:
        raise ValueError(f"matrix dimension N must be >= 1, got {n}")


class PeriodicFunction:
    __slots__ = ("a", "_modes")

    def __init__(self, a: float, modes: np.ndarray, *, check_hermitian: bool = True):
        """``modes`` has shape ``(2B+1, N, N)`` with index ``j`` holding mode
        ``n = j - B``."""
        a = float(a)
        if a <= 0:
            raise ValueError("circle radius a must be positive")
        modes = np.asarray(modes, dtype=complex)
        if modes.ndim == 1:
            modes = modes[:, None, None]
        if modes.ndim != 3 or modes.shape[1] != modes.shape[2] or modes.shape[0] % 2 != 1:
            raise ValueError("modes must have shape (2B+1, N, N)")
        _require_dim(modes.shape[1])
        # drop exactly-zero outer shells so the stored bandwidth is honest
        # (arithmetic like f - g routinely cancels the outermost modes)
        while modes.shape[0] > 1 and not modes[0].any() and not modes[-1].any():
            modes = modes[1:-1]
        self.a = a
        self._modes = modes
        if check_hermitian and not self.is_hermitian():
            raise ValueError("mode data violates q_{-n} = q_n^dagger")

    # -- constructors -----------------------------------------------------

    @classmethod
    def zero(cls, a: float, n: int = 1) -> "PeriodicFunction":
        _require_dim(n)
        return cls(a, np.zeros((1, n, n), dtype=complex))

    @classmethod
    def constant(cls, a: float, value) -> "PeriodicFunction":
        value = np.atleast_2d(np.asarray(value, dtype=complex))
        return cls(a, value[None, :, :])

    @classmethod
    def from_modes(cls, a: float, mode_dict: dict,
                   n_dim: int | None = None) -> "PeriodicFunction":
        """Build from ``{n: matrix}``; missing ``-n`` entries are filled by
        Hermitian completion."""
        if n_dim is not None:
            _require_dim(n_dim)
        if not mode_dict:
            return cls.zero(a, 1 if n_dim is None else n_dim)
        mats = {int(k): np.atleast_2d(np.asarray(v, dtype=complex)) for k, v in mode_dict.items()}
        dim = next(iter(mats.values())).shape[0] if n_dim is None else n_dim
        full = dict(mats)
        for n, m in mats.items():
            if -n not in full:
                full[-n] = m.conj().T
        b = max(abs(n) for n in full)
        modes = np.zeros((2 * b + 1, dim, dim), dtype=complex)
        for n, m in full.items():
            if m.shape != (dim, dim):
                raise ValueError(f"mode {n} has shape {m.shape}, expected {(dim, dim)}")
            modes[n + b] = m
        return cls(a, modes)

    @classmethod
    def cosine(cls, a: float, amplitude: float = 1.0) -> "PeriodicFunction":
        """Scalar ``amplitude * cos(x / a)``."""
        half = amplitude / 2.0
        return cls.from_modes(a, {1: [[half]], -1: [[half]]})

    @classmethod
    def from_samples(cls, values: np.ndarray, a: float) -> "PeriodicFunction":
        """Recover modes from uniform samples ``values[j] = f(2*pi*a*j/M)``.

        The result carries every recoverable mode ``|n| <= (M-1)//2``; outer
        shells whose content is below round-off relative to the largest mode
        are trimmed so that the stored bandwidth reflects actual content.
        """
        values = np.asarray(values, dtype=complex)
        if values.ndim == 1:
            values = values[:, None, None]
        m = values.shape[0]
        spec = np.fft.fft(values, axis=0) / m
        b = (m - 1) // 2
        # trim negligible outer shells (keeps evaluation grids honest): the
        # kept bandwidth is the outermost n with |q_n| or |q_-n| not below
        # the cut, read off the per-mode maxima in one pass.  The cut is far
        # below any coefficient a band-limited product can have but above
        # the FFT round-off floor.
        peak = np.max(np.abs(spec), axis=(1, 2), initial=0.0)[np.arange(-b, b + 1) % m]
        cut = 1e-13 * max(np.max(peak), 1e-300)
        kept = np.flatnonzero(~(np.maximum(peak[:b][::-1], peak[b + 1:]) <= cut))
        keep = int(kept[-1]) + 1 if kept.size else 0
        return cls(a, spec[np.arange(-keep, keep + 1) % m], check_hermitian=False)

    # -- basic queries ------------------------------------------------------

    @property
    def bandwidth(self) -> int:
        return (self._modes.shape[0] - 1) // 2

    @property
    def matrix_dim(self) -> int:
        return self._modes.shape[1]

    def mode(self, n: int) -> np.ndarray:
        b = self.bandwidth
        if abs(n) > b:
            return np.zeros((self.matrix_dim, self.matrix_dim), dtype=complex)
        return self._modes[n + b].copy()

    def content_key(self) -> tuple:
        """Hashable key of the radius and the exact mode data (bytes)."""
        return (self.a, self._modes.shape, self._modes.tobytes())

    def is_hermitian(self) -> bool:
        """``q_{-n} = q_n^dagger`` up to ``_HERM_TOL * max(1, max |q_n|)``, compared
        after dividing by the largest real or imaginary part, so nothing overflows."""
        q = self._modes
        s = max(1.0, float(np.max(np.abs(q.real))), float(np.max(np.abs(q.imag))))
        q = q / s
        mismatch = np.max(np.abs(q - q[::-1].conj().transpose(0, 2, 1)))
        return bool(mismatch <= _HERM_TOL * max(1.0 / s, float(np.max(np.abs(q)))))

    def mode_norm_sq(self, n: int) -> float:
        """``tr(q_n q_n^dagger)``, the weight entering second-order formulas."""
        q = self.mode(n)
        return float(np.real(np.trace(q @ q.conj().T)))

    def mean(self) -> np.ndarray:
        """Zero mode ``q_0`` (the average of the function)."""
        return self.mode(0)

    def trace_integral(self) -> float:
        """``integral of tr f over the circle = 2*pi*a*tr(q_0)``."""
        return float(2.0 * np.pi * self.a * np.real(np.trace(self.mode(0))))

    # -- calculus and sampling ----------------------------------------------

    def derivative(self, order: int = 1) -> "PeriodicFunction":
        if order < 0:
            raise ValueError("derivative order must be nonnegative")
        if order == 0:
            return self
        b = self.bandwidth
        ns = np.arange(-b, b + 1)
        factor = (1j * ns / self.a) ** order
        return PeriodicFunction(
            self.a, self._modes * factor[:, None, None], check_hermitian=False
        )

    def sample(self, m: int) -> np.ndarray:
        """Values on the uniform grid ``x_j = 2*pi*a*j/m``, shape ``(m, N, N)``.

        Exact (up to round-off) provided ``m >= 2*bandwidth + 1``.
        """
        b = self.bandwidth
        if m < 2 * b + 1:
            raise ValueError(f"grid {m} cannot carry bandwidth {b}; need >= {2 * b + 1}")
        dim = self.matrix_dim
        spec = np.zeros((m, dim, dim), dtype=complex)
        spec[np.arange(-b, b + 1) % m] += self._modes
        return np.fft.ifft(spec, axis=0) * m

    def sample_scalar(self, m: int) -> np.ndarray:
        """Real scalar samples (requires N = 1 and a Hermitian function)."""
        if self.matrix_dim != 1:
            raise ValueError("sample_scalar requires a 1x1 potential")
        return np.real(self.sample(m)[:, 0, 0])

    # -- arithmetic -----------------------------------------------------------

    def _aligned(self, other: "PeriodicFunction") -> tuple[np.ndarray, np.ndarray]:
        if abs(self.a - other.a) > 1e-15 * max(self.a, other.a):
            raise ValueError("circle radii differ")
        if self.matrix_dim != other.matrix_dim:
            raise ValueError("matrix dimensions differ")
        b = max(self.bandwidth, other.bandwidth)
        dim = self.matrix_dim

        def pad(f: "PeriodicFunction") -> np.ndarray:
            out = np.zeros((2 * b + 1, dim, dim), dtype=complex)
            off = b - f.bandwidth
            out[off:off + f._modes.shape[0]] = f._modes
            return out

        return pad(self), pad(other)

    def __add__(self, other):
        if not isinstance(other, PeriodicFunction):
            return NotImplemented
        x, y = self._aligned(other)
        return PeriodicFunction(self.a, x + y, check_hermitian=False)

    def __sub__(self, other):
        if not isinstance(other, PeriodicFunction):
            return NotImplemented
        x, y = self._aligned(other)
        return PeriodicFunction(self.a, x - y, check_hermitian=False)

    def __mul__(self, scalar):
        if isinstance(scalar, PeriodicFunction):
            return NotImplemented
        return PeriodicFunction(self.a, self._modes * complex(scalar), check_hermitian=False)

    __rmul__ = __mul__
