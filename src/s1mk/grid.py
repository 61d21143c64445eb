"""Uniform periodic grid on the circle plus spectral calculus on it.

Everything downstream samples 2*pi-periodic functions at theta_i = 2*pi*i/n.
Differentiation is Fourier collocation (exact for trigonometric polynomials of
degree below n/2); integration is the trapezoid rule, which on a uniform
periodic grid coincides with the rectangle rule and is spectrally accurate.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, lru_cache

import numpy as np

TWO_PI = 2.0 * np.pi


@dataclass(frozen=True)
class Grid:
    """Uniform angular grid theta_i = 2*pi*i/n_points."""

    n_points: int = 256

    def __post_init__(self):
        if self.n_points % 2 != 0 or self.n_points < 16:
            raise ValueError(
                f"n_points must be even and >= 16, got {self.n_points}"
            )

    @cached_property
    def theta(self) -> np.ndarray:
        return np.arange(self.n_points) * self.spacing

    @property
    def spacing(self) -> float:
        return TWO_PI / self.n_points


@dataclass(frozen=True, eq=False)
class PeriodicSamples:
    """Real samples of a periodic function, tied to the grid they live on."""

    values: np.ndarray
    grid: Grid

    def __post_init__(self):
        vals = np.asarray(self.values, dtype=float)
        if vals.shape != (self.grid.n_points,):
            raise ValueError(
                f"expected {self.grid.n_points} samples, got shape {vals.shape}"
            )
        object.__setattr__(self, "values", vals)

    @property
    def n(self) -> int:
        return self.grid.n_points

    @property
    def theta(self) -> np.ndarray:
        return self.grid.theta


def _spectral_derivative(values: np.ndarray, order: int) -> np.ndarray:
    n = values.shape[0]
    coef = np.fft.rfft(values)
    k = np.arange(n // 2 + 1)
    if order == 1:
        mult = 1j * k.astype(float)
        # The Nyquist mode has no odd-order derivative representation on an
        # even grid; its consistent collocation value is zero.
        mult[-1] = 0.0
    else:
        mult = -(k.astype(float) ** 2)
    return np.fft.irfft(mult * coef, n)


def _fd_derivative(values: np.ndarray, order: int, spacing: float) -> np.ndarray:
    left = np.roll(values, 1)
    right = np.roll(values, -1)
    if order == 1:
        return (right - left) / (2.0 * spacing)
    return (right - 2.0 * values + left) / spacing**2


def diff(samples: PeriodicSamples, order: int, method: str = "spectral") -> PeriodicSamples:
    """Differentiate periodic samples.

    Parameters
    ----------
    samples : PeriodicSamples
    order : int
        1 or 2.
    method : str
        "spectral" (default) for Fourier collocation, "fd" for second-order
        central differences (robustness studies only).
    """
    if order not in (1, 2):
        raise ValueError(f"derivative order must be 1 or 2, got {order}")
    if method == "spectral":
        out = _spectral_derivative(samples.values, order)
    elif method == "fd":
        out = _fd_derivative(samples.values, order, samples.grid.spacing)
    else:
        raise ValueError(f"unknown differentiation method {method!r}")
    return PeriodicSamples(out, samples.grid)


def integrate(samples: PeriodicSamples) -> float:
    """Trapezoid rule over one period."""
    return float(samples.values.sum() * samples.grid.spacing)


@lru_cache(maxsize=32)
def _diff_matrix_cached(n: int, order: int, method: str) -> np.ndarray:
    if method == "spectral":
        coef = np.fft.rfft(np.eye(n), axis=0)
        k = np.arange(n // 2 + 1)
        if order == 1:
            mult = 1j * k.astype(float)
            mult[-1] = 0.0
        else:
            mult = -(k.astype(float) ** 2)
        mat = np.fft.irfft(mult[:, None] * coef, n, axis=0)
    else:
        spacing = TWO_PI / n
        mat = np.zeros((n, n))
        idx = np.arange(n)
        if order == 1:
            mat[idx, (idx + 1) % n] = 1.0 / (2.0 * spacing)
            mat[idx, (idx - 1) % n] = -1.0 / (2.0 * spacing)
        else:
            mat[idx, (idx + 1) % n] = 1.0 / spacing**2
            mat[idx, (idx - 1) % n] = 1.0 / spacing**2
            mat[idx, idx] = -2.0 / spacing**2
    mat.setflags(write=False)
    return mat


def diff_matrix(grid: Grid, order: int, method: str = "spectral") -> np.ndarray:
    """Dense differentiation matrix D with (D @ v) == diff(v, order)."""
    if order not in (1, 2):
        raise ValueError(f"derivative order must be 1 or 2, got {order}")
    if method not in ("spectral", "fd"):
        raise ValueError(f"unknown differentiation method {method!r}")
    return _diff_matrix_cached(grid.n_points, order, method)


def trig_eval(samples: PeriodicSamples, theta: np.ndarray) -> np.ndarray:
    """Evaluate the trigonometric interpolant at arbitrary angles.

    The interpolant uses the balanced convention for the Nyquist mode
    (a pure cosine), so it is real and reproduces the samples at grid points.
    """
    v = samples.values
    n = samples.n
    c = np.fft.rfft(v) / n
    theta = np.atleast_1d(np.asarray(theta, dtype=float))
    k = np.arange(1, n // 2)
    ang = theta[:, None] * k[None, :]
    out = np.full(theta.shape, c[0].real)
    out += 2.0 * (np.cos(ang) @ c[1 : n // 2].real - np.sin(ang) @ c[1 : n // 2].imag)
    out += c[n // 2].real * np.cos((n // 2) * theta)
    return out


def resample(samples: PeriodicSamples, out_grid: Grid) -> PeriodicSamples:
    """Move samples to another grid via trigonometric interpolation."""
    if out_grid.n_points == samples.n:
        return PeriodicSamples(samples.values.copy(), out_grid)
    return PeriodicSamples(trig_eval(samples, out_grid.theta), out_grid)


def restrict(samples: PeriodicSamples, out_grid: Grid) -> PeriodicSamples:
    """Move samples to a coarser grid by Fourier truncation.

    Modes below the coarse Nyquist frequency m/2 are kept as they are.  The
    coarse Nyquist mode is a pure cosine, as in ``trig_eval``; it takes the
    cosine part of the fine mode m/2, whose sine part vanishes on the coarse
    nodes.  Unlike subsampling, this does not alias higher modes.
    """
    n, m = samples.n, out_grid.n_points
    if m > n:
        raise ValueError(f"cannot restrict {n} samples to a finer grid of {m}")
    coef = np.fft.rfft(samples.values)[: m // 2 + 1] * (m / n)
    if m < n:
        coef[-1] = 2.0 * coef[-1].real
    return PeriodicSamples(np.fft.irfft(coef, m), out_grid)
