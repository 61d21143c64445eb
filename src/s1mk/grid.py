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


def _multiplier(n: int, order: int) -> np.ndarray:
    """Fourier multiplier of d^order/dtheta^order on the rfft modes of n samples."""
    if order not in (1, 2):
        raise ValueError(f"derivative order must be 1 or 2, got {order}")
    k = np.arange(n // 2 + 1)
    if order == 1:
        mult = 1j * k.astype(float)
        # The Nyquist mode has no odd-order derivative representation on an
        # even grid; its consistent collocation value is zero.
        mult[-1] = 0.0
        return mult
    return -(k.astype(float) ** 2)


def diff(samples: PeriodicSamples, order: int) -> PeriodicSamples:
    """Differentiate periodic samples (order 1 or 2) by Fourier collocation."""
    n = samples.n
    out = np.fft.irfft(_multiplier(n, order) * np.fft.rfft(samples.values), n)
    return PeriodicSamples(out, samples.grid)


def integrate(samples: PeriodicSamples) -> float:
    """Trapezoid rule over one period."""
    return float(samples.values.sum() * samples.grid.spacing)


@lru_cache(maxsize=32)
def _diff_matrix_cached(n: int, order: int) -> np.ndarray:
    mult = _multiplier(n, order)
    mat = np.fft.irfft(mult[:, None] * np.fft.rfft(np.eye(n), axis=0), n, axis=0)
    mat.setflags(write=False)
    return mat


def diff_matrix(grid: Grid, order: int) -> np.ndarray:
    """Dense differentiation matrix D with (D @ v) == diff(v, order)."""
    return _diff_matrix_cached(grid.n_points, order)


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
    """Move samples to another grid via trigonometric interpolation.

    A finer grid gets the rfft zero-padded, which evaluates the interpolant at
    its nodes in O(m log m).  The coarse Nyquist mode is ``trig_eval``'s pure
    cosine, so it splits evenly between modes +-n/2; ``restrict`` adds the
    halves back, which makes it the exact inverse.  A coarser grid gets
    ``trig_eval`` at its nodes.
    """
    n, m = samples.n, out_grid.n_points
    if m == n:
        return PeriodicSamples(samples.values.copy(), out_grid)
    if m < n:
        return PeriodicSamples(trig_eval(samples, out_grid.theta), out_grid)
    coef = np.zeros(m // 2 + 1, dtype=complex)
    coef[: n // 2 + 1] = np.fft.rfft(samples.values) * (m / n)
    coef[n // 2] = 0.5 * coef[n // 2].real
    return PeriodicSamples(np.fft.irfft(coef, m), out_grid)


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
