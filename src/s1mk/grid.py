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


class PeriodicSamples:
    """Real samples of a periodic function, tied to the grid they live on."""

    __slots__ = ("values", "grid")  # immutable, not a frozen dataclass: each Newton trial makes 3

    def __init__(self, values, grid: Grid):
        vals = np.asarray(values, dtype=float)
        if vals.shape != (grid.n_points,):
            raise ValueError(f"expected {grid.n_points} samples, got shape {vals.shape}")
        object.__setattr__(self, "values", vals)
        object.__setattr__(self, "grid", grid)

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __reduce__(self):  # pickles and copies go through the checked constructor
        return PeriodicSamples, (self.values, self.grid)

    @property
    def n(self) -> int:
        return self.grid.n_points

    @property
    def theta(self) -> np.ndarray:
        return self.grid.theta


@lru_cache(maxsize=64)
def _multiplier(n: int, order: int | tuple) -> np.ndarray:
    """Fourier multiplier of d^order/dtheta^order on the rfft modes of n samples.

    ``order`` is 1, 2 or the pair (1, 2), whose multipliers are the rows of
    one complex array.  The result is cached and read-only.
    """
    if order == (1, 2):
        mult = np.stack([_multiplier(n, 1), _multiplier(n, 2)])
    elif order not in (1, 2):
        raise ValueError(f"derivative order must be 1, 2 or (1, 2), got {order}")
    elif order == 1:
        mult = 1j * np.arange(n // 2 + 1, dtype=float)
        # The Nyquist mode has no odd-order derivative representation on an
        # even grid; its consistent collocation value is zero.
        mult[-1] = 0.0
    else:
        mult = -(np.arange(n // 2 + 1, dtype=float) ** 2)
    mult.setflags(write=False)
    return mult


def diff(samples: PeriodicSamples, order: int | tuple):
    """Differentiate periodic samples (order 1 or 2) by Fourier collocation.

    The pair ``order=(1, 2)`` returns (first, second) derivative from one rfft
    and one two-row irfft, bit-identical to the two single-order calls.
    """
    rows = diff_rows(samples.values, order)
    if order == (1, 2):
        return PeriodicSamples(rows[0], samples.grid), PeriodicSamples(rows[1], samples.grid)
    return PeriodicSamples(rows, samples.grid)


def diff_rows(values: np.ndarray, order: int | tuple) -> np.ndarray:
    """``diff`` of each row of an array of samples; the last axis is the grid.

    For ``order=(1, 2)`` the derivatives of each row take a new second-to-last
    axis of length 2, first derivative first.
    """
    n = values.shape[-1]
    vh = np.fft.rfft(values)
    if order == (1, 2):
        vh = vh[..., None, :]
    return np.fft.irfft(_multiplier(n, order) * vh, n)


def tail_ratio(values: np.ndarray) -> float:
    """max_{k > n/4} |c_k| / |c_0| over the rfft coefficients of n samples.

    Near roundoff when the grid resolves the sampled function, as in
    Chebfun's chopping rule; large when its upper half of modes is not small.
    """
    coef = np.abs(np.fft.rfft(values))
    return float(coef[values.shape[0] // 4 + 1:].max() / coef[0])


def integrate(samples: PeriodicSamples) -> float:
    """Trapezoid rule over one period."""
    return float(samples.values.sum() * samples.grid.spacing)


@lru_cache(maxsize=32)
def diff_matrix(grid: Grid, order: int) -> np.ndarray:
    """Dense differentiation matrix D with (D @ v) == diff(v, order).

    Read-only and column-major (Fortran order), the layout LAPACK factors in
    place: the solver's Jacobian, which scales the rows of D, is then
    assembled column-major with no strided copy.
    """
    if order not in (1, 2):
        raise ValueError(f"derivative order must be 1 or 2, got {order}")
    n = grid.n_points
    mult = _multiplier(n, order)
    mat = np.fft.irfft(mult[:, None] * np.fft.rfft(np.eye(n), axis=0), n, axis=0)
    mat = np.asfortranarray(mat)
    mat.setflags(write=False)
    return mat


def trig_eval(samples, theta: np.ndarray) -> np.ndarray:
    """Evaluate the trigonometric interpolant at arbitrary angles.

    The interpolant uses the balanced convention for the Nyquist mode
    (a pure cosine), so it is real and reproduces the samples at grid points.
    It sums w_k (Re c_k cos k theta - Im c_k sin k theta) over modes 0..n/2,
    w_k = 1 at the constant and Nyquist modes (real c_k) and 2 between.  A
    sequence of samples on one grid gives one row each, from one table.
    """
    single = isinstance(samples, PeriodicSamples)
    v = np.array([s.values for s in ([samples] if single else samples)])
    n = v.shape[1]
    c = np.fft.rfft(v) * np.r_[1.0, np.full(n // 2 - 1, 2.0), 1.0] / n
    theta = np.atleast_1d(np.asarray(theta, dtype=float))
    ang = theta[:, None] * np.arange(n // 2 + 1)
    out = c.real @ np.cos(ang).T - c.imag @ np.sin(ang).T
    return out[0] if single else out


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
