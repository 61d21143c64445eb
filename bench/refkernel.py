"""Reference kernels that measure how fast the machine is right now.

Each kernel is numpy/scipy only and never imports s1mk, so a change to the
package cannot change the yardstick.  Each one imitates the layer that
dominates one workload, so that a slow phase of the machine slows the kernel
and the workload by about the same factor:

  dense-lu    Jacobian-style row scaling plus LU factor/solve at n = 1024
  small-solve FFT derivatives, 256 x 256 LU and a 5-unknown Python loop
  barrier     a Python loop of 5-unknown barrier Newton steps on 256 edges
  trig-eval   dense cos/sin interpolation matrices at n = 512

A kernel call does a fixed amount of work and returns its duration in seconds.
``NOMINAL_S`` is the duration each kernel had when the benchmark was written
(2-core x86-64 VM, numpy 2.4 / OpenBLAS, one BLAS thread); dividing by the
measured duration rescales a throughput to that machine speed.
"""

from __future__ import annotations

import time

import numpy as np
from scipy.linalg import lu_factor, lu_solve
from scipy.spatial import ConvexHull

_RNG = np.random.default_rng(20240817)


def _dense_system(n):
    a = _RNG.standard_normal((n, n)) / np.sqrt(n)
    a[np.arange(n), np.arange(n)] += 4.0
    return a, _RNG.standard_normal(n), 1.0 + 0.1 * _RNG.random(n)


_DENSE = _dense_system(1024)
_SMALL = _dense_system(256)
_THETA256 = 2.0 * np.pi * np.arange(256) / 256
_NORMALS = np.column_stack([np.cos(_THETA256), np.sin(_THETA256)])
_POINTS = _NORMALS * (1.0 + 0.2 * np.cos(3.0 * _THETA256))[:, None]
_THETA512 = 2.0 * np.pi * np.arange(512) / 512
_COEF = _RNG.standard_normal(255) / (1.0 + np.arange(255)) ** 2


def _barrier_steps(count):
    a1, a2 = _NORMALS[:, 0], _NORMALS[:, 1]
    x = np.array([0.5, 0.5, 0.0, 0.0, 0.0])
    acc = 0.0
    for i in range(count):
        b11, b22, b12 = x[0] + 1e-3 * (i % 50), x[1], x[2]
        w1 = b11 * a1 + b12 * a2
        w2 = b12 * a1 + b22 * a2
        s = np.sqrt(w1 * w1 + w2 * w2)
        slack = 1.0 - _NORMALS @ x[3:5] - s
        acc += float(np.log(slack).sum())
        g = np.column_stack([w1 * a1 / s, w2 * a2 / s, (w1 * a2 + w2 * a1) / s, a1, a2])
        scaled = g / slack[:, None]
        hess = scaled.T @ scaled + np.eye(5)
        step = np.linalg.solve(hess, -(g.T @ (1.0 / slack)))
        acc += float(step @ step)
    return acc


_DENSE_WORK = np.empty_like(_DENSE[0], order="F")


def dense_lu() -> float:
    t0 = time.perf_counter()
    a, b, scale = _DENSE
    mat = _DENSE_WORK
    for _ in range(2):
        np.multiply(scale[:, None], a, out=mat)
        lu = lu_factor(mat, overwrite_a=True, check_finite=False)
        lu_solve(lu, b, check_finite=False)
    return time.perf_counter() - t0


def small_solve() -> float:
    t0 = time.perf_counter()
    a, b, scale = _SMALL
    k2 = -np.arange(129, dtype=float) ** 2
    for _ in range(4):
        for _ in range(12):
            v = np.fft.irfft(k2 * np.fft.rfft(b), 256) + b
            mat = scale[:, None] * a
            lu = lu_factor(mat)
            b = lu_solve(lu, v) / (1.0 + np.max(np.abs(v)))
        _barrier_steps(60)
    return time.perf_counter() - t0


def barrier() -> float:
    t0 = time.perf_counter()
    ConvexHull(_POINTS)
    _barrier_steps(1200)
    return time.perf_counter() - t0


def trig_eval() -> float:
    t0 = time.perf_counter()
    k = np.arange(1, 256)
    for shift in range(18):
        ang = (_THETA512 + 1e-3 * shift)[:, None] * k[None, :]
        np.cos(ang) @ _COEF - np.sin(ang) @ _COEF
    return time.perf_counter() - t0


KERNELS = {
    "dense-lu": dense_lu,
    "small-solve": small_solve,
    "barrier": barrier,
    "trig-eval": trig_eval,
}

NOMINAL_S = {
    "dense-lu": 0.074,
    "small-solve": 0.076,
    "barrier": 0.094,
    "trig-eval": 0.086,
}
