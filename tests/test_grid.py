import pickle

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import i0

from s1mk import (Grid, PeriodicSamples, SupportFunction, diff, diff_matrix, integrate,
                  resample, trig_eval)
from s1mk.grid import diff_rows, restrict


def trig_poly(grid, coeffs):
    t = grid.theta
    vals = np.zeros_like(t)
    for k, (a, b) in enumerate(coeffs, start=1):
        vals += a * np.cos(k * t) + b * np.sin(k * t)
    return PeriodicSamples(vals, grid)


class TestGrid:
    def test_theta_and_spacing(self):
        g = Grid(64)
        assert g.spacing == pytest.approx(2 * np.pi / 64, abs=0)
        assert g.theta[0] == 0.0
        assert np.allclose(np.diff(g.theta), g.spacing)

    def test_rejects_odd_and_tiny(self):
        with pytest.raises(ValueError):
            Grid(63)
        with pytest.raises(ValueError):
            Grid(8)

    def test_samples_shape_check(self):
        g = Grid(64)
        with pytest.raises(ValueError):
            PeriodicSamples(np.ones(65), g)

    def test_samples_are_immutable(self):
        s = PeriodicSamples(np.ones(64), Grid(64))
        for name in ("values", "grid", "other"):
            with pytest.raises(AttributeError):
                setattr(s, name, np.zeros(64))
        assert np.array_equal(s.values, np.ones(64))
        # a pickle round trip rebuilds through the checked constructor
        clone = pickle.loads(pickle.dumps(s))
        assert np.array_equal(clone.values, s.values) and clone.grid == s.grid


class TestDiff:
    def test_exact_on_modes(self):
        g = Grid(64)
        t = g.theta
        s = PeriodicSamples(np.cos(3 * t), g)
        assert np.max(np.abs(diff(s, 1).values + 3 * np.sin(3 * t))) < 1e-11
        assert np.max(np.abs(diff(s, 2).values + 9 * np.cos(3 * t))) < 1e-11

    def test_nyquist_mode(self):
        # the Nyquist cosine has no odd-order derivative representation on an
        # even grid; its first derivative is taken to be zero, the second is exact
        g = Grid(32)
        v = np.cos(16 * g.theta)
        s = PeriodicSamples(v, g)
        assert np.max(np.abs(diff(s, 1).values)) == 0.0
        assert np.max(np.abs(diff(s, 2).values + 256 * v)) < 1e-10

    def test_order_validation(self):
        s = PeriodicSamples(np.ones(32), Grid(32))
        with pytest.raises(ValueError):
            diff(s, 3)
        with pytest.raises(ValueError):
            diff_matrix(Grid(32), 3)
        with pytest.raises(ValueError):
            diff_matrix(Grid(32), (1, 2))

    @pytest.mark.parametrize("n", [16, 256, 8192])
    def test_pair_is_bitwise_two_calls(self, rng, n):
        g = Grid(n)
        s = PeriodicSamples(rng.normal(size=n) * 10.0 ** rng.uniform(-3, 3, size=n), g)
        first, second = diff(s, (1, 2))
        assert np.array_equal(first.values, diff(s, 1).values)
        assert np.array_equal(second.values, diff(s, 2).values)
        rows = np.stack([s.values, s.values[::-1]])
        assert np.array_equal(diff_rows(rows, (1, 2)),
                              np.stack([diff_rows(rows, 1), diff_rows(rows, 2)], axis=1))
        # a body fills both caches from the pair, whichever is read first
        for attr in ("derivative", "curvature"):
            body = SupportFunction(s, validate=False)
            getattr(body, attr)
            assert np.array_equal(body.derivative.values, diff(s, 1).values)
            assert np.array_equal(body.curvature.values, diff(s, 2).values + s.values)

    def test_matrix_matches_function(self, rng):
        g = Grid(64)
        s = trig_poly(g, [(rng.normal(), rng.normal()) for _ in range(6)])
        for order in (1, 2):
            d = diff_matrix(g, order) @ s.values
            assert np.max(np.abs(d - diff(s, order).values)) < 1e-10

    @given(st.integers(0, 2**31 - 1))
    @settings(max_examples=25, deadline=None)
    def test_derivative_integrates_to_zero(self, seed):
        g = Grid(64)
        r = np.random.default_rng(seed)
        s = PeriodicSamples(r.normal(size=64), g)
        scale = 1.0 + np.max(np.abs(s.values))
        assert abs(integrate(diff(s, 1))) < 1e-9 * scale

    @given(st.integers(0, 2**31 - 1))
    @settings(max_examples=25, deadline=None)
    def test_first_derivative_twice_matches_second(self, seed):
        g = Grid(64)
        r = np.random.default_rng(seed)
        s = trig_poly(g, [(r.normal(), r.normal()) for _ in range(10)])
        twice = diff(diff(s, 1), 1).values
        assert np.max(np.abs(twice - diff(s, 2).values)) < 1e-9


class TestIntegrate:
    def test_trig_square(self):
        # (1 + cos(t)/2)^2 integrates to 9 pi / 4; the trapezoid rule on a
        # periodic grid is exact for trigonometric polynomials below Nyquist
        g = Grid(64)
        s = PeriodicSamples((1.0 + 0.5 * np.cos(g.theta)) ** 2, g)
        assert integrate(s) == pytest.approx(2.25 * np.pi, abs=1e-13)

    def test_dense_trapezoid_oracle(self):
        g = Grid(64)
        s = PeriodicSamples((1.0 + 0.5 * np.cos(g.theta)) ** 2, g)
        tt = np.linspace(0.0, 2 * np.pi, 2**16 + 1)
        dense = np.trapezoid((1.0 + 0.5 * np.cos(tt)) ** 2, tt)
        assert integrate(s) == pytest.approx(dense, abs=1e-9)

    def test_spectral_accuracy_on_analytic_function(self):
        # integral of exp(cos t) is 2 pi I0(1); n = 32 already resolves it
        g = Grid(32)
        s = PeriodicSamples(np.exp(np.cos(g.theta)), g)
        assert integrate(s) == pytest.approx(2 * np.pi * i0(1.0), rel=1e-13)


class TestInterpolation:
    def test_trig_eval_reproduces_nodes(self, rng):
        g = Grid(64)
        s = trig_poly(g, [(rng.normal(), rng.normal()) for _ in range(8)])
        assert np.max(np.abs(trig_eval(s, g.theta) - s.values)) < 1e-12

    def test_trig_eval_off_grid(self):
        g = Grid(64)
        s = PeriodicSamples(np.cos(3 * g.theta - 0.4), g)
        t = np.array([0.1, 1.7, 4.0, 6.2])
        assert np.max(np.abs(trig_eval(s, t) - np.cos(3 * t - 0.4))) < 1e-12

    def test_trig_eval_rows_share_one_table(self, rng):
        # a sequence of samples gives the single-sample rows, a pure Nyquist
        # cosine among them, and each row reproduces its nodes
        g = Grid(64)
        rows = (trig_poly(g, [(rng.normal(), rng.normal()) for _ in range(8)]),
                PeriodicSamples(np.cos(32 * g.theta), g),
                PeriodicSamples(rng.standard_normal(64), g))
        t = np.concatenate([g.theta, rng.uniform(0.0, 2.0 * np.pi, 50)])
        table = trig_eval(rows, t)
        assert table.shape == (3, t.size)
        for s, row in zip(rows, table):
            top = np.max(np.abs(s.values))
            assert np.max(np.abs(row - trig_eval(s, t))) <= 1e-15 * top
            assert np.max(np.abs(row[:64] - s.values)) <= 1e-13 * top

    def test_resample_band_limited(self):
        g = Grid(32)
        fine = Grid(128)
        s = PeriodicSamples(np.cos(5 * g.theta) + 0.3, g)
        up = resample(s, fine)
        assert np.max(np.abs(up.values - (np.cos(5 * fine.theta) + 0.3))) < 1e-12
        back = resample(up, g)
        assert np.max(np.abs(back.values - s.values)) < 1e-12


class TestRestrict:
    def test_exact_below_coarse_nyquist(self, rng):
        # degree 127 < 256 / 2: truncation to n0 = 256 loses nothing, so the
        # coarse samples are the polynomial's own, and the mean stays put
        coeffs = [(rng.normal(), rng.normal()) for _ in range(127)]
        for n in (512, 1024):
            fine = trig_poly(Grid(n), coeffs)
            vals = fine.values + 3.0
            coarse = restrict(PeriodicSamples(vals, Grid(n)), Grid(256))
            exact = trig_poly(Grid(256), coeffs).values + 3.0
            assert np.max(np.abs(coarse.values - exact)) < 1e-11
            # the same number in exact arithmetic; 2 ulp apart at most
            assert abs(np.mean(coarse.values) - np.mean(vals)) <= 4e-16 * 3.0

    def test_coarse_nyquist_is_a_cosine(self):
        # cos(128 t) survives as trig_eval's Nyquist cosine, sin(128 t)
        # vanishes on the coarse nodes, and higher modes are dropped, not
        # aliased as subsampling would
        g, c = Grid(1024), Grid(256)
        t = g.theta
        s = PeriodicSamples(np.cos(128 * t) + np.sin(128 * t) + np.cos(200 * t), g)
        coarse = restrict(s, c)
        assert np.max(np.abs(coarse.values - np.cos(128 * c.theta))) < 1e-12
        up = trig_eval(coarse, t[:5])
        assert np.max(np.abs(up - np.cos(128 * t[:5]))) < 1e-12

    def test_inverts_prolongation(self, rng):
        c = Grid(256)
        s = trig_poly(c, [(rng.normal(), rng.normal()) for _ in range(127)])
        back = restrict(resample(s, Grid(512)), c)
        assert np.max(np.abs(back.values - s.values)) < 1e-12

    @pytest.mark.parametrize("n", [256, 384, 512])
    def test_fft_prolongation(self, rng, n):
        # full-spectrum samples, Nyquist mode included: zero-padding must
        # agree with the interpolant at the fine nodes and restrict back
        c, g = Grid(n), Grid(2 * n)
        s = PeriodicSamples(rng.standard_normal(n) + 2.0, c)
        up = resample(s, g)
        ref = trig_eval(s, g.theta)
        assert np.max(np.abs(up.values - ref)) <= 1e-12 * np.max(np.abs(ref))
        assert np.max(np.abs(up.values[::2] - s.values)) <= 1e-12 * np.max(np.abs(ref))
        back = restrict(up, c)
        assert np.max(np.abs(back.values - s.values)) <= 1e-14 * np.max(np.abs(s.values))

    @pytest.mark.parametrize("m", [384, 768, 1030])
    def test_prolongation_from_coarse_level(self, rng, m):
        # the solver's coarse level n = 128 to fine grids it does not divide
        # by a power of two: restriction undoes prolongation, Nyquist mode
        # included, and a polynomial of degree 63 < 128 / 2 is moved exactly
        c, g = Grid(128), Grid(m)
        s = PeriodicSamples(rng.standard_normal(128) + 2.0, c)
        back = restrict(resample(s, g), c)
        assert np.max(np.abs(back.values - s.values)) <= 1e-14 * np.max(np.abs(s.values))
        coeffs = [(rng.normal(), rng.normal()) for _ in range(63)]
        up = resample(trig_poly(c, coeffs), g)
        assert np.max(np.abs(up.values - trig_poly(g, coeffs).values)) < 1e-12

    def test_rejects_finer_grid(self):
        with pytest.raises(ValueError, match="finer"):
            restrict(PeriodicSamples(np.ones(64), Grid(64)), Grid(128))
