import json
import math
import sys

import numpy as np
import pytest

import s1mk
from s1mk import (
    Ellipse,
    EllipseSolveError,
    Grid,
    ParameterRangeError,
    PeriodicSamples,
    SupportFunction,
    area,
    centroid,
    containment_report,
    diameter,
    disk,
    ellipse_body,
    from_samples,
    john,
    resample,
    rotate,
    sandwich_c2,
    sandwich_ratio,
)
from s1mk.john import ellipse_from_json, ellipse_to_json

JOHN_MODULE = sys.modules["s1mk.john"]  # the name s1mk.john is the function


def _ellipse_err(ell, r1, r2, center=(0.0, 0.0)):
    return max(abs(ell.r1 - r1), abs(ell.r2 - r2),
               float(np.max(np.abs(ell.center - np.asarray(center)))))


class TestEllipse:
    def test_axis_ordering_enforced(self):
        with pytest.raises(ValueError):
            Ellipse((0, 0), 1.0, 2.0, 0.0)
        with pytest.raises(ValueError):
            Ellipse((0, 0), 1.0, 0.0, 0.0)

    def test_angle_range_enforced(self):
        with pytest.raises(ValueError):
            Ellipse((0, 0), 2.0, 1.0, math.pi)

    def test_shape_matrix(self):
        ell = Ellipse((0, 0), 2.0, 1.0, 0.3)
        b = ell.shape_matrix
        # symmetric with eigenvalues r1, r2 and major axis at the angle
        assert np.allclose(b, b.T)
        w, v = np.linalg.eigh(b)
        assert w[1] == pytest.approx(2.0)
        assert w[0] == pytest.approx(1.0)
        major = v[:, 1]
        assert abs(major @ (math.cos(0.3), math.sin(0.3))) == pytest.approx(1.0)

    def test_json_roundtrip(self):
        ell = Ellipse((0.2, -0.1), 2.0, 1.0, 0.3)
        for data in (ellipse_to_json(ell), json.dumps(ellipse_to_json(ell))):
            back = ellipse_from_json(data)
            assert _ellipse_err(back, ell.r1, ell.r2, ell.center) == 0.0
            assert back.angle == ell.angle


class TestJohnRecovery:
    def test_disk(self):
        d = disk(Grid(4096), 1.0)
        ell = john(d)
        assert _ellipse_err(ell, 1.0, 1.0) < 1e-6

    def test_disk_center_accuracy(self):
        d = disk(Grid(4096), 1.0, center=(0.3, -0.2))
        ell = john(d)
        assert float(np.max(np.abs(ell.center - (0.3, -0.2)))) < 1e-6

    def test_ellipse(self):
        e = ellipse_body(Grid(8192), 2.0, 1.0)
        ell = john(e)
        assert _ellipse_err(ell, 2.0, 1.0) < 1e-6
        # major axis along x, up to the pi ambiguity
        assert min(ell.angle, math.pi - ell.angle) < 1e-4

    @pytest.mark.parametrize("n", [256, 1024, 2048])
    def test_recovery_at_every_n(self, n):
        # the constraints are the body's own support values, so no inscribed
        # polygon biases the fit on a coarse grid
        assert _ellipse_err(john(disk(Grid(n), 1.0)), 1.0, 1.0) <= 1e-10
        assert _ellipse_err(john(ellipse_body(Grid(n), 2.0, 1.0)), 2.0, 1.0) <= 1e-10

    def test_battery_ellipses(self):
        for name, body in s1mk.eccentric_battery():
            ell = john(body)
            assert _ellipse_err(ell, 1.0, float(body.values.min())) <= 1e-10, name


class TestSupportForm:
    def test_fit_reads_no_boundary_points_and_no_hull(self, monkeypatch):
        def refuse(*args):
            raise AssertionError("the fit needs only the support values")
        monkeypatch.setattr(JOHN_MODULE, "boundary_xy", refuse)
        monkeypatch.setattr(JOHN_MODULE, "ConvexHull", refuse)
        body = s1mk.random_convex_body(np.random.default_rng(0), Grid(256))
        john(body)
        john(body, center=centroid(body))

    def test_containment_between_samples(self):
        # E lies inside K at the sampled normals; between them h_E may exceed
        # h_K by O(n^-2) of the diameter, seen on a 4x finer grid
        excess = {256: [], 512: []}
        for seed in range(10):
            body = s1mk.random_convex_body(np.random.default_rng(seed), Grid(256))
            for n in excess:
                on_n = from_samples(resample(body.h, Grid(n)).values, Grid(n))
                ell = john(on_n)
                fine = Grid(4 * n)
                u = np.column_stack([np.cos(fine.theta), np.sin(fine.theta)])
                h_e = np.linalg.norm(u @ ell.shape_matrix, axis=1) + u @ ell.center
                h_k = resample(body.h, fine).values
                excess[n].append(float(np.max(h_e - h_k)) / diameter(body))
        assert max(excess[256]) <= 1e-4
        assert max(excess[256]) >= 3.0 * max(excess[512])


def _smoothed_square(n=16384, sigma=1e-3):
    """Support function of a unit-inradius square convolved with a heat kernel.

    The curvature measure of the square is four corner atoms of mass 2
    (perimeter 8 in total); smoothing replaces each atom with a wrapped
    Gaussian, and h is recovered through the 1 - k^2 symbol with the k=1
    modes dropped.
    """
    g = Grid(n)
    theta = g.theta
    dens = np.zeros(n)
    for j in range(4):
        d = theta - j * (np.pi / 2)
        for m in range(-6, 7):
            dens += 2.0 / (sigma * np.sqrt(2 * np.pi)) * np.exp(
                -0.5 * ((d + 2 * np.pi * m) / sigma) ** 2)
    coef = np.fft.rfft(dens) / n
    k = np.arange(len(coef))
    sym = 1.0 - k.astype(float) ** 2
    hk = np.zeros_like(coef)
    nz = sym != 0.0
    hk[nz] = coef[nz] / sym[nz]
    hk[1] = 0.0
    h = np.fft.irfft(hk * n, n=n)
    return SupportFunction(PeriodicSamples(h, g), tol_convex=1e-6)


class TestStart:
    def test_pinned_center_outside_hull_raises(self):
        # the start disk about the center needs a positive least edge slack
        with pytest.raises(EllipseSolveError, match="not strictly interior") as info:
            john(disk(Grid(256)), center=(5.0, 5.0))
        assert info.value.best is None


class TestNearDegenerate:
    def test_smoothed_square(self):
        body = _smoothed_square()
        ell = john(body)
        # John ellipse of a square is its incircle
        assert abs(ell.r1 - 1.0) <= 1e-3
        assert abs(ell.r1 - ell.r2) <= 1e-6
        assert abs(ell.r1 - float(np.min(body.values))) <= 1e-6

    def test_battery_extreme_aspect(self):
        e = ellipse_body(Grid(8192), 100.0, 1.0)
        ell = john(e)
        assert abs(ell.r2 - 1.0) <= 1e-3
        assert abs(ell.r1 - 100.0) / 100.0 <= 1e-2


class TestEquivariance:
    def test_rotation(self):
        g = Grid(2048)
        body = ellipse_body(g, 2.0, 1.0)
        k = 256  # grid multiple: 256 * (2 pi / 2048) = pi / 4
        ang = k * g.spacing
        ell0 = john(body)
        ell1 = john(rotate(body, ang))
        assert ell1.r1 == pytest.approx(ell0.r1, abs=1e-9)
        assert ell1.r2 == pytest.approx(ell0.r2, abs=1e-9)
        assert ell1.angle == pytest.approx((ell0.angle + ang) % math.pi,
                                           abs=1e-6)


class TestContainment:
    def test_certificates_on_random_bodies(self):
        g = Grid(512)
        for seed in range(5):
            body = s1mk.random_convex_body(np.random.default_rng(seed), g)
            ell = john(body)
            rep = containment_report(body, ell)
            assert rep["boundary_outside_E"]
            assert rep["inside_2E"]
            assert rep["containment_factor"] <= 2.0 + 1e-9

    def test_centroid_pinned_never_beats_free(self):
        g = Grid(512)
        for seed in (7, 8):
            body = s1mk.random_convex_body(np.random.default_rng(seed), g)
            free = john(body)
            c = centroid(body)
            pinned = john(body, center=c)
            assert float(np.max(np.abs(pinned.center - c))) < 1e-12
            assert pinned.r1 * pinned.r2 <= free.r1 * free.r2 * (1.0 + 1e-9)
            rep = containment_report(body, pinned)
            assert rep["boundary_outside_E"]


def _working_fit(pinned):
    """Constraints, pinned center (or None) and barrier solution of a random
    body's fit, in john()'s working coordinates."""
    body = s1mk.random_convex_body(np.random.default_rng(4), Grid(256))
    normals, offsets, shift, scale = JOHN_MODULE._support_constraints(body)
    fixed = (centroid(body) - shift) / scale if pinned else None
    x = JOHN_MODULE._barrier_solve(
        normals, offsets, fixed if pinned else np.zeros(2), pinned=pinned)
    return normals, offsets, fixed, x


class TestBarrierStopping:
    # Barrier evaluations for the fits below, measured under the earlier
    # rule that ran every stage until lambda^2 <= 1e-8 or max_inner = 80
    # steps; its stages at t >= 1e12 spent the whole cap at the roundoff floor.
    FIXED_CAP_EVALUATIONS = 5819

    def test_stops_at_roundoff_floor(self, monkeypatch):
        # every evaluated point, a rejected trial or one whose gradient and
        # Hessian are built next, passes through _barrier_value once
        calls = {"value": 0, "grad_hess": 0}

        def counted(name):
            inner = getattr(JOHN_MODULE, name)

            def wrapper(*args):
                calls[name.removeprefix("_barrier_")] += 1
                return inner(*args)
            monkeypatch.setattr(JOHN_MODULE, name, wrapper)

        counted("_barrier_value")
        counted("_barrier_grad_hess")
        g = Grid(256)
        for seed in range(10):
            body = s1mk.random_convex_body(np.random.default_rng(seed), g)
            john(body)
            john(body, center=centroid(body))
        assert 0 < calls["grad_hess"] <= calls["value"]
        assert calls["value"] <= self.FIXED_CAP_EVALUATIONS // 2

    def test_uncentered_stage_raises(self):
        body = s1mk.random_convex_body(np.random.default_rng(0), Grid(256))
        normals, offsets, _, _ = JOHN_MODULE._support_constraints(body)
        with pytest.raises(EllipseSolveError, match="not centered") as info:
            JOHN_MODULE._barrier_solve(normals, offsets, np.zeros(2), max_inner=2)
        assert info.value.best is not None and info.value.best.shape == (5,)

    def test_long_damped_stages_at_n_8192(self):
        # These fits spend more than 80 Newton steps in a damped phase at
        # t of about 1e7 (p: centroid-pinned); none needs more than 400.
        for label in ("8p", "26", "26p", "37", "87", "92p", "99p"):
            coarse = s1mk.random_convex_body(
                np.random.default_rng(int(label.rstrip("p"))), Grid(256))
            body = from_samples(resample(coarse.h, Grid(8192)).values, Grid(8192))
            john(body, center=centroid(body) if label.endswith("p") else None)


class TestBarrierWork:
    # _barrier_value and _barrier_grad_hess calls for the fits of
    # TestBarrierStopping: 1482 and 1048 under the body's support constraints,
    # 1452 and 1032 under the edges of the sampled boundary's hull with
    # intermediate stages centered only to lambda^2 <= 1e-3, 1693 and 1270
    # with every stage centered to 1e-8, Cholesky steps and a predictor that
    # halves a move leaving the domain, 2088 and 1366 with LU steps and a
    # full-or-nothing predictor, 2800 and 1626 with the earlier
    # -log(r - |B a|) barrier.  The pins allow under 5% above the hull
    # form's pair (2.6% and 3.1% above the first).
    MAX_VALUE_CALLS = 1520
    MAX_GRAD_HESS_CALLS = 1080

    def test_barrier_calls_pinned(self, monkeypatch):
        calls = {"_barrier_value": 0, "_barrier_grad_hess": 0}
        for name in calls:
            inner = getattr(JOHN_MODULE, name)

            def wrapper(*args, _inner=inner, _name=name):
                calls[_name] += 1
                return _inner(*args)
            monkeypatch.setattr(JOHN_MODULE, name, wrapper)
        g = Grid(256)
        for seed in range(10):
            body = s1mk.random_convex_body(np.random.default_rng(seed), g)
            john(body)
            john(body, center=centroid(body))
        assert calls["_barrier_value"] <= self.MAX_VALUE_CALLS
        assert calls["_barrier_grad_hess"] <= self.MAX_GRAD_HESS_CALLS

    @pytest.mark.parametrize("pinned", [False, True])
    @pytest.mark.parametrize("t", [1.0, 1e3, 1e6])
    def test_derivatives_match_central_differences(self, pinned, t):
        normals, offsets, fixed, x = _working_fit(pinned)
        x[:3] *= 0.5  # half the fitted ellipse: off the central path
        cons = JOHN_MODULE._constraint_constants(normals, offsets, fixed)

        def value(y):
            return JOHN_MODULE._barrier_value(y, t, cons)[0]

        _, parts = JOHN_MODULE._barrier_value(x, t, cons)
        grad, hess = JOHN_MODULE._barrier_grad_hess(x, t, cons, parts)
        steps = 1e-4 * np.eye(len(x))
        grad_fd = np.array([(value(x + e) - value(x - e)) / 2e-4 for e in steps])
        hess_fd = np.array([[(value(x + e + f) - value(x + e - f)
                              - value(x - e + f) + value(x - e - f)) / 4e-8
                             for f in steps] for e in steps])
        assert np.abs(grad_fd - grad).max() <= 1e-6 * np.abs(grad).max()
        assert np.abs(hess_fd - hess).max() <= 1e-6 * np.abs(hess).max()


class TestNewtonSolve:
    @pytest.fixture
    def solve_calls(self, monkeypatch):
        calls = []
        inner = np.linalg.solve

        def counted(a, b):
            calls.append(a.copy())
            return inner(a, b)
        monkeypatch.setattr(np.linalg, "solve", counted)
        return calls

    @pytest.mark.parametrize("pinned", [False, True])
    def test_cholesky_matches_lu_on_barrier_hessian(self, solve_calls, pinned):
        normals, offsets, fixed, x = _working_fit(pinned)
        solve_calls.clear()
        cons = JOHN_MODULE._constraint_constants(normals, offsets, fixed)
        for scale, t in ((0.5, 1e3), (1.0, 1e12)):
            y = x.copy()
            y[:3] *= scale
            _, parts = JOHN_MODULE._barrier_value(y, t, cons)
            grad, hess = JOHN_MODULE._barrier_grad_hess(y, t, cons, parts)
            step = JOHN_MODULE._newton_solve(hess, -grad)
            assert solve_calls == []     # Cholesky succeeded
            ref = np.linalg.solve(hess, -grad)
            # Both solves are backward stable, so they agree in the residual.
            # Near the final center the Hessian's condition number reaches
            # 1e4 to 1e14 (free fits, seeds 0-9), and forward errors with it.
            assert np.abs(hess @ (step - ref)).max() <= 1e-12 * np.abs(grad).max()
            solve_calls.clear()

    def test_indefinite_falls_back_to_lu(self, solve_calls):
        rng = np.random.default_rng(0)
        q, _ = np.linalg.qr(rng.standard_normal((5, 5)))
        hess = (q * np.array([3.0, 2.0, -1.0, 1.0, 0.5])) @ q.T
        rhs = rng.standard_normal(5)
        step = JOHN_MODULE._newton_solve(hess, rhs)
        assert len(solve_calls) == 1
        assert np.abs(hess @ step - rhs).max() <= 1e-12

    def test_singular_takes_the_ridge(self, solve_calls):
        hess = np.diag([1.0, 2.0, 0.0, 3.0, 4.0])
        rhs = np.ones(5)
        step = JOHN_MODULE._newton_solve(hess, rhs)
        assert len(solve_calls) == 2
        assert solve_calls[1][2, 2] > 0.0
        assert np.all(np.isfinite(step))
        assert step[0] == pytest.approx(1.0)


class TestOptimality:
    """The fit against feasible points near it, whatever path found it: each
    random perturbation is scaled down to the largest multiple, at most 1,
    that stays inside every support constraint, and none may raise log det B."""

    EPS = 1e-3
    TRIALS = 200

    @staticmethod
    def _largest_feasible(normals, offsets, b, c, d_b, d_c):
        """Per trial, the largest s in [0, 1] with B + s dB, c + s dc inside
        every constraint: ||(B + s dB) a_i|| + <a_i, c + s dc> <= b_i."""
        a1, a2 = normals[:, 0], normals[:, 1]

        def feasible(s):
            bs = b + s[:, None, None] * d_b
            cs = c + s[:, None] * d_c
            reach = np.hypot(bs[:, 0, :1] * a1 + bs[:, 0, 1:] * a2,
                             bs[:, 1, :1] * a1 + bs[:, 1, 1:] * a2)
            return (reach + cs @ normals.T <= offsets).all(axis=1)

        hi = np.ones(len(d_b))
        lo = np.where(feasible(hi), 1.0, 0.0)
        for _ in range(50):
            mid = 0.5 * (lo + hi)
            ok = feasible(mid)
            lo, hi = np.where(ok, mid, lo), np.where(ok, hi, mid)
        return lo

    @pytest.mark.parametrize("pinned", [False, True])
    def test_no_nearby_feasible_point_beats_the_fit(self, pinned):
        rng = np.random.default_rng(16)
        g = Grid(256)
        for seed in range(10):
            body = s1mk.random_convex_body(np.random.default_rng(500 + seed), g)
            ell = john(body, center=centroid(body) if pinned else None)
            normals, _, _, _ = JOHN_MODULE._support_constraints(body)
            offsets = body.values
            b, c = ell.shape_matrix, ell.center
            assert (np.linalg.norm(b @ normals.T, axis=0) + normals @ c
                    <= offsets).all()
            sym = rng.standard_normal((self.TRIALS, 2, 2))
            d_b = self.EPS * 0.5 * (sym + sym.transpose(0, 2, 1))
            d_c = (np.zeros((self.TRIALS, 2)) if pinned else
                   self.EPS * rng.standard_normal((self.TRIALS, 2)))
            s = self._largest_feasible(normals, offsets, b, c, d_b, d_c)
            assert np.count_nonzero(s) > 0
            sign, logdet = np.linalg.slogdet(b + s[:, None, None] * d_b)
            best = math.log(ell.r1 * ell.r2)
            assert np.all((sign <= 0) | (logdet <= best + 1e-9)), (
                seed, float(np.max(logdet - best)))


class TestSandwich:
    def test_c2_closed_forms(self):
        assert sandwich_c2(0.0, 2.0) == pytest.approx(8 * math.pi, rel=1e-15)
        assert sandwich_c2(1.0, 2.0) == pytest.approx(2**1.5 * math.pi, rel=1e-15)
        assert sandwich_c2(0.5, 3.0) == pytest.approx(2**4.25 * math.pi, rel=1e-15)
        assert sandwich_c2(0.5, 2.0) == pytest.approx(14.944017344357043,
                                                      rel=1e-15)

    def test_disk_ratio_exact_ellipse(self, unit_disk):
        ell = Ellipse((0.0, 0.0), 1.0, 1.0, 0.0)
        rep = sandwich_ratio(unit_disk, 0.5, 2.0, ellipse=ell)
        assert rep.ratio == pytest.approx(2 * math.pi / 2**0.25, abs=1e-12)
        assert rep.upper_ok and rep.lower_ok

    def test_disk_ratio_computed_ellipse(self):
        d = disk(Grid(4096), 1.0)
        rep = sandwich_ratio(d, 0.5, 2.0)
        assert rep.ratio == pytest.approx(2 * math.pi / 2**0.25, abs=1e-3)

    def test_ratio_stays_below_c2_on_random_bodies(self):
        g = Grid(512)
        for seed in (11, 12, 13):
            body = s1mk.random_convex_body(np.random.default_rng(seed), g)
            ell = john(body)
            for p in (0.0, 0.5, 1.0):
                for q in (2.0, 3.0):
                    rep = sandwich_ratio(body, p, q, ellipse=ell)
                    assert rep.upper_ok, (seed, p, q, rep.ratio, rep.c2)
                    assert rep.ratio > 0.0

    def test_parameter_validation(self, unit_disk):
        with pytest.raises(ParameterRangeError):
            sandwich_ratio(unit_disk, 1.5, 2.0)
        with pytest.raises(ParameterRangeError):
            sandwich_ratio(unit_disk, 0.5, 1.5)
