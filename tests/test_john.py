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

    @pytest.mark.parametrize("key", ["center", "r1", "r2", "angle"])
    def test_json_names_a_missing_key(self, key):
        data = ellipse_to_json(Ellipse((0.2, -0.1), 2.0, 1.0, 0.3))
        del data[key]
        with pytest.raises(ValueError, match=rf"lacks the keys \['{key}'\]"):
            ellipse_from_json(data)


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


def _resampled(seed, n):
    """A random body of 256 samples, resampled to n points."""
    coarse = s1mk.random_convex_body(np.random.default_rng(seed), Grid(256))
    return from_samples(resample(coarse.h, Grid(n)).values, Grid(n))


def _working_fit(pinned):
    """Constraints, pinned center (or None) and barrier solution of a random
    body's fit, in john()'s working coordinates."""
    body = s1mk.random_convex_body(np.random.default_rng(4), Grid(256))
    normals, offsets, shift, scale = JOHN_MODULE._support_constraints(body)
    fixed = (centroid(body) - shift) / scale if pinned else None
    x = JOHN_MODULE._barrier_solve(
        normals, offsets, fixed if pinned else np.zeros(2), pinned=pinned)
    return normals, offsets, fixed, x


def _kernel_at(normals, offsets, fixed, x):
    """The barrier kernel of a fit, free (``fixed`` None) or pinned at
    ``fixed``, at the solution-form point x: (value, grad_hess, constants,
    unknowns).  A pinned fit's unknowns are p = (p11, p22, p12) of P = B^2."""
    if fixed is None:
        return (JOHN_MODULE._barrier_value, JOHN_MODULE._barrier_grad_hess,
                JOHN_MODULE._constraint_constants(normals, offsets), x)
    b11, b22, b12 = x
    p = np.array([b11 * b11 + b12 * b12, b22 * b22 + b12 * b12, b12 * (b11 + b22)])
    return (JOHN_MODULE._pinned_value, JOHN_MODULE._pinned_grad_hess,
            JOHN_MODULE._pinned_constants(normals, offsets, fixed), p)


def _count_kernel_calls(monkeypatch):
    """Counts of the value and gradient/Hessian calls of both barrier kernels,
    updated as john() runs."""
    calls = {"value": 0, "grad_hess": 0}
    for name, key in (("_barrier_value", "value"), ("_pinned_value", "value"),
                      ("_barrier_grad_hess", "grad_hess"),
                      ("_pinned_grad_hess", "grad_hess")):
        inner = getattr(JOHN_MODULE, name)

        def wrapper(*args, _inner=inner, _key=key):
            calls[_key] += 1
            return _inner(*args)
        monkeypatch.setattr(JOHN_MODULE, name, wrapper)
    return calls


class TestBarrierStopping:
    # Barrier evaluations for the fits below, measured under the earlier
    # rule that ran every stage until lambda^2 <= 1e-8 or max_inner = 80
    # steps; its stages at t >= 1e12 spent the whole cap at the roundoff floor.
    FIXED_CAP_EVALUATIONS = 5819

    def test_stops_at_roundoff_floor(self, monkeypatch):
        # every evaluated point, a rejected trial or one whose gradient and
        # Hessian are built next, passes through a kernel's value once
        calls = _count_kernel_calls(monkeypatch)
        g = Grid(256)
        for seed in range(10):
            body = s1mk.random_convex_body(np.random.default_rng(seed), g)
            john(body)
            john(body, center=centroid(body))
        assert 0 < calls["grad_hess"] <= calls["value"]
        assert calls["value"] <= self.FIXED_CAP_EVALUATIONS // 2

    def test_uncentered_stage_raises(self):
        body = s1mk.random_convex_body(np.random.default_rng(0), Grid(256))
        normals, offsets, shift, scale = JOHN_MODULE._support_constraints(body)
        for pinned in (False, True):
            c = (centroid(body) - shift) / scale if pinned else np.zeros(2)
            with pytest.raises(EllipseSolveError, match="not centered") as info:
                JOHN_MODULE._barrier_solve(normals, offsets, c, pinned=pinned,
                                           max_inner=2)
            best = info.value.best
            # a pinned fit iterates on P = B^2 but reports B
            assert best is not None and best.shape == ((3,) if pinned else (5,))
            assert best[0] > 0.0 and best[0] * best[1] - best[2] ** 2 > 0.0

    def test_long_damped_stages_at_n_8192(self):
        # Fits over all 8192 normals can spend long damped phases at t of
        # about 1e7 (p: centroid-pinned).  The free fits' longest stages take
        # 54 (26), 88 (37) and 234 (87) Newton steps.  The pinned fits, which
        # iterate on P = B^2, take 24-36; iterating on B they took 47-237.
        # Fit 87 still comes within 2x of the cap of 400.  john() fits these
        # bodies on a working set, where no such phase occurs, so the barrier
        # runs on the full constraints here.
        for label in ("8p", "26", "26p", "37", "87", "92p", "99p"):
            body = _resampled(int(label.rstrip("p")), 8192)
            normals, offsets, shift, scale = JOHN_MODULE._support_constraints(body)
            pinned = label.endswith("p")
            c = (centroid(body) - shift) / scale if pinned else np.zeros(2)
            JOHN_MODULE._barrier_solve(normals, offsets, c, pinned=pinned)

    def test_full_set_pinned_seed_26_at_16384(self):
        # iterating on B, this fit ran out of max_inner = 400 steps at t =
        # 2.68e7; on P = B^2 its longest stage takes 53
        body = _resampled(26, 16384)
        normals, offsets, shift, scale = JOHN_MODULE._support_constraints(body)
        c = (centroid(body) - shift) / scale
        x = JOHN_MODULE._barrier_solve(normals, offsets, c, pinned=True, max_inner=400)
        assert TestWorkingSet._slack(normals, offsets, x, c).min() >= 0.0


class TestWorkingSet:
    @staticmethod
    def _fits(body):
        """Working coordinates of the body's free and centroid-pinned fits:
        (normals, offsets, pinned, start center) each."""
        normals, offsets, shift, scale = JOHN_MODULE._support_constraints(body)
        for pinned in (False, True):
            c = (centroid(body) - shift) / scale if pinned else np.zeros(2)
            yield normals, offsets, pinned, c

    @staticmethod
    def _slack(normals, offsets, x, c):
        """b_i - <a_i, c> - ||B a_i|| at every normal for the solution x."""
        b = np.array([[x[0], x[2]], [x[2], x[1]]])
        return offsets - normals @ c - np.linalg.norm(normals @ b, axis=1)

    @pytest.mark.parametrize("n", [256, 2048])
    def test_full_set_up_to_2048_normals(self, monkeypatch, n):
        # john() makes one barrier fit over all normals and returns its answer
        calls = []
        inner = JOHN_MODULE._barrier_solve

        def recorded(normals, offsets, center, pinned=False):
            calls.append((normals, offsets, inner(normals, offsets, center, pinned)))
            return calls[-1][2]
        monkeypatch.setattr(JOHN_MODULE, "_barrier_solve", recorded)
        body = _resampled(3, n)
        for normals, offsets, pinned, c in self._fits(body):
            calls.clear()
            john(body, center=centroid(body) if pinned else None)
            assert len(calls) == 1
            assert np.array_equal(calls[0][0], normals)
            assert np.array_equal(calls[0][1], offsets)
            assert np.array_equal(calls[0][2], inner(normals, offsets, c, pinned))

    def test_agrees_with_full_fit_at_8192(self):
        bodies = [body for _, body in s1mk.eccentric_battery()]
        bodies += [_resampled(seed, 8192) for seed in range(10)]
        for i, body in enumerate(bodies):
            for normals, offsets, pinned, c in self._fits(body):
                x = JOHN_MODULE._working_set_solve(normals, offsets, c, pinned)
                full = JOHN_MODULE._barrier_solve(normals, offsets, c, pinned)
                center = c if pinned else x[3:5]
                assert self._slack(normals, offsets, x, center).min() >= 0.0, (i, pinned)
                logdet = math.log(x[0] * x[1] - x[2] ** 2)
                assert abs(logdet - math.log(full[0] * full[1] - full[2] ** 2)) <= 1e-12

    def test_pinned_seed_26_at_16384(self):
        body = _resampled(26, 16384)
        normals, offsets, shift, scale = JOHN_MODULE._support_constraints(body)
        c = (centroid(body) - shift) / scale
        x = JOHN_MODULE._working_set_solve(normals, offsets, c, pinned=True)
        assert self._slack(normals, offsets, x, c).min() >= 0.0

    def test_start_outside_at_a_later_normal_raises_before_any_fit(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("no fit may start")
        monkeypatch.setattr(JOHN_MODULE, "_barrier_solve", refuse)
        g = Grid(8192)
        body = disk(g)
        # just outside the unit disk at normal 16, which the first working set
        # (every 32nd normal) lacks: inside at every normal of that set
        center = (1.0 + 1e-6) * np.array([math.cos(g.theta[16]), math.sin(g.theta[16])])
        normals, offsets, shift, scale = JOHN_MODULE._support_constraints(body)
        room = offsets - normals @ ((center - shift) / scale)
        assert room[::32].min() > 0.0 and room[16] < 0.0
        with pytest.raises(EllipseSolveError, match="not strictly interior") as info:
            john(body, center=center)
        assert info.value.best is None


class TestBarrierWork:
    # Value and gradient/Hessian calls of both kernels for the fits of
    # TestBarrierStopping: 1487 and 1068 with the pinned fits on P = B^2,
    # 1483 and 1049 with them on B (1482 and 1048 when the support
    # constraints came in), 1452 and 1032 under the edges of the sampled boundary's hull with
    # intermediate stages centered only to lambda^2 <= 1e-3, 1693 and 1270
    # with every stage centered to 1e-8, Cholesky steps and a predictor that
    # halves a move leaving the domain, 2088 and 1366 with LU steps and a
    # full-or-nothing predictor, 2800 and 1626 with the earlier
    # -log(r - |B a|) barrier.  The pins allow under 5% above the hull
    # form's pair (2.2% and 1.1% above the first).
    MAX_VALUE_CALLS = 1520
    MAX_GRAD_HESS_CALLS = 1080

    def test_barrier_calls_pinned(self, monkeypatch):
        calls = _count_kernel_calls(monkeypatch)
        g = Grid(256)
        for seed in range(10):
            body = s1mk.random_convex_body(np.random.default_rng(seed), g)
            john(body)
            john(body, center=centroid(body))
        assert calls["value"] <= self.MAX_VALUE_CALLS
        assert calls["grad_hess"] <= self.MAX_GRAD_HESS_CALLS

    @pytest.mark.parametrize("pinned", [False, True])
    @pytest.mark.parametrize("t", [1.0, 1e3, 1e6])
    def test_derivatives_match_central_differences(self, pinned, t):
        normals, offsets, fixed, x = _working_fit(pinned)
        x[:3] *= 0.5  # half the fitted ellipse: off the central path
        barrier, grad_hess, cons, x = _kernel_at(normals, offsets, fixed, x)

        def value(y):
            return barrier(y, t, cons)[0]

        _, parts = barrier(x, t, cons)
        grad, hess = grad_hess(x, t, cons, parts)
        steps = 1e-4 * np.eye(len(x))
        grad_fd = np.array([(value(x + e) - value(x - e)) / 2e-4 for e in steps])
        hess_fd = np.array([[(value(x + e + f) - value(x + e - f)
                              - value(x - e + f) + value(x - e - f)) / 4e-8
                             for f in steps] for e in steps])
        assert np.abs(grad_fd - grad).max() <= 1e-6 * np.abs(grad).max()
        assert np.abs(hess_fd - hess).max() <= 1e-6 * np.abs(hess).max()


class TestPinnedKernel:
    """A pinned fit iterates on P = B^2, where its constraints are linear."""

    def test_sqrt_shape_squares_back(self):
        rng = np.random.default_rng(2)
        for _ in range(100):
            a = rng.standard_normal((2, 2))
            p = a @ a.T + 1e-3 * np.eye(2)
            b11, b22, b12 = JOHN_MODULE._sqrt_shape(np.array([p[0, 0], p[1, 1], p[0, 1]]))
            b = np.array([[b11, b12], [b12, b22]])
            assert np.linalg.eigvalsh(b).min() > 0.0
            assert np.abs(b @ b - p).max() <= 1e-14 * np.abs(p).max()

    def test_pinned_at_the_free_center_agrees_with_the_free_fit(self):
        # the free fit is optimal among ellipses with its own center, and
        # both fits follow the same central path in t, so the pinned fit at
        # that center must return it
        bodies = [s1mk.random_convex_body(np.random.default_rng(seed), Grid(256))
                  for seed in range(50)]
        bodies += [body for _, body in s1mk.eccentric_battery()]
        for i, body in enumerate(bodies):
            free = john(body)
            pinned = john(body, center=free.center)
            assert abs(math.log(pinned.r1 * pinned.r2)
                       - math.log(free.r1 * free.r2)) <= 1e-12, i
            assert max(abs(pinned.r1 - free.r1), abs(pinned.r2 - free.r2)) <= 1e-12 * free.r1, i


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
        for scale, t in ((0.5, 1e3), (1.0, 1e12)):
            y = x.copy()
            y[:3] *= scale
            barrier, grad_hess, cons, y = _kernel_at(normals, offsets, fixed, y)
            _, parts = barrier(y, t, cons)
            grad, hess = grad_hess(y, t, cons, parts)
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

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_rejects_non_finite_exponents(self, unit_disk, bad):
        ell = Ellipse((0.0, 0.0), 1.0, 1.0, 0.0)
        with pytest.raises(ParameterRangeError, match=f"p in \\[0, 1\\], got {bad}"):
            sandwich_ratio(unit_disk, bad, 2.0, ellipse=ell)
        with pytest.raises(ParameterRangeError, match=f"finite q >= 2, got {bad}"):
            sandwich_ratio(unit_disk, 0.5, bad, ellipse=ell)
