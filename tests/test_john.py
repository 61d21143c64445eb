import math
import sys

import numpy as np
import pytest

import s1mk
from s1mk import (
    DegenerateCurvatureWarning,
    Ellipse,
    EllipseSolveError,
    Grid,
    ParameterRangeError,
    PeriodicSamples,
    SupportFunction,
    area,
    centroid,
    containment_report,
    disk,
    ellipse_body,
    john,
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
        back = ellipse_from_json(ellipse_to_json(ell))
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

    def test_hull_gap_shrinks_with_n(self):
        # inscribed-polygon defect is second order in the spacing
        errs = []
        for n in (1024, 2048):
            ell = john(disk(Grid(n), 1.0))
            errs.append(max(abs(ell.r1 - 1.0), abs(ell.r2 - 1.0)))
        assert errs[0] / errs[1] > 3.0


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


class TestNearDegenerate:
    def test_smoothed_square(self):
        body = _smoothed_square()
        with pytest.warns(DegenerateCurvatureWarning):
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


class TestBarrierStopping:
    # _phi_grad_hess calls for the fits below, measured under the earlier
    # rule that ran every stage until lambda^2 <= 1e-8 or max_inner = 80
    # steps; its stages at t >= 1e12 spent the whole cap at the roundoff floor.
    FIXED_CAP_EVALUATIONS = 5819

    def test_stops_at_roundoff_floor(self, monkeypatch):
        calls = 0
        inner = JOHN_MODULE._phi_grad_hess

        def counted(*args):
            nonlocal calls
            calls += 1
            return inner(*args)

        monkeypatch.setattr(JOHN_MODULE, "_phi_grad_hess", counted)
        g = Grid(256)
        for seed in range(10):
            body = s1mk.random_convex_body(np.random.default_rng(seed), g)
            john(body)
            john(body, center=centroid(body))
        assert calls <= self.FIXED_CAP_EVALUATIONS // 2

    def test_uncentered_stage_raises(self):
        body = s1mk.random_convex_body(np.random.default_rng(0), Grid(256))
        work = s1mk.boundary_xy(body)
        normals, offsets = JOHN_MODULE._hull_halfplanes(work)
        with pytest.raises(EllipseSolveError, match="not centered") as info:
            JOHN_MODULE._barrier_solve(normals, offsets, work.mean(axis=0),
                                       max_inner=2)
        assert info.value.best is not None and info.value.best.shape == (5,)


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
