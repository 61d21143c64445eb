import json
import re
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import quad

import s1mk
from s1mk import body as body_module
from s1mk import (
    Grid,
    NegativeSupportError,
    NonconvexError,
    OriginOnBoundaryError,
    ParameterRangeError,
    PeriodicSamples,
    SupportFunction,
    area,
    boundary_xy,
    centroid,
    diameter,
    disk,
    ellipse_body,
    from_json,
    from_samples,
    minkowski_sum,
    p_sum,
    perimeter,
    radial,
    rho_at_normal,
    rotate,
    scale,
    to_json,
    translate,
)
from s1mk.grid import diff, trig_eval

ELLIPSE21_PERIMETER = 9.688448220547677  # arc length of (2 cos t, sin t)
_T64 = Grid(64).theta


def _message_tail_ratio(error) -> float:
    match = re.search(r"Fourier tail ratio (\S+)\)", str(error))
    assert match, str(error)
    return float(match.group(1))


class TestValidation:
    def test_negative_support_rejected(self):
        g = Grid(64)
        with pytest.raises(NegativeSupportError, match="theta"):
            from_samples(np.cos(g.theta), g)

    def test_nonconvex_rejected(self):
        g = Grid(64)
        # h stays positive but h'' + h = 1 - 1.5 cos(2t) dips negative
        with pytest.raises(NonconvexError) as exc:
            from_samples(1.0 + 0.5 * np.cos(2 * g.theta), g)
        assert exc.value.value < 0
        # a resolved trig polynomial: its Fourier tail is at roundoff
        assert _message_tail_ratio(exc.value) < 1e-12

    def test_under_resolved_ellipse_names_its_tail(self):
        # an aspect-100 ellipse is convex, but its interpolant on 256 or 512
        # samples is not; the error reports how unresolved the samples are
        for n, tail in ((256, 1.8e-4), (512, 2.9e-5)):
            with pytest.raises(NonconvexError) as exc:
                ellipse_body(Grid(n), 1.0, 0.01)
            assert exc.value.value < 0
            assert _message_tail_ratio(exc.value) == pytest.approx(tail, rel=0.05), n

    def test_tol_override_accepts_marginal_body(self):
        g = Grid(64)
        vals = 1.0 + (1.0 / 3.0 + 1e-7) * np.cos(2 * g.theta)
        with pytest.raises(NonconvexError):
            from_samples(vals, g)
        body = from_samples(vals, g, tol_convex=1e-5)
        assert float(np.min(body.curvature.values)) < 0.0

    # an infinite sample makes the whole curvature NaN, which numpy warns about
    @pytest.mark.parametrize("bad, error", [(np.nan, NegativeSupportError),
                                            (np.inf, NonconvexError)])
    def test_non_finite_sample_rejected(self, bad, error):
        g = Grid(64)
        vals = np.ones(64)
        vals[5] = bad
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(error, match="non-finite") as info:
                from_samples(vals, g)
        assert f"at theta = {g.theta[5]:.6f}" in str(info.value)

    # one reduction per invariant must not change what a rejected body
    # reports: each message is the text the four-reduction checks gave
    @pytest.mark.parametrize("vals, error, message", [
        (np.cos(_T64), NegativeSupportError,
         "support value -1.000e+00 < 0 at theta = 3.141593"),
        (np.where(np.arange(64) == 5, np.nan, 1.0), NegativeSupportError,
         "support value non-finite at theta = 0.490874"),
        (np.where(np.arange(64) == 5, np.inf, 1.0), NonconvexError,
         "curvature density non-finite: support value inf at theta = 0.490874"),
        # a unique curvature minimum at theta = 0 and a mode-20 tail
        (1.0 + 0.5 * np.cos(2 * _T64) + 0.01 * np.cos(3 * _T64) + 0.001 * np.cos(20 * _T64),
         NonconvexError, "curvature density -9.790000e-01 < -1.5e-09 at theta = 0.000000"
                         " (samples' Fourier tail ratio 5.0e-04)"),
    ], ids=["negative", "nan", "inf", "nonconvex"])
    def test_messages_word_for_word(self, vals, error, message):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(error) as info:
                from_samples(vals, Grid(64))
        assert str(info.value) == message

    def test_validate_false_skips_checks(self):
        g = Grid(64)
        s = PeriodicSamples(np.cos(g.theta), g)
        SupportFunction(s, validate=False)  # no raise


class TestReferenceBodies:
    def test_disk_measures(self, grid256):
        d = disk(grid256, 1.5)
        assert area(d) == pytest.approx(np.pi * 2.25, abs=1e-12)
        assert perimeter(d) == pytest.approx(3 * np.pi, abs=1e-12)
        assert diameter(d) == pytest.approx(3.0, abs=1e-12)
        assert np.allclose(centroid(d), 0.0, atol=1e-12)

    def test_shifted_disk_centroid(self, grid256):
        d = disk(grid256, 1.0, center=(0.3, -0.1))
        assert centroid(d) == pytest.approx((0.3, -0.1), abs=1e-10)

    def test_ellipse_area_and_diameter(self, ellipse21):
        assert area(ellipse21) == pytest.approx(2 * np.pi, rel=1e-12)
        assert diameter(ellipse21) == pytest.approx(4.0, abs=1e-12)

    def test_ellipse_perimeter_quad_oracle(self, ellipse21):
        oracle, est = quad(lambda t: np.hypot(2 * np.sin(t), np.cos(t)),
                           0.0, 2 * np.pi, epsabs=1e-13, limit=400)
        assert est < 1e-9
        assert perimeter(ellipse21) == pytest.approx(oracle, abs=1e-10)
        assert perimeter(ellipse21) == pytest.approx(ELLIPSE21_PERIMETER, abs=1e-12)


class TestBoundary:
    def test_points_on_implicit_curve(self, ellipse21):
        xy = boundary_xy(ellipse21)
        residual = (xy[:, 0] / 2.0) ** 2 + xy[:, 1] ** 2 - 1.0
        assert np.max(np.abs(residual)) < 1e-10

    def test_vanishing_curvature_warns(self, grid256):
        # h = 1 + cos(2 theta) / 3 has curvature density 1 - cos(2 theta),
        # zero at theta = 0 and pi, where boundary points may repeat
        body = from_samples(1.0 + np.cos(2.0 * grid256.theta) / 3.0, grid256)
        with pytest.warns(s1mk.DegenerateCurvatureWarning, match="nearly vanishes"):
            xy = boundary_xy(body)
        assert xy.shape == (256, 2)

    def test_rho_at_normal_is_boundary_distance(self, grid256):
        body = s1mk.random_convex_body(np.random.default_rng(5), grid256)
        xy = boundary_xy(body)
        assert np.max(np.abs(rho_at_normal(body).values
                             - np.hypot(xy[:, 0], xy[:, 1]))) < 1e-12


def _criterion_8_bodies():
    g512 = Grid(512)
    bodies = [disk(Grid(256), 1.0), ellipse_body(Grid(256), 2.0, 1.0)]
    return bodies + [translate(s1mk.random_convex_body(np.random.default_rng(s), g512),
                               (0.05, -0.03)) for s in (1, 2, 3)]


def _ellipse_rho(theta, aspect):
    return aspect / np.sqrt(np.cos(theta) ** 2 + aspect**2 * np.sin(theta) ** 2)


class TestRadial:
    def test_shifted_disk_formula(self, grid256):
        d = disk(grid256, 1.0, center=(0.3, 0.0))
        t = grid256.theta
        exact = 0.3 * np.cos(t) + np.sqrt(1.0 - 0.09 * np.sin(t) ** 2)
        assert np.max(np.abs(radial(d).values - exact)) < 1e-13

    def test_ellipse_formula(self, ellipse21):
        exact = _ellipse_rho(ellipse21.grid.theta, 2.0)
        assert np.max(np.abs(radial(ellipse21).values - exact)) < 1e-13

    @pytest.mark.parametrize("n_out", [128, 1024])
    def test_output_grid_override(self, ellipse21, n_out):
        out = Grid(n_out)
        rho = radial(ellipse21, out_grid=out)
        assert rho.n == n_out
        assert np.max(np.abs(rho.values - _ellipse_rho(out.theta, 2.0))) < 1e-13

    @pytest.mark.parametrize("aspect", [2.0, 5.0, 10.0, 20.0])
    def test_ellipses_at_1024(self, aspect):
        body = ellipse_body(Grid(1024), aspect, 1.0)
        exact = _ellipse_rho(body.grid.theta, aspect)
        assert np.max(np.abs(radial(body).values - exact)) < 1e-13 * exact.max()

    def test_zero_curvature_root(self):
        # h'' + h = 1 - cos(2t) vanishes at t = 0 and pi, where the Newton
        # quotient is 0/0 up to roundoff; by symmetry rho = h at the four axis
        # directions
        g = Grid(256)
        body = from_samples(1.0 + np.cos(2.0 * g.theta) / 3.0, g)
        axes = [0, 64, 128, 192]
        assert np.max(np.abs(radial(body).values[axes] - body.values[axes])) < 1e-14

    def test_trig_eval_calls(self, monkeypatch):
        # one evaluation per Newton step, and these bodies take 1-4 steps
        calls = []

        def counting(samples, theta):
            calls.append(1)
            return trig_eval(samples, theta)

        monkeypatch.setattr(body_module, "trig_eval", counting)
        for body in _criterion_8_bodies():
            calls.clear()
            radial(body)
            assert len(calls) <= 4

    def test_memory_at_2048(self):
        # trig_eval's m x n/2 angle and cosine tables, 32 MiB together; radial
        # itself holds O(n) arrays
        body = ellipse_body(Grid(2048), 2.0, 1.0)
        body.curvature
        tracemalloc.start()
        try:
            radial(body)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= 48 * 2**20

    def test_origin_on_boundary_rejected(self):
        g = Grid(256)
        vals = 1.0 + np.cos(g.theta)  # touches zero at theta = pi
        body = SupportFunction(PeriodicSamples(vals, g), validate=False)
        with pytest.raises(OriginOnBoundaryError):
            radial(body)


class TestArithmetic:
    def test_minkowski_sum_of_disks(self, grid256):
        s = minkowski_sum(disk(grid256, 1.0), disk(grid256, 2.0))
        assert np.max(np.abs(s.values - 3.0)) < 1e-12

    def test_minkowski_scaling_parameter(self, grid256, ellipse21):
        s = minkowski_sum(ellipse21, disk(grid256), 0.25)
        assert np.max(np.abs(s.values - (ellipse21.values + 0.25))) < 1e-12
        with pytest.raises(ValueError):
            minkowski_sum(ellipse21, disk(grid256), -0.1)

    def test_steiner_polynomial(self, grid256, ellipse21):
        # area(K + t B) must be exactly quadratic in t with leading
        # coefficient pi and linear coefficient the perimeter
        d = disk(grid256)
        ts = np.linspace(0.0, 1.0, 7)
        areas = [area(minkowski_sum(ellipse21, d, t)) for t in ts]
        c3, c2, c1, _ = np.polyfit(ts, areas, 3)
        assert abs(c3) < 1e-9
        assert c2 == pytest.approx(np.pi, abs=1e-9)
        assert c1 == pytest.approx(perimeter(ellipse21), abs=1e-9)

    def test_p_sum_reduces_to_minkowski_at_one(self, grid256, ellipse21):
        d = disk(grid256)
        lhs = p_sum(ellipse21, d, 0.7, 1.0)
        rhs = minkowski_sum(ellipse21, d, 0.7)
        assert np.array_equal(lhs.values, rhs.values)

    def test_p_sum_of_disks(self, grid256):
        s = p_sum(disk(grid256, 1.0), disk(grid256, 2.0), 0.5, 2.0)
        assert np.max(np.abs(s.values - np.sqrt(1.0 + 0.5 * 4.0))) < 1e-12

    def test_p_sum_rejects_p_below_one(self, grid256):
        with pytest.raises(ParameterRangeError):
            p_sum(disk(grid256), disk(grid256), 1.0, 0.5)

    def test_p_sum_rejects_negative_scale_and_nonpositive_support(self, grid256):
        with pytest.raises(ValueError, match="nonnegative"):
            p_sum(disk(grid256), disk(grid256), -0.5, 2.0)
        # the unit disk about (1, 0) has support 0 at theta = pi
        touching = disk(grid256, 1.0, center=(1.0, 0.0))
        for k, l in ((touching, disk(grid256)), (disk(grid256), touching)):
            with pytest.raises(ValueError, match="strictly positive"):
                p_sum(k, l, 0.5, 2.0)

    @pytest.mark.parametrize("value", [np.nan, np.inf])
    @pytest.mark.parametrize("combine, message", [
        (lambda d, v: minkowski_sum(d, d, v), "scale t must be nonnegative"),
        (lambda d, v: p_sum(d, d, v, 2.0), "scale t must be nonnegative"),
        (lambda d, v: scale(d, v), "scale factor must be positive"),
    ], ids=["minkowski_sum", "p_sum", "scale"])
    def test_non_finite_scale_rejected(self, combine, message, value):
        # the parameter is named, not a support sample it would spoil
        with pytest.raises(ValueError, match=f"{message}, got {value}"):
            combine(disk(Grid(64)), value)

    def test_cross_grid_p_sum_resamples(self, grid256):
        s = p_sum(disk(grid256, 1.0), disk(Grid(64), 2.0), 0.5, 2.0)
        assert s.grid == grid256
        assert np.max(np.abs(s.values - np.sqrt(1.0 + 0.5 * 4.0))) < 1e-12

    def test_cross_grid_sum_resamples(self, ellipse21):
        d = disk(Grid(64))
        s = minkowski_sum(ellipse21, d)
        assert s.grid.n_points == 256
        assert np.max(np.abs(s.values - (ellipse21.values + 1.0))) < 1e-10


class TestTransforms:
    def test_translate_keeps_shape(self, ellipse21):
        moved = translate(ellipse21, (0.2, -0.4))
        assert area(moved) == pytest.approx(area(ellipse21), rel=1e-12)
        assert perimeter(moved) == pytest.approx(perimeter(ellipse21), rel=1e-12)
        assert diameter(moved) == pytest.approx(diameter(ellipse21), rel=1e-12)
        c = centroid(moved)
        assert c == pytest.approx((0.2, -0.4), abs=1e-10)

    def test_rotate_grid_multiple_is_exact_roll(self, grid256):
        body = s1mk.random_convex_body(np.random.default_rng(8), grid256)
        k = 17
        rot = rotate(body, k * grid256.spacing)
        assert np.array_equal(rot.values, np.roll(body.values, k))

    def test_rotate_arbitrary_angle(self, grid256):
        phi = 0.3
        rot = rotate(ellipse_body(grid256, 2.0, 1.0), phi)
        exact = ellipse_body(grid256, 2.0, 1.0, angle=phi)
        assert np.max(np.abs(rot.values - exact.values)) < 1e-10

    def test_rotate_is_the_interpolant_shifted(self):
        # a large Nyquist mode, which the phase shift treats as trig_eval's
        # pure cosine
        g = Grid(64)
        body = from_samples(1.0 + 1e-4 * np.cos(32 * g.theta) + 0.1 * np.sin(3 * g.theta), g)
        for phi in (0.3, -1.1, 2.5):
            rot = rotate(body, phi)
            assert np.max(np.abs(rot.values - trig_eval(body.h, g.theta - phi))) < 1e-14

    def test_rotate_memory_is_linear_in_n(self):
        # evaluating the interpolant at n shifted angles takes two n x n/2
        # cos and sin tables, 33.6 MB at n = 2048
        body = s1mk.random_convex_body(np.random.default_rng(1), Grid(2048))
        tracemalloc.start()
        try:
            rotate(body, 0.3)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 2 * 2**20

    def test_scale(self, ellipse21):
        s = scale(ellipse21, 2.5)
        assert np.max(np.abs(s.values - 2.5 * ellipse21.values)) < 1e-12
        assert area(s) == pytest.approx(2.5**2 * area(ellipse21), rel=1e-12)
        with pytest.raises(ValueError):
            scale(ellipse21, -1.0)


def _no_diff(*args):
    raise AssertionError("a carrying construction differentiated its samples")


class TestCarriedDerivatives:
    """Constructions that commute with Fourier differentiation carry h' and
    h'' + h; the carried arrays equal ``diff`` of the samples to roundoff."""

    CONSTRUCTIONS = ("disk", "minkowski_sum", "scale", "translate", "rotate_roll",
                     "rotate_phase", "random_convex_body")

    @staticmethod
    def _build(name, grid):
        ell = ellipse_body(grid, 2.0, 1.0)
        rnd = s1mk.random_convex_body(np.random.default_rng(5), grid)
        for operand in (ell, rnd):
            operand.curvature  # differentiated before the construction runs
        builders = {
            "disk": lambda: disk(grid, 1.5, center=(0.3, -0.2)),
            "minkowski_sum": lambda: minkowski_sum(ell, rnd, 0.7),
            "scale": lambda: scale(rnd, 2.5),
            "translate": lambda: translate(ell, (0.2, -0.4)),
            "rotate_roll": lambda: rotate(rnd, 5 * grid.spacing),
            "rotate_phase": lambda: rotate(ell, 0.3),
            "random_convex_body":
                lambda: s1mk.random_convex_body(np.random.default_rng(6), grid),
        }
        return builders[name]

    @pytest.mark.parametrize("n", [64, 256, 512])
    @pytest.mark.parametrize("name", CONSTRUCTIONS)
    def test_carried_arrays_are_diff_to_roundoff(self, monkeypatch, name, n):
        build = self._build(name, Grid(n))
        with monkeypatch.context() as patch:
            patch.setattr(body_module, "diff", _no_diff)
            body = build()
            hp, curv = body.derivative.values, body.curvature.values
        ref_hp, ref_hpp = diff(body.h, (1, 2))
        tol = 1e-9 * float(body.values.max())
        assert np.max(np.abs(hp - ref_hp.values)) <= tol
        assert np.max(np.abs(curv - (ref_hpp.values + body.values))) <= tol

    def test_carried_bodies_are_validated(self, grid256):
        # h'' + h = 1 - 1.5 cos(2t) dips below zero; minkowski_sum's t < 0 is
        # checked by test_minkowski_scaling_parameter
        bent = SupportFunction(PeriodicSamples(1.0 + 0.5 * np.cos(2 * grid256.theta), grid256),
                               validate=False)
        for construct in (lambda: minkowski_sum(bent, disk(grid256), 0.1),
                          lambda: scale(bent, 2.0), lambda: translate(bent, (0.1, 0.0)),
                          lambda: rotate(bent, 0.3)):
            with pytest.raises(NonconvexError):
                construct()
        with pytest.raises(NegativeSupportError):
            translate(disk(grid256), (1.5, 0.0))


class TestSerialization:
    def test_roundtrip_is_exact(self, grid256):
        body = s1mk.random_convex_body(np.random.default_rng(3), grid256)
        data = to_json(body)
        again = from_json(json.loads(json.dumps(data)))
        assert np.array_equal(again.values, body.values)
        assert again.grid.n_points == body.grid.n_points

    def test_from_json_grid_is_the_sample_count(self, unit_disk):
        h = unit_disk.values.tolist()
        assert np.array_equal(from_json({"h": h}).values, unit_disk.values)
        with pytest.raises(ValueError, match="n_points"):
            from_json({"n_points": 128, "h": h})

    def test_from_json_accepts_text(self, unit_disk):
        text = json.dumps(to_json(unit_disk))
        assert np.array_equal(from_json(text).values, unit_disk.values)

    @pytest.mark.parametrize("data, message", [
        ({"n_points": 16}, r"lacks the keys \['h'\]"),
        ({"h": None}, '"h" must be a list'),
        ({"h": 1.0}, '"h" must be a list'),
        ("[1.0, 2.0]", r"lacks the keys \['h'\]"),
    ])
    def test_from_json_names_what_is_missing(self, data, message):
        with pytest.raises(ValueError, match=message):
            from_json(data)

    @pytest.mark.parametrize("data, message", [
        ({"n_points": 64, "h": [1.0] * 60}, "n_points = 64 but 60 samples"),
        ({"h": ["1"] * 64}, "each sample under 'h' must be a number, got '1'"),
        ({"h": [True] * 64}, "each sample under 'h' must be a number, got True"),
        ({"h": [{}] * 64}, "each sample under 'h' must be a number, got {}"),
        ({"h": [[1, 2]] * 16}, r"each sample under 'h' must be a number, got \[1, 2\]"),
        ({"h": [float("nan")] + [1.0] * 63}, "the samples under 'h' hold a non-finite value"),
        ({"h": [10**400] + [1.0] * 63}, "the samples under 'h' hold a non-finite value"),
        ({"h": [1.0] * 63}, "63 samples under 'h'; the grid needs an even count >= 16"),
        ({"h": [1.0] * 8}, "8 samples under 'h'; the grid needs an even count >= 16"),
    ], ids=["count", "strings", "bools", "dicts", "nested", "nan", "overflow", "odd", "short"])
    def test_from_json_rejects_malformed_samples(self, data, message):
        # the checks of the CLI's body and data files, in one reader
        with pytest.raises(ValueError, match=f"^{message}$"):
            from_json(data)


class TestConvexInvariants:
    @given(st.integers(0, 2**31 - 1))
    @settings(max_examples=20, deadline=None)
    def test_diameter_brackets_support(self, seed):
        g = Grid(128)
        body = s1mk.random_convex_body(np.random.default_rng(seed), g)
        max_h = float(np.max(body.values))
        assert max_h <= diameter(body) + 1e-12
        assert diameter(body) <= 2.0 * max_h + 1e-12

    @given(st.integers(0, 2**31 - 1))
    @settings(max_examples=20, deadline=None)
    def test_isodiametric_inequality(self, seed):
        g = Grid(128)
        body = s1mk.random_convex_body(np.random.default_rng(seed), g)
        assert area(body) <= np.pi * (diameter(body) / 2.0) ** 2 + 1e-10

    @given(st.integers(0, 2**31 - 1))
    @settings(max_examples=20, deadline=None)
    def test_isoperimetric_inequality(self, seed):
        g = Grid(128)
        body = s1mk.random_convex_body(np.random.default_rng(seed), g)
        assert 4.0 * np.pi * area(body) <= perimeter(body) ** 2 + 1e-10
