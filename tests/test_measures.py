import numpy as np
import pytest

import s1mk
from s1mk import (
    Grid,
    OriginOnBoundaryError,
    ParameterRangeError,
    PeriodicSamples,
    ProblemParams,
    SingularDensityError,
    SupportFunction,
    area,
    check_aleksandrov,
    check_dual_variational,
    check_lp_variational,
    disk,
    dual_volume,
    extrapolate_to_zero,
    lp_dual_density,
    lp_surface_density,
    scale,
    surface_density,
    translate,
)
from s1mk.measures import _one_sided_slopes


class TestDensities:
    def test_disk_totals(self, grid256):
        d = disk(grid256, 1.5)
        assert surface_density(d).total == pytest.approx(3 * np.pi, abs=1e-12)
        for p in (0.0, 0.5, 1.0, 2.0):
            assert lp_surface_density(d, p).total == pytest.approx(
                2 * np.pi * 1.5 ** (2 - p), rel=1e-13)
        for p, q in ((0.5, 2.0), (0.5, 3.0), (1.0, 4.0)):
            assert lp_dual_density(d, p, q).total == pytest.approx(
                2 * np.pi * 1.5 ** (q - p), rel=1e-13)

    def test_surface_density_is_curvature(self, ellipse21):
        dens = surface_density(ellipse21)
        assert np.array_equal(dens.density.values, ellipse21.curvature.values)
        assert dens.kind == "surface"

    def test_p_one_matches_surface_exactly(self, ellipse21):
        lp = lp_surface_density(ellipse21, 1.0)
        assert np.array_equal(lp.density.values,
                              surface_density(ellipse21).density.values)

    def test_lp_dual_q2_bit_consistent_with_lp_surface(self, grid256):
        body = s1mk.random_convex_body(np.random.default_rng(12), grid256)
        for p in (0.0, 0.5, 1.0, 3.0):
            a = lp_surface_density(body, p)
            b = lp_dual_density(body, p, 2.0)
            assert np.array_equal(a.density.values, b.density.values)
            assert a.total == b.total

    def test_density_metadata(self, unit_disk):
        d = lp_dual_density(unit_disk, 0.5, 3.0)
        assert d.kind == "lp_dual"
        assert d.p == 0.5 and d.q == 3.0

    def test_singular_for_p_above_one_near_zero_support(self):
        g = Grid(64)
        vals = 1.0 + np.cos(g.theta)  # support touches zero
        body = SupportFunction(PeriodicSamples(vals, g), validate=False)
        with pytest.raises(SingularDensityError):
            lp_surface_density(body, 2.0)

    def test_lp_dual_below_q2(self, grid256):
        # a disk of radius r about c: h'' + h = r, and the speed factor
        # (h^2 + h'^2)^(1/2) is |c + r u|, the distance to the boundary point
        r, c = 1.5, np.array([0.3, -0.2])
        body = disk(grid256, r, center=tuple(c))
        u = np.stack([np.cos(grid256.theta), np.sin(grid256.theta)])
        dist = np.linalg.norm(c[:, None] + r * u, axis=0)
        for p, q in ((0.5, 1.0), (0.0, 1.5)):
            dens = lp_dual_density(body, p, q).density.values
            expected = body.values ** (1 - p) * dist ** (q - 2) * r
            assert np.max(np.abs(dens - expected)) <= 1e-12 * np.max(expected), (p, q)

    def test_lp_dual_below_q2_singular_where_boundary_meets_origin(self, grid256):
        body = disk(grid256, 1.0, center=(1.0, 0.0))
        with pytest.raises(SingularDensityError, match="boundary meets the origin"):
            lp_dual_density(body, 0.5, 1.0)

    def test_scaling_laws(self, grid256):
        body = s1mk.random_convex_body(np.random.default_rng(2), grid256)
        big = scale(body, 1.7)
        for q in (2.0, 3.0):
            assert dual_volume(big, q) / dual_volume(body, q) == pytest.approx(
                1.7**q, rel=1e-10)
        ratio = (lp_dual_density(big, 0.5, 3.0).total
                 / lp_dual_density(body, 0.5, 3.0).total)
        assert ratio == pytest.approx(1.7 ** (3.0 - 0.5), rel=1e-10)


class TestDualVolume:
    def test_q2_is_area(self):
        # At q = 2 the dual curvature density is h (h'' + h) / 2, the same
        # samples and quadrature as area, so the identity holds bitwise.
        g = Grid(512)
        for seed in (1, 2, 3):
            body = s1mk.random_convex_body(np.random.default_rng(seed), g)
            off = translate(body, (0.05, -0.03))
            assert dual_volume(off, 2.0) == area(off)

    def test_matches_radial_oracle(self):
        # Criterion 8's bodies.  The radial route, (1/2) integral rho^q over
        # directions, shares no code with the curvature-measure route; its own
        # bisection and quadrature error is below 1e-8 here.
        g512 = Grid(512)
        bodies = [disk(Grid(256), 1.0), s1mk.ellipse_body(Grid(256), 2.0, 1.0)]
        bodies += [translate(s1mk.random_convex_body(np.random.default_rng(s), g512),
                             (0.05, -0.03)) for s in (1, 2, 3)]
        for body in bodies:
            rho = s1mk.radial(body).values
            for q in (-1.0, 2.0, 3.0):
                oracle = 0.5 * s1mk.integrate(PeriodicSamples(rho**q, body.grid))
                assert dual_volume(body, q) == pytest.approx(oracle, rel=1e-8)

    def test_disk_powers(self, grid256):
        d = disk(grid256, 1.25)
        for q in (1.0, 2.0, 3.5):
            assert dual_volume(d, q) == pytest.approx(np.pi * 1.25**q, rel=1e-12)

    def test_rejects_q_zero(self, unit_disk):
        with pytest.raises(ParameterRangeError):
            dual_volume(unit_disk, 0.0)

    def test_rejects_origin_on_boundary(self, grid256):
        with pytest.raises(OriginOnBoundaryError):
            dual_volume(disk(grid256, 1.0, center=(1.0, 0.0)), 2.0)


class TestProblemParams:
    def test_accepts_bounded_data(self, grid256):
        f = PeriodicSamples(np.full(256, 1.5), grid256)
        ProblemParams(0.5, 2.0, f, lam=2.0)

    def test_rejects_nonpositive_data(self, grid256):
        f = PeriodicSamples(np.zeros(256), grid256)
        with pytest.raises(ValueError):
            ProblemParams(0.5, 2.0, f)

    def test_rejects_bad_lambda(self, grid256):
        f = PeriodicSamples(np.ones(256), grid256)
        with pytest.raises(ValueError):
            ProblemParams(0.5, 2.0, f, lam=0.5)

    def test_rejects_data_outside_band(self, grid256):
        f = PeriodicSamples(np.full(256, 3.0), grid256)
        with pytest.raises(ValueError):
            ProblemParams(0.5, 2.0, f, lam=2.0)

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("lam", [None, 2.0])
    def test_rejects_non_finite_data(self, grid256, bad, lam):
        # NaN passes "min f <= 0" and "f range" tests; name the sample instead
        vals = np.ones(256)
        vals[[7, 9]] = bad
        with pytest.raises(ValueError, match=rf"data f has the non-finite sample {bad}"
                                             r" at theta = 0\.171806$"):
            ProblemParams(0.5, 2.0, PeriodicSamples(vals, grid256), lam=lam)


class TestExtrapolation:
    def test_exact_on_quadratic(self):
        steps = (1e-2, 5e-3, 2.5e-3)
        vals = [3.0 + 2.0 * t + 5.0 * t * t for t in steps]
        assert extrapolate_to_zero(steps, vals) == pytest.approx(3.0, abs=1e-12)

    def test_exact_on_linear(self):
        steps = (1e-2, 5e-3)
        vals = [7.0 - 4.0 * t for t in steps]
        assert extrapolate_to_zero(steps, vals) == pytest.approx(7.0, abs=1e-13)

    def test_first_order_error_halves_with_step(self, grid256, ellipse21):
        d = disk(grid256)
        exact = check_aleksandrov(ellipse21, d).rhs_integral
        steps = (4e-3, 2e-3, 1e-3, 5e-4)
        slopes = _one_sided_slopes(
            lambda t: area(s1mk.minkowski_sum(ellipse21, d, t)), steps)
        errs = [abs(s - exact) for s in slopes]
        for a, b in zip(errs, errs[1:]):
            assert 1.7 < a / b < 2.3


class TestVariationalIdentities:
    def test_aleksandrov_pairs(self, grid256, unit_disk, ellipse21):
        off = disk(grid256, 1.0, center=(0.3, 0.0))
        for k, l in ((unit_disk, unit_disk), (unit_disk, ellipse21),
                     (ellipse21, off)):
            rep = check_aleksandrov(k, l)
            assert rep.rel_error < 1e-6
            assert rep.normalization is None

    def test_aleksandrov_disk_slope_value(self, unit_disk):
        # d/dt area(B + t B) at 0 is the perimeter 2 pi
        rep = check_aleksandrov(unit_disk, unit_disk)
        assert rep.lhs_slope == pytest.approx(2 * np.pi, rel=1e-8)

    def test_lp_pairs(self, grid256, unit_disk, ellipse21):
        d2 = disk(grid256, 2.0)
        cases = [(unit_disk, ellipse21, 1.0), (d2, unit_disk, 2.0),
                 (ellipse21, unit_disk, 3.0)]
        for k, l, p in cases:
            rep = check_lp_variational(k, l, p)
            assert rep.rel_error < 1e-6

    def test_lp_disk_slope_value(self, grid256, unit_disk):
        # (1/p) integral h_L^p h_K^(1-p) dS_K with K = 2B, L = B is pi for p = 2
        rep = check_lp_variational(disk(grid256, 2.0), unit_disk, 2.0)
        assert rep.rhs_integral == pytest.approx(np.pi, rel=1e-12)

    def test_lp_rejects_p_below_one(self, unit_disk):
        with pytest.raises(ParameterRangeError):
            check_lp_variational(unit_disk, unit_disk, 0.5)

    def test_dual_pairs(self, grid256, unit_disk, ellipse21):
        d2 = disk(grid256, 2.0)
        off = disk(grid256, 1.0, center=(0.3, 0.0))
        cases = [(unit_disk, unit_disk, 2.0), (d2, unit_disk, 3.0),
                 (off, unit_disk, 2.0), (ellipse21, unit_disk, 3.0)]
        for k, l, q in cases:
            rep = check_dual_variational(k, l, q)
            assert rep.rel_error < 1e-6
            assert rep.normalization == 0.5

    def test_dual_disk_slope_value(self, grid256, unit_disk):
        # d/dt dual volume of (R B + t B) at 0 is q pi R^(q-1)
        rep = check_dual_variational(disk(grid256, 2.0), unit_disk, 3.0)
        assert rep.lhs_slope == pytest.approx(12 * np.pi, rel=1e-10)

    def test_report_carries_step_data(self, unit_disk):
        rep = check_aleksandrov(unit_disk, unit_disk)
        assert len(rep.steps) == len(rep.slopes) >= 3
