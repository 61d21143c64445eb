import csv
import json
from functools import lru_cache

import numpy as np
import pytest

from s1mk import (
    EllipseSolveError,
    ExperimentConfig,
    Grid,
    InvariantViolationError,
    ParameterRangeError,
    PeriodicSamples,
    StagnationError,
    diff,
    eccentric_battery,
    gen_f,
    holder_proxy,
    random_convex_body,
    random_initial_body,
    run_diameter,
    run_maxprinciple,
    run_sandwich,
    run_uniqueness,
)
from s1mk import harness
from s1mk.harness import write_csv


def _failing_john(monkeypatch, failing_call):
    """Make harness.john raise on its failing_call-th call (1-based).

    The battery rows get an empty cache of their own for the test, so the
    battery is fit by the failing john and no injected failure outlives it.
    """
    monkeypatch.setattr(harness, "_battery_rows",
                        lru_cache(harness._battery_rows.__wrapped__))
    real = harness.john
    calls = []

    def flaky(body, **kw):
        calls.append(kw)
        if len(calls) == failing_call:
            raise EllipseSolveError("injected failure", best=None)
        return real(body, **kw)

    monkeypatch.setattr(harness, "john", flaky)


def _rows(path):
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


class TestGenF:
    def test_bounds_are_sharp(self, grid256):
        for kind in ("trig", "bump", "piecewise"):
            f = gen_f(kind, 2.0, 0, grid256)
            assert float(f.values.min()) == 0.5
            assert float(f.values.max()) == pytest.approx(2.0, rel=1e-15)
            assert np.all(f.values > 0.0)

    def test_lambda_one_collapses_to_constant(self, grid256):
        f = gen_f("trig", 1.0, 0, grid256)
        assert np.all(f.values == 1.0)

    def test_shape_independent_of_lambda(self, grid256):
        a = gen_f("trig", 2.0, 5, grid256).values
        b = gen_f("trig", 4.0, 5, grid256).values
        na = (a - a.min()) / (a.max() - a.min())
        nb = (b - b.min()) / (b.max() - b.min())
        assert np.allclose(na, nb, atol=1e-14)

    def test_deterministic_in_seed(self, grid256):
        a = gen_f("bump", 2.0, 9, grid256).values
        b = gen_f("bump", 2.0, 9, grid256).values
        c = gen_f("bump", 2.0, 10, grid256).values
        assert np.array_equal(a, b)
        assert not np.array_equal(a, c)

    def test_rejects_bad_arguments(self, grid256):
        with pytest.raises(ValueError):
            gen_f("sawtooth", 2.0, 0, grid256)
        with pytest.raises(ValueError):
            gen_f("trig", 0.5, 0, grid256)


class TestBodyGenerators:
    def test_random_convex_body_margins(self, grid256):
        for seed in range(4):
            body = random_convex_body(np.random.default_rng(seed), grid256)
            assert float(body.values.min()) > 0.05
            assert float(body.curvature.values.min()) > 0.01

    @pytest.mark.parametrize("n", [64, 256, 512])
    def test_random_convex_body_matches_one_at_a_time_draws(self, n):
        # the first acceptable candidate of one-at-a-time draws, bit for bit
        grid = Grid(n)
        t = grid.theta
        for seed in range(50):
            rng = np.random.default_rng(seed)
            for _ in range(500):
                h = np.ones_like(t)
                for k in range(1, 7):
                    a, b = rng.normal(0.0, 0.4 / k**2, size=2)
                    h += a * np.cos(k * t) + b * np.sin(k * t)
                curv = diff(PeriodicSamples(h, grid), 2).values + h
                if float(h.min()) > 0.05 and float(curv.min()) > 0.01:
                    break
            body = random_convex_body(np.random.default_rng(seed), grid)
            assert np.array_equal(body.values, h), seed

    def test_random_initial_body_is_valid(self, grid256):
        for seed in range(4):
            body = random_initial_body(np.random.default_rng(seed), grid256)
            assert float(body.values.min()) > 0.0

    def test_battery_contents(self):
        battery = eccentric_battery()
        assert [name for name, _ in battery] == [
            "ellipse-2", "ellipse-5", "ellipse-10", "ellipse-20",
            "ellipse-50", "ellipse-100"]
        for name, body in battery:
            aspect = int(name.split("-")[1])
            assert body.grid.n_points == 8192
            ratio = float(body.values.max() / body.values.min())
            assert ratio == pytest.approx(aspect, rel=1e-12)


class TestHolderProxy:
    def test_positively_homogeneous(self, grid256):
        dev = np.sin(3 * grid256.theta) + 0.2 * np.cos(grid256.theta)
        base = holder_proxy(dev, grid256)
        assert holder_proxy(2.5 * dev, grid256) == pytest.approx(2.5 * base,
                                                                 rel=1e-12)

    def test_zero_on_zero(self, grid256):
        assert holder_proxy(np.zeros(256), grid256) == 0.0

    def test_dominates_sup_norm(self, grid256):
        dev = np.cos(2 * grid256.theta)
        assert holder_proxy(dev, grid256) >= 1.0


class TestWriteCsv:
    def test_formatting(self, tmp_path):
        path = tmp_path / "t.csv"
        write_csv(path, ["a", "b", "c", "d"],
                  [[1, 0.1, None, True], ["x", 2.5, False, -3]])
        data = path.read_bytes()
        lines = data.split(b"\r\n")
        assert lines[0] == b"a,b,c,d"
        assert lines[1] == b"1,0.10000000000000001,,true"
        assert lines[2] == b"x,2.5,false,-3"


class TestRunSandwich:
    def _cfg(self, out_dir, **kw):
        base = dict(kind="sandwich", p=0.5, q=2.0, n_samples=3, seed=0,
                    n_points=256, out_dir=str(out_dir))
        base.update(kw)
        return ExperimentConfig(**base)

    def test_rows_and_summary(self, tmp_path):
        out = run_sandwich(self._cfg(tmp_path))
        s = out["summary"]
        assert s["n_rows"] == 3 + 6  # samples plus the eccentric battery
        assert s["upper_violations"] == 0
        assert s["ratio_min"] > 0.0
        assert s["ratio_max"] <= s["c2"] + 1e-9
        assert s["containment_centroid_max"] <= 2.0 + 1e-9

    def test_csv_deterministic(self, tmp_path):
        a = run_sandwich(self._cfg(tmp_path / "a"))
        b = run_sandwich(self._cfg(tmp_path / "b"))
        bytes_a = open(a["csv"], "rb").read()
        bytes_b = open(b["csv"], "rb").read()
        assert bytes_a == bytes_b
        assert b"\r\n" in bytes_a

    def test_failed_fit_marks_its_row(self, tmp_path, monkeypatch):
        _failing_john(monkeypatch, 3)  # the free fit of sample s001
        out = run_sandwich(self._cfg(tmp_path))
        rows = _rows(out["csv"])
        assert [row["converged"] for row in rows] == ["true", "false"] + ["true"] * 7
        assert all(value == "" for key, value in rows[1].items()
                   if key not in ("id", "body_kind", "converged"))
        assert out["summary"]["n_rows"] == 9
        assert out["summary"]["n_converged"] == 8

    def test_battery_is_measured_once_per_p_q(self, tmp_path, monkeypatch):
        cfg = self._cfg(tmp_path)
        run_sandwich(cfg)
        real = harness.containment_report
        calls = []

        def counted(body, ellipse):
            calls.append(body)
            return real(body, ellipse)

        monkeypatch.setattr(harness, "containment_report", counted)
        run_sandwich(cfg)
        assert len(calls) == cfg.n_samples

    def test_cached_battery_rows_equal_a_fresh_fit(self, tmp_path):
        cached = harness._battery_rows(0.5, 2.0)
        harness._battery_rows.cache_clear()
        run_sandwich(self._cfg(tmp_path))
        fresh = harness._battery_rows(0.5, 2.0)
        assert fresh is not cached
        assert fresh == cached

    def test_parameter_validation(self, tmp_path):
        with pytest.raises(ParameterRangeError):
            run_sandwich(self._cfg(tmp_path, p=1.5))
        with pytest.raises(ParameterRangeError):
            run_sandwich(self._cfg(tmp_path, q=1.5))


class TestRunDiameter:
    def test_small_sweep(self, tmp_path):
        cfg = ExperimentConfig(kind="diameter", p=0.5, q=2.0, n_samples=3,
                               seed=0, n_points=256, out_dir=str(tmp_path))
        out = run_diameter(cfg)
        s = out["summary"]
        assert s["n_converged"] == 3
        assert s["baseline_max_h"] == 1.0  # data f == 1 solves exactly
        assert 0.0 < s["empirical_max_h"] < 10.0

    def test_failed_fit_marks_its_row(self, tmp_path, monkeypatch):
        _failing_john(monkeypatch, 2)
        cfg = ExperimentConfig(kind="diameter", p=0.5, q=2.0, n_samples=3,
                               seed=0, n_points=256, out_dir=str(tmp_path))
        out = run_diameter(cfg)
        rows = _rows(out["csv"])
        assert [row["converged"] for row in rows] == ["true", "false", "true"]
        assert all(rows[1][key] == "" for key in
                   ("max_h", "diameter", "eccentricity", "total_measure",
                    "residual_sup"))
        assert out["summary"]["n_converged"] == 2

    def test_failed_solve_marks_its_row(self, tmp_path, monkeypatch):
        real = harness.solve
        calls = []

        def flaky(params):
            calls.append(params)
            if len(calls) == 2:  # the solve of sample s001
                raise StagnationError("injected failure", trace=[])
            return real(params)

        monkeypatch.setattr(harness, "solve", flaky)
        cfg = ExperimentConfig(kind="diameter", p=0.5, q=2.0, n_samples=3,
                               seed=0, n_points=256, out_dir=str(tmp_path))
        out = run_diameter(cfg)
        rows = _rows(out["csv"])
        assert [row["id"] for row in rows] == ["s000", "s001", "s002"]
        assert [row["converged"] for row in rows] == ["true", "false", "true"]
        assert all(rows[1][key] == "" for key in
                   ("max_h", "diameter", "eccentricity", "total_measure",
                    "residual_sup"))
        assert out["summary"]["n_converged"] == 2

    def test_parameter_validation(self, tmp_path):
        with pytest.raises(ParameterRangeError):
            run_diameter(ExperimentConfig(kind="diameter", p=1.0, q=2.0,
                                          out_dir=str(tmp_path)))
        with pytest.raises(ParameterRangeError, match="q >= 2"):
            run_diameter(ExperimentConfig(kind="diameter", p=0.5, q=1.5,
                                          out_dir=str(tmp_path)))
        assert not list(tmp_path.iterdir())


class TestRunUniqueness:
    def test_small_sweep_agrees(self, tmp_path):
        cfg = ExperimentConfig(kind="uniqueness", p=0.5, q=2.0, eps=(0.05,),
                               starts=4, n_samples=2, n_points=256,
                               seed=0, out_dir=str(tmp_path))
        out = run_uniqueness(cfg)
        s = out["summary"]
        blk = s["results"][0]
        assert blk["all_agree"]
        assert blk["max_pairwise_sup"] <= 1e-6
        assert blk["min_h"] > 0.5
        assert s["empirical_uniqueness_radius"] == 0.05

    def test_requires_q_two(self, tmp_path):
        with pytest.raises(ParameterRangeError):
            run_uniqueness(ExperimentConfig(kind="uniqueness", p=0.5, q=3.0,
                                            out_dir=str(tmp_path)))

    @pytest.mark.parametrize("p", [0.0, 1.0, 1.5])
    def test_requires_p_in_open_unit_interval(self, tmp_path, p):
        with pytest.raises(ParameterRangeError, match="p in \\(0, 1\\)"):
            run_uniqueness(ExperimentConfig(kind="uniqueness", p=p, q=2.0,
                                            out_dir=str(tmp_path)))


class TestUniquenessFailures:
    @pytest.mark.parametrize("failure", ["raises", "unconverged"])
    def test_failed_start_is_counted(self, monkeypatch, failure):
        # the first of four starts fails; it must count as a failure, and
        # three agreeing limits must not count as agreement
        real, calls = harness.solve, []

        def first_fails(params, initial, config):
            calls.append(initial)
            if len(calls) == 1 and failure == "raises":
                raise StagnationError("forced", trace=[])
            rep = real(params, initial, config)
            rep.converged = rep.converged and len(calls) > 1
            return rep

        monkeypatch.setattr(harness, "solve", first_fails)
        cfg = ExperimentConfig(kind="uniqueness", p=0.5, q=2.0, starts=4, n_points=64)
        rec = harness._uniqueness_instance(cfg, 0.05, np.random.SeedSequence(0), Grid(64))
        assert len(calls) == 4
        assert rec["failures"] == 1 and rec["converged"] == 3 and rec["agree"] is False
        assert rec["max_pairwise_sup"] <= harness.AGREE_TOL


class TestRunMaxPrinciple:
    def test_small_sweep(self, tmp_path):
        cfg = ExperimentConfig(kind="maxprinciple", p=3.0, q=2.0, lam=2.0,
                               n_samples=3, seed=0, n_points=128,
                               out_dir=str(tmp_path))
        out = run_maxprinciple(cfg)
        s = out["summary"]
        assert s["violations"] == 0
        assert s["worst_margin"] >= -1e-6
        assert s["constant_data_equality_gap"] <= 1e-8

    def test_violation_is_dumped_and_raised(self, tmp_path, monkeypatch):
        # a negative slack turns every sample's true margin into a violation
        monkeypatch.setattr(harness, "MAXPRINCIPLE_SLACK", -1.0)
        cfg = ExperimentConfig(kind="maxprinciple", p=3.0, q=2.0, lam=2.0,
                               n_samples=3, seed=0, n_points=128,
                               out_dir=str(tmp_path))
        with pytest.raises(InvariantViolationError, match=r"max principle violated on"
                                                          r" sample 0: max h = "):
            run_maxprinciple(cfg)
        dump = json.loads((tmp_path / "maxprinciple_violation_000.json").read_text())
        assert len(dump["f"]) == 128 and dump["record"]["id"] == "s000"
        assert dump["record"]["margin"] >= -1e-6
        assert not (tmp_path / "maxprinciple_summary.json").exists()

    def test_requires_p_above_q(self, tmp_path):
        with pytest.raises(ParameterRangeError):
            run_maxprinciple(ExperimentConfig(kind="maxprinciple", p=0.5,
                                              q=2.0, out_dir=str(tmp_path)))


class TestConfigValidation:
    def test_sample_count(self):
        with pytest.raises(ValueError):
            ExperimentConfig(kind="sandwich", p=0.5, q=2.0, n_samples=0)

    def test_lambda_bound(self):
        with pytest.raises(ValueError):
            ExperimentConfig(kind="sandwich", p=0.5, q=2.0, lam=0.5)

    @pytest.mark.parametrize("starts", [0, 1])
    def test_start_count(self, starts):
        # fewer than two starts cannot disagree, so every instance would agree
        with pytest.raises(ValueError, match="starts must be >= 2"):
            ExperimentConfig(kind="uniqueness", p=0.5, q=2.0, starts=starts)

    def test_deviation_levels(self):
        with pytest.raises(ValueError, match="at least one deviation level"):
            ExperimentConfig(kind="uniqueness", p=0.5, q=2.0, eps=())
        assert ExperimentConfig(kind="uniqueness", p=0.5, q=2.0,
                                eps=[0.02, 0.05]).eps == (0.02, 0.05)
