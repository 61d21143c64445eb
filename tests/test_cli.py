import csv
import json
import subprocess
import sys

import numpy as np
import pytest

import s1mk
from s1mk import ExperimentConfig, Grid, disk, ellipse_body, from_json, run_diameter, to_json
from s1mk import cli
from s1mk.cli import main


def _write_body(path, body):
    path.write_text(json.dumps(to_json(body)))
    return str(path)


@pytest.fixture()
def disk_file(tmp_path):
    return _write_body(tmp_path / "disk.json", disk(Grid(256), 1.0))


class TestSolveCommand:
    def test_constant_data(self, tmp_path, capsys):
        code = main(["solve", "--p", "0.5", "--q", "2", "--f-const", "1",
                     "--out", str(tmp_path)])
        assert code == 0
        assert "converged=True" in capsys.readouterr().out
        sol = json.loads((tmp_path / "solution.json").read_text())
        body = from_json(sol)
        assert np.max(np.abs(body.values - 1.0)) <= 1e-10
        rep = json.loads((tmp_path / "solve_report.json").read_text())
        assert rep["converged"] is True
        assert "trace" not in rep

    def test_seeded_data_with_trace(self, tmp_path):
        code = main(["solve", "--p", "0.5", "--q", "3", "--f-kind", "bump",
                     "--seed", "4", "--trace", "--out", str(tmp_path)])
        assert code == 0
        rep = json.loads((tmp_path / "solve_report.json").read_text())
        assert rep["converged"] is True
        assert isinstance(rep["trace"], list)

    def test_report_carries_grid_levels(self, tmp_path):
        # trig data: the n = 128 answer of bump data lies about 1e-5 from
        # the n = 512 one, while trig data resolve at n = 128
        code = main(["solve", "--p", "0.5", "--q", "3", "--f-kind", "trig",
                     "--seed", "0", "--grid", "512", "--out", str(tmp_path)])
        assert code == 0
        rep = json.loads((tmp_path / "solve_report.json").read_text())
        assert [n for n, _ in rep["levels"]] == [128, 512]
        assert sum(steps for _, steps in rep["levels"]) == rep["iterations"]
        assert 0.0 < rep["tail_ratio"] < 1.0 and 0.0 < rep["level_gap"] < 1e-6

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("value", ["nan", "inf"])
    def test_non_finite_constant_data_is_invalid(self, tmp_path, capsys, value):
        code = main(["solve", "--p", "0.5", "--q", "2", "--f-const", value, "--grid", "64",
                     "--out", str(tmp_path)])
        assert code == 2
        assert f"data f has the non-finite sample {value} at theta = 0.000000" in \
            capsys.readouterr().err
        assert not (tmp_path / "solution.json").exists()

    @pytest.mark.parametrize("data", [[], ["--f-const", "1"]], ids=["generated", "constant"])
    def test_non_finite_lambda_is_invalid(self, tmp_path, capsys, data):
        code = main(["solve", "--p", "0.5", "--q", "2", "--lambda", "nan", *data,
                     "--grid", "64", "--out", str(tmp_path)])
        assert code == 2
        assert "finite and >= 1, got nan" in capsys.readouterr().err
        assert not (tmp_path / "solution.json").exists()

    def test_equal_exponents_rejected(self, tmp_path):
        code = main(["solve", "--p", "2", "--q", "2", "--f-const", "1",
                     "--out", str(tmp_path)])
        assert code == 2

    def test_stagnation_exit(self, tmp_path, capsys, stagnating_f):
        f = tmp_path / "f.json"
        f.write_text(json.dumps({"f": stagnating_f.values.tolist()}))
        code = main(["solve", "--p", "0.5", "--q", "2", "--grid", "512",
                     "--f-file", str(f), "--out", str(tmp_path)])
        assert code == 3
        err = capsys.readouterr().err
        assert err.startswith("s1mk: solver failure: damping underflow")
        assert "; full step: support value" in err and "6 negative, 8 no decrease" in err

    def test_missing_exponent(self, tmp_path):
        code = main(["solve", "--q", "2", "--out", str(tmp_path)])
        assert code == 64

    def test_f_file_and_const_conflict(self, tmp_path):
        f = tmp_path / "f.json"
        f.write_text(json.dumps({"f": [1.0] * 64}))
        code = main(["solve", "--p", "0.5", "--q", "2", "--f-file", str(f),
                     "--f-const", "1", "--out", str(tmp_path)])
        assert code == 64

    @pytest.mark.parametrize("source", ["--f-const", "--f-file"])
    @pytest.mark.parametrize("generator", [["--f-kind", "bump"], ["--seed", "5"]])
    def test_generator_flags_need_generated_data(self, tmp_path, capsys, source, generator):
        f = tmp_path / "f.json"
        f.write_text(json.dumps({"f": [1.0] * 64}))
        value = "1" if source == "--f-const" else str(f)
        code = main(["solve", "--p", "0.5", "--q", "2", "--grid", "64", source, value,
                     *generator, "--out", str(tmp_path)])
        assert code == 64 and f"{source} gives the data" in capsys.readouterr().err
        assert not (tmp_path / "solution.json").exists()

    def test_f_file_roundtrip(self, tmp_path):
        vals = (1.0 + 0.1 * np.cos(Grid(256).theta)).tolist()
        f = tmp_path / "f.json"
        f.write_text(json.dumps({"f": vals}))
        code = main(["solve", "--p", "0.5", "--q", "2", "--f-file", str(f),
                     "--out", str(tmp_path)])
        assert code == 0


class TestMeasuresCommand:
    def test_outputs(self, tmp_path, disk_file, capsys):
        code = main(["measures", disk_file, "--p", "0.5", "--q", "3",
                     "--out", str(tmp_path)])
        assert code == 0
        assert "area=" in capsys.readouterr().out
        totals = json.loads((tmp_path / "totals.json").read_text())
        assert totals["area"] == pytest.approx(np.pi, rel=1e-10)
        assert totals["perimeter"] == pytest.approx(2 * np.pi, rel=1e-10)
        assert totals["dual_volume"] == pytest.approx(np.pi, rel=1e-10)
        with open(tmp_path / "density.csv", newline="") as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["theta", "h", "h_prime", "curvature", "surface",
                           "lp_surface", "lp_dual"]
        assert len(rows) == 257
        assert float(rows[1][1]) == 1.0

    def test_negative_support_is_invalid_parameters(self, tmp_path):
        bad = tmp_path / "bad.json"
        h = np.ones(64)
        h[3] = -0.2
        bad.write_text(json.dumps({"n_points": 64, "h": h.tolist()}))
        code = main(["measures", str(bad), "--out", str(tmp_path)])
        assert code == 2

    def test_body_file_without_h(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({"radius": 1.0}))
        code = main(["measures", str(bad), "--out", str(tmp_path)])
        assert code == 64

    def test_unreadable_body_file(self, tmp_path, capsys):
        # a missing file and a directory: both are OSErrors on open
        for path in (tmp_path / "missing.json", tmp_path):
            assert main(["measures", str(path), "--out", str(tmp_path)]) == 64
            assert f"cannot read {path}" in capsys.readouterr().err

    def test_malformed_body_file(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        code = main(["measures", str(bad), "--out", str(tmp_path)])
        assert code == 64


_DISK64 = disk(Grid(64)).values.tolist()


class TestSampleFiles:
    @pytest.mark.parametrize("argv", [
        ["measures"], ["john"],
        ["solve", "--p", "0.5", "--q", "2", "--f-const", "1", "--init"]])
    def test_body_without_n_points(self, tmp_path, argv):
        # the body format the README documents: the sample count sets the grid
        body = tmp_path / "b.json"
        body.write_text(json.dumps({"h": _DISK64}))
        assert main([*argv, str(body), "--out", str(tmp_path)]) == 0

    @pytest.mark.parametrize("text", [
        json.dumps({"n_points": 64, "h": _DISK64[:60]}),        # count differs
        json.dumps({"n_points": 64, "h": 1.0}),                 # not a list
        json.dumps({"n_points": 64, "h": ["1"] * 64}),          # not numbers
        json.dumps({"n_points": 64, "h": [float("nan")] + _DISK64[1:]}),
        json.dumps({"n_points": 64, "h": [10**400] + _DISK64[1:]}),
        json.dumps({"n_points": 63, "h": _DISK64[:63]}),        # odd count
        json.dumps({"n_points": 8, "h": _DISK64[::8]}),         # under 16
    ], ids=["count", "scalar", "strings", "nan", "overflow", "odd", "short"])
    def test_malformed_body_samples(self, tmp_path, capsys, text):
        body = tmp_path / "b.json"
        body.write_text(text)
        assert main(["measures", str(body), "--out", str(tmp_path)]) == 64
        assert "s1mk: error:" in capsys.readouterr().err

    def test_malformed_data_samples(self, tmp_path):
        f = tmp_path / "f.json"
        f.write_text(json.dumps({"f": ["a", "b"]}))
        code = main(["solve", "--p", "0.5", "--q", "2", "--f-file", str(f),
                     "--out", str(tmp_path)])
        assert code == 64
        assert not (tmp_path / "solution.json").exists()


class TestJohnCommand:
    def test_free_and_centroid(self, tmp_path, capsys):
        body_file = _write_body(tmp_path / "e.json",
                                ellipse_body(Grid(1024), 2.0, 1.0))
        code = main(["john", body_file, "--out", str(tmp_path)])
        assert code == 0
        assert "inside_2E=True" in capsys.readouterr().out
        payload = json.loads((tmp_path / "ellipse.json").read_text())
        assert payload["r1"] == pytest.approx(2.0, abs=1e-3)
        assert payload["r2"] == pytest.approx(1.0, abs=1e-3)
        assert payload["containment"]["boundary_outside_E"] is True

        code = main(["john", body_file, "--centroid", "--out", str(tmp_path)])
        assert code == 0
        pinned = json.loads((tmp_path / "ellipse.json").read_text())
        assert pinned["center"] == pytest.approx([0.0, 0.0], abs=1e-8)

    def test_center_outside_hull_is_a_solver_failure(self, tmp_path, disk_file, capsys):
        code = main(["john", disk_file, "--center", "5,5", "--out", str(tmp_path)])
        assert code == 3
        assert ("solver failure: initial center not strictly interior"
                in capsys.readouterr().err)
        assert not (tmp_path / "ellipse.json").exists()

    def test_center_flags_conflict(self, tmp_path, disk_file):
        code = main(["john", disk_file, "--centroid", "--center", "0,0",
                     "--out", str(tmp_path)])
        assert code == 64


class TestVerifyVariational:
    def test_all_checks_pass(self, tmp_path, capsys):
        code = main(["verify-variational", "--grid", "256",
                     "--out", str(tmp_path)])
        assert code == 0
        out = capsys.readouterr().out
        assert "FAIL" not in out
        assert "max_rel_error=" in out

    def test_prints_each_check_verdict(self, monkeypatch, capsys):
        real = cli.run_variational

        def first_fails(**kw):
            report = real(**kw)
            report["checks"][0]["ok"] = report["ok"] = False
            return report

        monkeypatch.setattr(cli, "run_variational", first_fails)
        code = main(["verify-variational", "--grid", "64"])
        lines = capsys.readouterr().out.splitlines()
        assert code == 2
        assert lines[0].startswith("FAIL") and lines[1].startswith("ok")


class TestSweepCommand:
    def test_sandwich(self, tmp_path, capsys):
        code = main(["sweep", "sandwich", "--p", "0.5", "--q", "2",
                     "--samples", "2", "--grid", "64", "--out", str(tmp_path)])
        assert code == 0
        summary = json.loads((tmp_path / "sandwich_summary.json").read_text())
        out = capsys.readouterr().out
        assert f"ratio_min={summary['ratio_min']:.6g}" in out
        assert f"upper_violations={summary['upper_violations']}" in out
        assert (tmp_path / "sandwich.csv").exists()

    def test_maxprinciple(self, tmp_path, capsys):
        code = main(["sweep", "maxprinciple", "--p", "3", "--q", "2",
                     "--samples", "2", "--grid", "128",
                     "--out", str(tmp_path)])
        assert code == 0
        assert "violations=0" in capsys.readouterr().out

    def test_uniqueness(self, tmp_path, capsys):
        code = main(["sweep", "uniqueness", "--p", "0.5", "--q", "2",
                     "--samples", "1", "--starts", "3", "--grid", "128",
                     "--out", str(tmp_path)])
        assert code == 0
        assert "empirical_uniqueness_radius=0.05" in capsys.readouterr().out

    def test_non_finite_exponent_is_invalid(self, tmp_path, capsys):
        code = main(["sweep", "sandwich", "--p", "0.5", "--q", "nan",
                     "--samples", "2", "--grid", "64", "--out", str(tmp_path)])
        assert code == 2
        assert "parameter q must be finite, got nan" in capsys.readouterr().err
        assert not (tmp_path / "sandwich.csv").exists()

    def test_uniqueness_needs_two_starts(self, tmp_path, capsys):
        code = main(["sweep", "uniqueness", "--p", "0.5", "--q", "2",
                     "--samples", "2", "--starts", "0", "--grid", "64",
                     "--out", str(tmp_path)])
        assert code == 2
        assert "starts must be >= 2" in capsys.readouterr().err
        assert not (tmp_path / "uniqueness_summary.json").exists()

    @pytest.mark.parametrize("from_config", [False, True])
    def test_uniqueness_deviation_levels(self, tmp_path, from_config):
        argv = ["sweep", "uniqueness", "--p", "0.5", "--q", "2", "--samples", "1",
                "--starts", "2", "--grid", "128", "--out", str(tmp_path)]
        if from_config:
            cfg = tmp_path / "cfg.json"
            cfg.write_text(json.dumps({"eps": [0.02, 0.05]}))
            argv += ["--config", str(cfg)]
        else:
            argv += ["--eps", "0.02,0.05"]
        assert main(argv) == 0
        summary = json.loads((tmp_path / "uniqueness_summary.json").read_text())
        assert summary["eps_values"] == [0.02, 0.05]
        assert [blk["eps"] for blk in summary["results"]] == [0.02, 0.05]

    def test_defaults_are_the_experiment_config_defaults(self, tmp_path):
        code = main(["sweep", "diameter", "--p", "0.5", "--q", "2",
                     "--samples", "2", "--out", str(tmp_path / "cli")])
        assert code == 0
        lib = run_diameter(ExperimentConfig(kind="diameter", p=0.5, q=2, n_samples=2,
                                            out_dir=str(tmp_path / "lib")))
        with open(lib["csv"], "rb") as fh:
            assert (tmp_path / "cli" / "diameter.csv").read_bytes() == fh.read()


class TestConfigHandling:
    def test_cli_flag_beats_config(self, tmp_path, disk_file):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"p": 2.0}))
        code = main(["measures", disk_file, "--p", "1.0",
                     "--config", str(cfg), "--out", str(tmp_path)])
        assert code == 0
        totals = json.loads((tmp_path / "totals.json").read_text())
        assert totals["p"] == 1.0

    def test_config_fills_missing_flag(self, tmp_path, disk_file):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"p": 0.5, "q": 3.0}))
        code = main(["measures", disk_file, "--config", str(cfg),
                     "--out", str(tmp_path)])
        assert code == 0
        totals = json.loads((tmp_path / "totals.json").read_text())
        assert totals["p"] == 0.5 and totals["q"] == 3.0

    def test_zero_flags_beat_config(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"p": 0.5, "seed": 3}))
        flags = ["solve", "--p", "0", "--q", "2", "--seed", "0", "--grid", "64"]
        assert main(flags + ["--config", str(cfg), "--out", str(tmp_path / "a")]) == 0
        assert main(flags + ["--out", str(tmp_path / "b")]) == 0
        assert ((tmp_path / "a" / "solution.json").read_bytes()
                == (tmp_path / "b" / "solution.json").read_bytes())

    def test_non_string_values_are_converted(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        flags = ["solve", "--p", "0.5", "--q", "2", "--f-const", "1",
                 "--config", str(cfg), "--out", str(tmp_path)]
        cfg.write_text(json.dumps({"grid": 64.0}))
        with pytest.raises(SystemExit) as exc_info:
            main(flags)
        assert exc_info.value.code == 64
        assert "invalid int value: '64.0'" in capsys.readouterr().err
        cfg.write_text(json.dumps({"grid": 64, "lambda": 1}))
        assert main(flags) == 0
        assert len(json.loads((tmp_path / "solution.json").read_text())["h"]) == 64

    def test_key_foreign_to_subcommand(self, tmp_path):
        # solve has no --samples, and only solve reads a solver section
        for command, data in ((["solve", "--p", "0.5", "--q", "2", "--f-const", "1"],
                               {"samples": 7}),
                              (["verify-variational"], {"solver": {"max_newton": 5}})):
            cfg = tmp_path / "cfg.json"
            cfg.write_text(json.dumps(data))
            code = main(command + ["--config", str(cfg), "--out", str(tmp_path)])
            assert code == 64, data

    def test_unknown_config_key(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"tolerance": 1e-8}))
        code = main(["solve", "--p", "0.5", "--q", "2", "--f-const", "1",
                     "--config", str(cfg), "--out", str(tmp_path)])
        assert code == 64

    def test_unknown_solver_key(self, tmp_path):
        # retired SolverConfig fields are unknown keys now
        for key, value in (("positivity_floor", 1e-8), ("continuation_steps", 10),
                           ("damping_min", 1e-4)):
            cfg = tmp_path / "cfg.json"
            cfg.write_text(json.dumps({"solver": {key: value}}))
            code = main(["solve", "--p", "0.5", "--q", "2", "--f-const", "1",
                         "--config", str(cfg), "--out", str(tmp_path)])
            assert code == 64, key

    @pytest.mark.parametrize("data, message", [
        ([1.0, 2.0], "must hold a JSON object"),
        ({"solver": [1e-8]}, "'solver' must hold a JSON object"),
    ])
    def test_config_shape(self, tmp_path, capsys, data, message):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(data))
        code = main(["solve", "--p", "0.5", "--q", "2", "--f-const", "1", "--grid", "64",
                     "--config", str(cfg), "--out", str(tmp_path)])
        assert code == 64 and message in capsys.readouterr().err

    @pytest.mark.parametrize("argv", [
        ["john", "body.json", "--center", "1"],
        ["john", "body.json", "--center", "a,b"],
        ["sweep", "uniqueness", "--p", "0.5", "--q", "2", "--eps", "0.1,x"],
    ])
    def test_bad_flag_values(self, argv):
        with pytest.raises(SystemExit) as exc_info:
            main(argv)
        assert exc_info.value.code == 64

    def test_malformed_config(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text("{,}")
        code = main(["solve", "--p", "0.5", "--q", "2",
                     "--config", str(cfg), "--out", str(tmp_path)])
        assert code == 64


class TestPackage:
    def test_exports_resolve_once(self):
        names = s1mk.__all__
        assert len(names) == len(set(names))
        assert [name for name in names if not hasattr(s1mk, name)] == []
        namespace = {}
        exec("from s1mk import *", namespace)
        assert set(names) <= set(namespace)


class TestUsage:
    @pytest.mark.parametrize("argv", [["measures", "body.json", "--trace"],
                                      ["john", "body.json", "--seed", "1"]])
    def test_flags_only_where_read(self, argv):
        with pytest.raises(SystemExit) as exc_info:
            main(argv)
        assert exc_info.value.code == 64

    def test_unknown_subcommand(self):
        with pytest.raises(SystemExit) as exc_info:
            main(["frobnicate"])
        assert exc_info.value.code == 64

    def test_module_entry_point(self):
        proc = subprocess.run([sys.executable, "-m", "s1mk", "--help"],
                              capture_output=True, text=True)
        assert proc.returncode == 0
        assert "solve" in proc.stdout
