"""Tests of the benchmark itself.  Run from the repository root:

    python3 -m pytest -q bench/test_bench.py
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

import run  # noqa: E402
from workloads import Op, VerificationError  # noqa: E402

COUNT_UNITS = ("count", "bytes")
S = run.import_s1mk()


def bench(*args, cwd=ROOT):
    return subprocess.run([sys.executable, "bench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=170, check=False)


def last_json(proc):
    return json.loads(proc.stdout.strip().splitlines()[-1])


def test_traced_counters_repeat_exactly():
    counters = []
    for _ in range(2):
        proc = bench("--workload", "diameter-sweep", "--seed", "3", "--seconds", "1",
                     "--trace", "1")
        assert proc.returncode == 0, proc.stderr
        out = last_json(proc)
        assert out["correct"] and out["failed"] == 0
        counters.append({name: m["value"] for name, m in out["metrics"].items()
                         if m["unit"] in COUNT_UNITS})
    assert counters[0] == counters[1]
    for name in ("solver.newton_iters", "grid.diff_calls", "john.fit_calls",
                 "harness.samples", "harness.write_bytes"):
        assert counters[0][name] > 0, name


def test_reference_kernels_never_import_s1mk():
    code = ("import sys; sys.path.insert(0, sys.argv[1]); import refkernel; "
            "[kernel() for kernel in refkernel.KERNELS.values()]; "
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 's1mk'))")
    proc = subprocess.run([sys.executable, "-c", code, str(BENCH)], capture_output=True,
                          text=True, timeout=60, check=True)
    assert proc.stdout.strip() == "[]"


def _stagnate():
    raise S.StagnationError("forced")


def _bug():
    return {}["missing"]


def _reject(_out):
    raise VerificationError("forced")


def test_forced_failures_are_counted_by_class():
    ops = [
        Op("raises a typed error", _stagnate, lambda out: None),
        Op("fails its check", lambda: 1, _reject),
        Op("raises a bug", _bug, lambda out: None),
        Op("succeeds", lambda: 2, lambda out: None),
    ]
    result = run.Result()
    outputs, raw, norm, slices = run.run_ops(ops, lambda: 0.01, 0.01, result)
    assert len(slices) >= 2 and norm > 0.0
    verified = run.check_ops(ops, outputs, result, run.s1mk_error_types(S),
                             VerificationError)
    assert verified == 1
    assert (result.attempted, result.failed, result.unexpected) == (4, 3, 1)
    assert result.by_class == {"StagnationError": 1, "VerificationError": 1, "KeyError": 1}


def test_without_the_package_it_exits_nonzero_and_prints_no_result(tmp_path):
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = bench("--workload", "measures", "--seed", "1", "--seconds", "1", "--trace", "0",
                 cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
