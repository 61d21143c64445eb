"""Benchmark of the s1mk package: one workload per process, closed loop.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the root of a checkout; it imports s1mk from ``src/`` there and
exits with status 2 when that is missing.  The last line of standard output
is one JSON object with the keys correct, attempted, failed and metrics.
``--trace 0`` reports the end-to-end metrics, ``--trace 1`` the per-layer
metrics of a separate traced run.  See bench/README.md.
"""

from __future__ import annotations

import os

# One BLAS thread, set before numpy loads: two threads on two cores stalled
# whole solves.  S1MK_THREADS would let the sweeps start a thread pool.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"
os.environ.pop("S1MK_THREADS", None)

import argparse  # noqa: E402
import importlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from collections import Counter  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
OUT_ROOT = ROOT / ".bench_out"
SETUP_PROCESSES = 3      # setup_s is the median over this many fresh processes
MIN_ROUNDS = 3
SLICE_EVERY_S = 0.25
PROBE_TIMEOUT_S = 60


class Result:
    """Outcome counts of a set of operations."""

    def __init__(self):
        self.attempted = 0
        self.verified = 0
        self.by_class = Counter()
        self.unexpected = 0      # raised errors that are not typed s1mk errors

    @property
    def failed(self):
        return self.attempted - self.verified


def fail(message):
    print(f"bench: {message}", file=sys.stderr)
    sys.exit(2)


def import_s1mk():
    """Import s1mk from this checkout's src/, never from anywhere else."""
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    S = importlib.import_module("s1mk")
    if Path(S.__file__).resolve().parent != (src / "s1mk").resolve():
        fail(f"imported s1mk from {S.__file__}, not from {src}")
    return S


def set_up(workload_name, seed, out_dir):
    """Import s1mk and warm the workload; returns (s1mk, workload, seconds)."""
    from workloads import WORKLOADS

    t0 = time.perf_counter()
    S = import_s1mk()
    workload = WORKLOADS[workload_name](S, seed, out_dir)
    workload.warm_up()
    return S, workload, time.perf_counter() - t0


def probe_setup(args):
    """Set-up times of fresh processes, each importing s1mk anew."""
    times = []
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
           "--seed", str(args.seed), "--setup-only"]
    for _ in range(SETUP_PROCESSES - 1):
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=PROBE_TIMEOUT_S,
                              check=False)
        if proc.returncode != 0:
            sys.stderr.write(proc.stderr)
            fail(f"set-up probe failed with status {proc.returncode}")
        times.append(json.loads(proc.stdout.strip().splitlines()[-1])["setup_s"])
    return times


def run_ops(ops, kernel, nominal, result):
    """Run ops in order, with reference-kernel slices before the first op, after
    the last, and after any op that ends SLICE_EVERY_S or more past the last
    slice.  Returns (outputs, raw seconds of the ops, the same rescaled to
    nominal machine speed by the median slice, slice seconds).
    ``check_ops`` verifies the outputs afterwards, outside the timed span."""
    outputs, raw = [], 0.0
    slices = [kernel()]
    since_slice = 0.0
    for i, op in enumerate(ops):
        result.attempted += 1
        t0 = time.perf_counter()
        try:
            out = op.call()
        except Exception as exc:  # a failed operation is data, not a crash
            # the traceback would keep the failing solve's matrices alive
            out = exc.with_traceback(None)
        dt = time.perf_counter() - t0
        outputs.append(out)
        raw += dt
        since_slice += dt
        if since_slice >= SLICE_EVERY_S or i == len(ops) - 1:
            slices.append(kernel())
            since_slice = 0.0
    return outputs, raw, raw * nominal / statistics.median(slices), slices


def check_ops(ops, outputs, result, s1mk_errors, verification_error):
    """Verify outputs; returns the number of ops verified and records every
    failure in ``result``."""
    verified = 0
    for op, out in zip(ops, outputs):
        if not isinstance(out, Exception):
            try:
                op.check(out)
                result.verified += 1
                verified += 1
                continue
            except verification_error as exc:
                out = exc
        result.by_class[type(out).__name__] += 1
        if not isinstance(out, (verification_error, *s1mk_errors)):
            result.unexpected += 1
        print(f"# failed {op.name}: {type(out).__name__}: {str(out)[:120]}")
    return verified


def quartile_spread(values):
    if len(values) < 2:
        return 0.0
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / q2


def s1mk_error_types(S):
    """The typed errors s1mk raises; any other exception is a defect."""
    return tuple(v for v in vars(S.errors).values()
                 if isinstance(v, type) and issubclass(v, Exception)
                 and v.__module__ == S.errors.__name__)


def measure(args, S, workload):
    """Timed rounds until --seconds pass (at least MIN_ROUNDS)."""
    # imported only now: refkernel loads scipy, whose import belongs to setup_s
    import refkernel
    from workloads import VerificationError

    kernel, nominal = refkernel.KERNELS[workload.kernel], refkernel.NOMINAL_S[workload.kernel]
    errors = s1mk_error_types(S)
    result = Result()
    rates, raw_rates, kernel_times = [], [], []
    start = time.perf_counter()
    r = 0
    while r < MIN_ROUNDS or time.perf_counter() - start < args.seconds:
        ops = workload.ops(r)
        outputs, raw, norm, slices = run_ops(ops, kernel, nominal, result)
        verified = check_ops(ops, outputs, result, errors, VerificationError)
        rates.append(verified / norm)
        raw_rates.append(verified / raw)
        kernel_times.extend(slices)
        r += 1
    return result, rates, raw_rates, kernel_times


def measure_traced(args, S, workload):
    """One input cycle, each round run untraced and then traced on the same
    inputs; per-layer metrics come from the traced rounds only."""
    import refkernel
    from spans import Tracer, layer_metrics
    from workloads import VerificationError

    kernel, nominal = refkernel.KERNELS[workload.kernel], refkernel.NOMINAL_S[workload.kernel]
    errors = s1mk_error_types(S)
    result = Result()
    tracer = Tracer()
    plain_s = traced_s = 0.0
    for r in range(workload.cycle):
        for traced in (False, True):
            ops = workload.ops(r)
            if traced:
                tracer.install()
            try:
                outputs, raw, norm, _ = run_ops(ops, kernel, nominal, result)
            finally:
                tracer.uninstall()
            check_ops(ops, outputs, result, errors, VerificationError)
            if traced:
                traced_s += norm
            else:
                plain_s += norm
    if hasattr(workload, "probe"):
        tracer.install()
        try:
            print(f"# known-defect probe (traced): {workload.probe()}")
        finally:
            tracer.uninstall()
    metrics = layer_metrics(tracer)
    metrics["trace.overhead_pct"] = (100.0 * (traced_s / plain_s - 1.0), "%")
    dump = OUT_ROOT / f"trace-{args.workload}-seed{args.seed}.json"
    tracer.dump(dump)
    print(f"# spans: {len(tracer.spans)} written to {dump.relative_to(ROOT)}")
    print(f"# trace overhead: {metrics['trace.overhead_pct'][0]:+.2f}% of rescaled time,"
          f" {workload.cycle} traced rounds against the same rounds untraced")
    return result, metrics


def machine_facts():
    import scipy

    return (f"nproc={os.cpu_count()} blas_threads={os.environ['OPENBLAS_NUM_THREADS']}"
            f" python={platform.python_version()} numpy={np.__version__}"
            f" scipy={scipy.__version__}")


def emit(result, metrics):
    for name, (value, unit) in metrics.items():
        print(f"{name} {value} {unit}")
    print(json.dumps({
        "correct": result.unexpected == 0 and result.by_class["VerificationError"] == 0,
        "attempted": result.attempted,
        "failed": result.failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))


def main(argv=None):
    from workloads import WORKLOADS

    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=15.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be non-negative")

    if not (ROOT / "src" / "s1mk" / "__init__.py").is_file():
        fail(f"no s1mk package under {ROOT / 'src'}; run from a full checkout")
    OUT_ROOT.mkdir(exist_ok=True)
    out_dir = OUT_ROOT / f"run-{os.getpid()}"
    try:
        if args.setup_only:
            print(json.dumps({"setup_s": set_up(args.workload, args.seed, out_dir)[2]}))
            return
        setup_times = [] if args.trace else probe_setup(args)
        S, workload, own_setup = set_up(args.workload, args.seed, out_dir)
        setup_times.append(own_setup)
        print(f"# machine: {machine_facts()}")
        print(f"# workload {args.workload} seed {args.seed} kernel {workload.kernel}")
        if args.trace:
            result, metrics = measure_traced(args, S, workload)
        else:
            result, rates, raw_rates, kernel_times = measure(args, S, workload)
            rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
            if hasattr(workload, "probe"):
                print(f"# known-defect probe: {workload.probe()}")
            print(f"# rounds {len(rates)}; rescaled rate per round: "
                  + " ".join(f"{x:.4g}" for x in rates))
            print("# raw rate per round: " + " ".join(f"{x:.4g}" for x in raw_rates))
            print(f"# raw ops/s median {statistics.median(raw_rates):.4g};"
                  f" reference kernel median {1e3 * statistics.median(kernel_times):.2f} ms,"
                  f" quartile spread {quartile_spread(kernel_times):.2%}"
                  f" over {len(kernel_times)} slices")
            print("# setup_s samples: " + " ".join(f"{x:.4f}" for x in setup_times))
            metrics = {
                "ops_per_ref_s": (statistics.median(rates), "1/s"),
                "setup_s": (statistics.median(setup_times), "s"),
                "peak_rss_mb": (rss_mb, "MB"),
            }
        print(f"# attempted {result.attempted} failed {result.failed}"
              f" fail_frac {result.failed / result.attempted:.4f}"
              f" by class {dict(result.by_class)}")
        emit(result, metrics)
    finally:
        shutil.rmtree(out_dir, ignore_errors=True)


if __name__ == "__main__":
    sys.path.insert(0, str(BENCH_DIR))
    main()
