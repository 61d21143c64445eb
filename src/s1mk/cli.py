"""Command line front end.

Exit codes: 0 success, 2 invalid parameters or violated invariants, 3 solver
failure (stagnation, singular linearization, non-convergence), 64 usage and
malformed input files.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

import numpy as np

from .body import (
    SupportFunction,
    area,
    centroid,
    diameter,
    perimeter,
    to_json,
)
from .errors import EllipseSolveError, SingularJacobianError, StagnationError
from .grid import Grid, PeriodicSamples, resample
from .harness import (
    ExperimentConfig,
    gen_f,
    run_diameter,
    run_maxprinciple,
    run_sandwich,
    run_uniqueness,
    run_variational,
    write_csv,
    write_json,
)
from .john import containment_report, ellipse_to_json, john
from .measures import (
    ProblemParams,
    dual_volume,
    lp_dual_density,
    lp_surface_density,
    surface_density,
)
from .solver import SolverConfig, report_to_dict, solve

USAGE_EXIT = 64


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    # argparse exits with 2 on bad usage, which collides with the invariant
    # violation code, so route usage failures to 64 instead.
    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(USAGE_EXIT, f"{self.prog}: error: {message}\n")


def _float_list(text: str) -> tuple:
    try:
        return tuple(float(x) for x in text.split(",") if x.strip())
    except ValueError:
        raise argparse.ArgumentTypeError(f"not a comma separated float list: {text!r}")


def _xy(text: str) -> tuple:
    parts = text.split(",")
    if len(parts) != 2:
        raise argparse.ArgumentTypeError(f"expected x,y coordinates, got {text!r}")
    try:
        return (float(parts[0]), float(parts[1]))
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected x,y coordinates, got {text!r}")


def _add_common(sp, grid=False, seed=False):
    if grid:
        sp.add_argument("--grid", type=int,
                        help="number of angular samples (even, >= 16)")
    if seed:
        sp.add_argument("--seed", type=int, help="master RNG seed")
    sp.add_argument("--config", help="JSON config file")
    sp.add_argument("--out", help="output directory")


def build_parser() -> tuple:
    """The parser and its subcommand parsers by name."""
    parser = _Parser(prog="s1mk",
                     description="planar shape-from-measure solver and "
                                 "convex geometry checks")
    sub = parser.add_subparsers(dest="command", required=True)

    sp = sub.add_parser("solve", help="solve for a body with the given measure density")
    sp.add_argument("--p", type=float)
    sp.add_argument("--q", type=float)
    sp.add_argument("--lambda", dest="lam", type=float,
                    help="two-sided data bound (f in [1/lambda, lambda])")
    sp.add_argument("--f-const", type=float, help="constant data value")
    sp.add_argument("--f-kind", choices=["trig", "bump", "piecewise"],
                    help="seeded data generator")
    sp.add_argument("--f-file", help="JSON file with sampled data values")
    sp.add_argument("--init",
                    help="JSON body file to start Newton from (no continuation)")
    sp.add_argument("--trace", action="store_true", help="keep iteration traces")
    _add_common(sp, grid=True, seed=True)
    # ``solver`` has no flag: only a config file sets it.  --f-kind and --seed
    # default in cmd_solve, which must see whether they were given.
    sp.set_defaults(func=cmd_solve, grid=256, out=".", solver={})

    sp = sub.add_parser("measures", help="densities and totals of a body")
    sp.add_argument("body", help="JSON body file")
    sp.add_argument("--p", type=float)
    sp.add_argument("--q", type=float)
    _add_common(sp)
    sp.set_defaults(func=cmd_measures, p=1.0, q=2.0, out=".")

    sp = sub.add_parser("john", help="largest inscribed ellipse of a body")
    sp.add_argument("body", help="JSON body file")
    sp.add_argument("--centroid", action="store_true",
                    help="pin the ellipse center at the centroid")
    sp.add_argument("--center", type=_xy, help="pin the ellipse center at x,y")
    _add_common(sp)
    sp.set_defaults(func=cmd_john, out=".")

    sp = sub.add_parser("verify-variational",
                        help="first-variation identity checks")
    _add_common(sp, grid=True)
    sp.set_defaults(func=cmd_verify_variational, grid=256)

    sp = sub.add_parser("sweep", help="seeded experiment batteries")
    sp.add_argument("sweep_kind",
                    choices=["sandwich", "diameter", "uniqueness", "maxprinciple"])
    sp.add_argument("--p", type=float)
    sp.add_argument("--q", type=float)
    sp.add_argument("--lambda", dest="lam", type=float)
    sp.add_argument("--samples", type=int)
    sp.add_argument("--f-kind", choices=["trig", "bump", "piecewise"])
    sp.add_argument("--eps", type=_float_list,
                    help="comma separated data deviation levels (uniqueness)")
    sp.add_argument("--starts", type=int,
                    help="Newton starts per uniqueness instance")
    _add_common(sp, grid=True, seed=True)
    sp.set_defaults(func=cmd_sweep)

    return parser, sub.choices


# parsed names that are not flags, so no config file sets them
_NOT_SETTABLE = {"command", "func", "config", "body", "sweep_kind"}

# sweep flags named differently from the ExperimentConfig field they set
_SWEEP_FIELDS = {"samples": "n_samples", "grid": "n_points", "out": "out_dir"}


def _load_json_file(path: str):
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except OSError as exc:
        raise UsageError(f"cannot read {path}: {exc}")
    except json.JSONDecodeError as exc:
        raise UsageError(f"malformed JSON in {path}: {exc}")


def _config_defaults(args, subparser) -> dict:
    """The config file's settings, keyed by the subcommand's own dests.

    argparse converts and checks only defaults that are strings, so a value
    for a typed flag is passed as the text it would have on the command line.
    """
    data = _load_json_file(args.config)
    if not isinstance(data, dict):
        raise UsageError(f"config {args.config} must hold a JSON object")
    if "lambda" in data:
        data["lam"] = data.pop("lambda")
    unknown = set(data) - (set(vars(args)) - _NOT_SETTABLE)
    if unknown:
        raise UsageError(f"unknown config keys for '{args.command}': {sorted(unknown)}")
    typed = {action.dest for action in subparser._actions if action.type is not None}
    for key, value in data.items():
        if key in typed and not isinstance(value, str):
            data[key] = ",".join(map(str, value)) if isinstance(value, list) else str(value)
    return data


def _solver_config(section) -> SolverConfig:
    if not isinstance(section, dict):
        raise UsageError("config key 'solver' must hold a JSON object")
    try:
        return SolverConfig(**section)
    except TypeError as exc:
        raise UsageError(f"solver config: {exc}")


def _require(args, *names) -> None:
    for name in names:
        if getattr(args, name, None) is None:
            flag = "--" + name.replace("_", "-")
            raise UsageError(f"{flag} is required for '{args.command}'")


def _load_samples(path: str, key: str) -> PeriodicSamples:
    """The samples under ``key`` of a JSON file, on the grid their count sets.

    ``n_points``, where the file gives it, must equal that count.
    """
    data = _load_json_file(path)
    vals = data.get(key) if isinstance(data, dict) else data
    if not isinstance(vals, list):
        raise UsageError(f"{path} must hold a list of samples under {key!r}")
    if not all(isinstance(v, (int, float)) and not isinstance(v, bool) for v in vals):
        raise UsageError(f"{path}: the samples under {key!r} must be numbers")
    try:
        values = np.array(vals, dtype=float)
        finite = bool(np.all(np.isfinite(values)))
    except OverflowError:  # an integer beyond the float range
        finite = False
    if not finite:
        raise UsageError(f"{path}: the samples under {key!r} hold a non-finite value")
    if len(vals) % 2 or len(vals) < 16:
        raise UsageError(f"{path}: {len(vals)} samples; the grid needs an even count >= 16")
    if isinstance(data, dict) and data.get("n_points", len(vals)) != len(vals):
        raise UsageError(f"{path}: n_points = {data['n_points']!r} but {len(vals)} samples")
    return PeriodicSamples(values, Grid(len(vals)))


def cmd_solve(args) -> int:
    _require(args, "p", "q")
    grid = Grid(args.grid)
    given = [flag for flag, value in (("--f-file", args.f_file), ("--f-const", args.f_const))
             if value is not None]
    if len(given) == 2:
        raise UsageError("--f-file and --f-const are mutually exclusive")
    if given and (args.f_kind is not None or args.seed is not None):
        raise UsageError(f"--f-kind and --seed set generated data; {given[0]} gives the data")

    if args.f_file is not None:
        f = resample(_load_samples(args.f_file, "f"), grid)
        lam = args.lam
    elif args.f_const is not None:
        f = PeriodicSamples(np.full(grid.n_points, args.f_const), grid)
        lam = args.lam
    else:
        lam = args.lam if args.lam is not None else 2.0
        f = gen_f(args.f_kind or "trig", lam, args.seed or 0, grid)

    params = ProblemParams(args.p, args.q, f, lam=lam)
    initial = None
    if args.init is not None:
        initial = SupportFunction(resample(_load_samples(args.init, "h"), grid))

    report = solve(params, initial=initial, config=_solver_config(args.solver))

    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    write_json(out / "solution.json", to_json(report.body))
    write_json(out / "solve_report.json",
               report_to_dict(report, include_trace=args.trace))
    print(f"converged={report.converged} iterations={report.iterations} "
          f"residual_sup={report.residual_sup:.3e} min_h={report.min_h:.6g}")
    return 0 if report.converged else 3


def cmd_measures(args) -> int:
    body = SupportFunction(_load_samples(args.body, "h"))
    p, q = args.p, args.q
    surf = surface_density(body)
    lp = lp_surface_density(body, p)
    dual = lp_dual_density(body, p, q)
    hp = body.derivative.values

    out = Path(args.out)
    write_csv(out / "density.csv",
              ["theta", "h", "h_prime", "curvature", "surface",
               "lp_surface", "lp_dual"],
              list(zip(body.grid.theta, body.values, hp, body.curvature.values,
                       surf.density.values, lp.density.values,
                       dual.density.values)))
    totals = {
        "p": p,
        "q": q,
        "area": area(body),
        "perimeter": perimeter(body),
        "diameter": diameter(body),
        "centroid": list(centroid(body)),
        "surface_total": surf.total,
        "lp_surface_total": lp.total,
        "lp_dual_total": dual.total,
        "dual_volume": dual_volume(body, q),
    }
    write_json(out / "totals.json", totals)
    print(f"area={totals['area']:.12g} perimeter={totals['perimeter']:.12g} "
          f"lp_dual_total={totals['lp_dual_total']:.12g}")
    return 0


def cmd_john(args) -> int:
    body = SupportFunction(_load_samples(args.body, "h"))
    if args.centroid and args.center is not None:
        raise UsageError("--centroid and --center are mutually exclusive")
    center = None
    if args.centroid:
        center = centroid(body)
    elif args.center is not None:
        center = args.center

    ell = john(body, center=center)
    cont = containment_report(body, ell)
    payload = ellipse_to_json(ell)
    payload["containment"] = cont

    out = Path(args.out)
    write_json(out / "ellipse.json", payload)
    print(f"r1={ell.r1:.12g} r2={ell.r2:.12g} angle={ell.angle:.12g} "
          f"inside_2E={cont['inside_2E']}")
    return 0


def cmd_verify_variational(args) -> int:
    report = run_variational(n_points=args.grid, out_dir=args.out)
    for check in report["checks"]:
        status = "ok" if check["ok"] else "FAIL"
        print(f"{status:4s} {check['check']:32s} rel_error={check['rel_error']:.3e}")
    print(f"max_rel_error={report['max_rel_error']:.3e}")
    return 0 if report["ok"] else 2


def cmd_sweep(args) -> int:
    _require(args, "p", "q")
    # only what the user set, so every other default lives in ExperimentConfig
    given = {_SWEEP_FIELDS.get(dest, dest): value for dest, value in vars(args).items()
             if value is not None and dest not in _NOT_SETTABLE}
    cfg = ExperimentConfig(kind=args.sweep_kind, **given)
    runner = {
        "sandwich": run_sandwich,
        "diameter": run_diameter,
        "uniqueness": run_uniqueness,
        "maxprinciple": run_maxprinciple,
    }[args.sweep_kind]
    result = runner(cfg)
    summary = result["summary"]
    print(f"wrote {result['summary_path']}")
    if args.sweep_kind == "sandwich":
        print(f"ratio_min={summary['ratio_min']:.6g} "
              f"ratio_max={summary['ratio_max']:.6g} "
              f"c2={summary['c2']:.6g} "
              f"upper_violations={summary['upper_violations']}")
    elif args.sweep_kind == "diameter":
        print(f"converged={summary['n_converged']}/{summary['n_samples']} "
              f"empirical_max_h={summary['empirical_max_h']}")
    elif args.sweep_kind == "uniqueness":
        print(f"empirical_uniqueness_radius={summary['empirical_uniqueness_radius']}")
    else:
        print(f"violations={summary['violations']} "
              f"worst_margin={summary['worst_margin']:.6g}")
    return 0


def main(argv=None) -> int:
    parser, commands = build_parser()
    args = parser.parse_args(argv)
    try:
        if args.config is not None:
            # config values become defaults, so an explicit flag always wins
            subparser = commands[args.command]
            subparser.set_defaults(**_config_defaults(args, subparser))
            args = parser.parse_args(argv)
        return args.func(args)
    except UsageError as exc:
        print(f"s1mk: error: {exc}", file=sys.stderr)
        return USAGE_EXIT
    except (StagnationError, SingularJacobianError, EllipseSolveError) as exc:
        print(f"s1mk: solver failure: {exc}", file=sys.stderr)
        return 3
    except ValueError as exc:
        print(f"s1mk: error: {exc}", file=sys.stderr)
        return 2
