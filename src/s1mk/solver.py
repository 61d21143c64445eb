"""Damped Newton with data continuation for the prescribed-measure equation.

The residual of a candidate support function h against data f is its lp_dual
density minus the data,

    F(h) = h^(1-p) (h^2 + h'^2)^((q-2)/2) (h'' + h) - f,

discretized spectrally on the grid of f and evaluated by the density kernel of
``measures``.  The exact Frechet derivative is assembled as a dense matrix from
the differentiation matrices and solved by LU with a LAPACK condition estimate.
Each Newton stage backtracks on the Euclidean residual norm, rejecting any
step that leaves the cone of nonnegative convex support functions.

``solve`` first runs Newton on f from mean(f)^(1/(q-p)), which solves the
constant data mean(f).  Only if that fails does it continue along the data
(1 - t) mean(f) + t f with step-length control: a solved stage doubles the
step in t, a failed one is retried with half of it (Allgower and Georg,
Introduction to Numerical Continuation Methods, SIAM 2003).

On a grid of n >= 2 COARSE_N points without an explicit start, ``solve``
first sequences grids (nested iteration; Knoll and Keyes, J. Comput. Phys.
193, 2004): it halves n while the half is even and at least COARSE_N,
restricts f to each level by Fourier truncation, solves the coarsest level
by the policy above, and at each finer level prolongs the body by
trigonometric interpolation and polishes it with direct Newton to the same
tolerance, measured on that level's grid.  The smooth solutions need far
fewer modes than a large grid carries, so the fine levels take 0-2 steps
instead of dense LUs from a constant start.  If any level raises or ends
unconverged, the fine grid is solved by the policy above from the constant
start; the abandoned steps stay in the trace.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
from scipy.linalg import get_lapack_funcs, lu_factor, lu_solve

from .body import DEFAULT_TOL_CONVEX_SCALE, SupportFunction
from .errors import ParameterRangeError, SingularJacobianError, StagnationError
from .grid import Grid, PeriodicSamples, diff, diff_matrix, resample, restrict
from .measures import ProblemParams, _lp_factor, lp_dual_kernel, singular_floor

RCOND_LIMIT = 1e-14
# Smallest continuation step in t.  The n = 256 robustness matrix (lambda up
# to 20) never needs below 1/8, and the old fixed ramp stepped 1/10.
MIN_STEP = 1.0 / 32
# Coarsest grid of the sequenced solve.  n = 256 is the grid of every sweep,
# so those solves are not sequenced.
COARSE_N = 256


@dataclass(frozen=True)
class SolverConfig:
    newton_tol: float = 1e-10
    max_newton: int = 50
    damping_min: float = 1e-4

    def __post_init__(self):
        if not (0.0 < self.damping_min <= 1.0):
            raise ValueError("damping_min must lie in (0, 1]")


@dataclass
class SolveReport:
    body: SupportFunction
    residual_sup: float
    iterations: int
    min_h: float
    min_curvature: float
    converged: bool
    stage_iterations: list = field(default_factory=list)
    trace: list = field(default_factory=list)
    # (n, Newton steps) per grid level, coarse to fine, then the fallback's
    levels: list = field(default_factory=list)
    # max_{k > n/4} |h_k| / |h_0|: near roundoff when the grid resolves h
    tail_ratio: float = float("nan")
    # max |h - prolonged coarser solution| / max h; None unless sequenced
    level_gap: float | None = None


@dataclass(frozen=True)
class LinearizedSpectrum:
    p: float
    shifted_eigenvalues: np.ndarray
    invertible: bool


def residual(body: SupportFunction, params: ProblemParams) -> PeriodicSamples:
    """Equation residual F(h): the lp_dual density of the body minus the data."""
    if body.grid.n_points != params.f.grid.n_points:
        raise ValueError("body and data must share a grid")
    vals = lp_dual_kernel(body.values, body.derivative.values, body.curvature.values,
                          params.p, params.q)
    return PeriodicSamples(vals - params.f.values, body.grid)


def _jacobian_matrix(h: np.ndarray, hp: np.ndarray, curv: np.ndarray,
                     p: float, q: float, grid: Grid) -> np.ndarray:
    n = h.shape[0]
    d1 = diff_matrix(grid, 1)
    d2 = diff_matrix(grid, 2)
    idx = np.arange(n)
    lp, active = _lp_factor(h, p)
    # lp_prime is the coefficient (1-p) h^(-p) of the zeroth-order term; it
    # vanishes where the factor does not vary with h.
    lp_prime = np.where(active, (1.0 - p) * np.where(active, h, 1.0) ** (-p), 0.0)

    if q == 2.0:
        mat = lp[:, None] * d2
        mat[idx, idx] += lp_prime * curv + lp
        return mat

    w = h * h + hp * hp
    wfac = w ** (0.5 * (q - 2.0))
    wfac4 = w ** (0.5 * (q - 4.0))
    t2 = lp * (q - 2.0) * wfac4 * curv
    t3 = lp * wfac
    mat = t3[:, None] * d2 + (t2 * hp)[:, None] * d1
    mat[idx, idx] += lp_prime * wfac * curv + t2 * h + t3
    return mat


def jacobian(body: SupportFunction, params: ProblemParams) -> np.ndarray:
    """Dense Frechet derivative DF(h) on grid values."""
    return _jacobian_matrix(body.values, body.derivative.values, body.curvature.values,
                            params.p, params.q, body.grid)


def linearized_spectrum(p: float, k_max: int = 16) -> LinearizedSpectrum:
    """Spectrum of the linearization at the unit disk for q = 2.

    Mode k of v maps to (2 - p - k^2) v; the shifted eigenvalues k^2 - (2 - p)
    vanish exactly when 2 - p hits a squared integer, which is the only
    obstruction to invertibility.
    """
    if k_max < 2:
        raise ValueError("k_max must be >= 2")
    k = np.arange(k_max + 1)
    shifted = k.astype(float) ** 2 - (2.0 - p)
    return LinearizedSpectrum(p, shifted, bool(np.min(np.abs(shifted)) > 1e-12))


def _newton_stage(h, hp, curv, f, p, q, cfg: SolverConfig, grid: Grid,
                  trace: list, t_label: float):
    """Damped Newton on fixed data.

    (h, hp, curv) are the iterate with its first derivative and curvature
    density; returns the final such triple and its residual sup.  Each
    accepted step appends (t_label, iteration, residual sup, damping) to trace.
    """
    gecon = get_lapack_funcs("gecon", (np.empty((2, 2)),))
    r = lp_dual_kernel(h, hp, curv, p, q) - f
    res_sup = float(np.max(np.abs(r)))
    res_l2 = float(np.linalg.norm(r))
    it = 0
    while res_sup > cfg.newton_tol and it < cfg.max_newton:
        jac = _jacobian_matrix(h, hp, curv, p, q, grid)
        anorm = float(np.linalg.norm(jac, 1))
        lu, piv = lu_factor(jac)
        rcond, info = gecon(lu, anorm, norm="1")
        if info != 0 or rcond < RCOND_LIMIT:
            raise SingularJacobianError(
                f"linearization condition estimate {1.0 / max(rcond, 1e-300):.2e}"
            )
        step = lu_solve((lu, piv), -r)

        damping = 1.0
        while True:
            cand = h + damping * step
            ok = float(cand.min()) >= 0.0
            if ok and p >= 1.0:
                ok = float(cand.min()) > singular_floor(cand)
            if ok:
                s = PeriodicSamples(cand, grid)
                cand_curv = diff(s, 2).values + cand
                tol_c = DEFAULT_TOL_CONVEX_SCALE * max(float(cand.max()), 1e-300)
                ok = float(cand_curv.min()) >= -tol_c
            if ok:
                cand_hp = diff(s, 1).values
                r_cand = lp_dual_kernel(cand, cand_hp, cand_curv, p, q) - f
                cand_l2 = float(np.linalg.norm(r_cand))
                ok = np.isfinite(cand_l2) and cand_l2 < res_l2
            if ok:
                break
            damping *= 0.5
            if damping < cfg.damping_min:
                raise StagnationError(
                    f"damping underflow at stage t = {t_label:.3f},"
                    f" residual {res_sup:.3e}",
                    trace=trace,
                )
        h, hp, curv, r = cand, cand_hp, cand_curv, r_cand
        res_l2 = cand_l2
        res_sup = float(np.max(np.abs(r)))
        it += 1
        trace.append((t_label, it, res_sup, damping))
    return h, hp, curv, res_sup


def _initial_values(params: ProblemParams, initial, grid: Grid) -> np.ndarray:
    if initial is not None:
        if initial.grid.n_points != grid.n_points:
            raise ValueError("initial body must live on the data grid")
        return initial.values.copy()
    mean_f = float(np.mean(params.f.values))
    return np.full(grid.n_points, mean_f ** (1.0 / (params.q - params.p)))


def _continuation(params: ProblemParams, initial, cfg: SolverConfig,
                  step: float, trace: list | None = None) -> SolveReport:
    """Damped Newton on the data (1 - t) mean(f) + t f, t rising from 0 to 1.

    A solved stage doubles ``step``; a failed one is retried from the last
    solved t with half of it, until that falls below MIN_STEP.  Only the
    constant start solves t = 0, so an explicit ``initial`` gets no retry.
    Steps are appended to ``trace``, which may hold earlier attempts.
    """
    if params.q == params.p:
        raise ParameterRangeError("q = p is outside the solvable family")
    grid = params.f.grid
    f = params.f.values
    mean_f = float(np.mean(f))
    h = _initial_values(params, initial, grid)
    s = PeriodicSamples(h, grid)
    state = (h, diff(s, 1).values, diff(s, 2).values + h)
    trace = [] if trace is None else trace
    stage_iterations: list = []
    t0 = 0.0
    while t0 < 1.0:
        t = min(1.0, t0 + step)
        before = len(trace)
        err = None
        try:
            *reached, res_sup = _newton_stage(*state, (1.0 - t) * mean_f + t * f,
                                              params.p, params.q, cfg, grid, trace, t)
        except (StagnationError, SingularJacobianError) as exc:
            if initial is not None:
                raise
            # the traceback would keep the failed stage's Jacobian and LU alive
            err = exc.with_traceback(None)
        stage_iterations.append(len(trace) - before)
        if err is None and (res_sup <= cfg.newton_tol or initial is not None):
            t0, state = t, reached
            step *= 2.0
            continue
        if err is None:
            err = StagnationError(
                f"no convergence in {cfg.max_newton} Newton steps at stage"
                f" t = {t:.3f}, residual {res_sup:.3e}",
                trace=trace,
            )
        step = 0.5 * (t - t0)
        if step < MIN_STEP:
            raise err
    h, hp, curv = state
    return SolveReport(
        body=SupportFunction(PeriodicSamples(h, grid), validate=False),
        residual_sup=res_sup,
        iterations=len(trace),
        min_h=float(h.min()),
        min_curvature=float(curv.min()),
        converged=res_sup <= cfg.newton_tol,
        stage_iterations=stage_iterations,
        trace=trace,
    )


def _level_grids(grid: Grid) -> list:
    """Grids of the sequenced solve, coarse to fine; just ``grid`` if none."""
    grids = [grid]
    while grids[0].n_points >= 2 * COARSE_N and grids[0].n_points % 4 == 0:
        grids.insert(0, Grid(grids[0].n_points // 2))
    return grids


def _sequenced(params: ProblemParams, grids: list, cfg: SolverConfig,
               trace: list, stage_iterations: list, levels: list):
    """Coarse solve, then a direct Newton polish per finer grid.

    Returns the fine-grid report, or None once a level raises or ends
    unconverged; the steps taken stay in ``trace``, ``stage_iterations`` and
    ``levels`` either way.
    """
    rep = start = None
    for grid in grids:
        level = params
        if grid is not params.f.grid:
            f = restrict(params.f, grid)
            if float(f.values.min()) <= 0.0:
                return None
            level = ProblemParams(params.p, params.q, f)
        if rep is not None:
            start = SupportFunction(resample(rep.body.h, grid), validate=False)
        before = len(trace)
        try:
            rep = _continuation(level, start, cfg, 1.0, trace)
        except (StagnationError, SingularJacobianError):
            rep = None
        levels.append((grid.n_points, len(trace) - before))
        stage_iterations.extend([len(trace) - before] if rep is None
                                else rep.stage_iterations)
        if rep is None or not rep.converged:
            return None
    h = rep.body.values
    rep.level_gap = float(np.max(np.abs(h - start.values)) / np.max(h))
    return rep


def _tail_ratio(h: np.ndarray) -> float:
    coef = np.abs(np.fft.rfft(h))
    return float(coef[h.shape[0] // 4 + 1:].max() / coef[0])


def solve(params: ProblemParams, initial: SupportFunction | None = None,
          config: SolverConfig | None = None) -> SolveReport:
    """Damped Newton on f, with continuation from constant data if that fails.

    Without ``initial``, Newton starts from mean(f)^(1/(q-p)), the solution
    for the constant data mean(f).  If it raises or ends unconverged, the
    data are ramped from mean(f) to f in stages whose step is halved on
    failure; the trace, iterations and stage_iterations keep every attempt.
    On a grid of at least 2 COARSE_N points this policy first solves the
    coarsest level of a grid sequence, which the finer levels polish; only
    if a level fails does it run on the full grid.  An explicit ``initial``
    means direct Newton from that body on the full grid with no fallback:
    errors propagate and an unconverged run is returned with
    ``converged=False``.

    The report's ``levels`` lists (n, Newton steps) per grid level run,
    ``tail_ratio`` is max_{k > n/4} |h_k| / |h_0| of the answer's Fourier
    coefficients, a resolution test as in Chebfun's chopping rule, and
    ``level_gap`` is max |h - prolonged coarser level| / max h when the
    answer came from the sequence.
    """
    cfg = config or SolverConfig()
    trace: list = []
    stage_iterations: list = []
    levels: list = []
    grids = _level_grids(params.f.grid)
    rep = None
    if initial is None and len(grids) > 1:
        rep = _sequenced(params, grids, cfg, trace, stage_iterations, levels)
    if rep is None:
        before = len(trace)
        rep = _continuation(params, initial, cfg, 1.0, trace)
        stage_iterations.extend(rep.stage_iterations)
        levels.append((params.f.grid.n_points, len(trace) - before))
    rep.stage_iterations = stage_iterations
    rep.levels = levels
    rep.tail_ratio = _tail_ratio(rep.body.values)
    return rep


def report_to_dict(report: SolveReport, include_trace: bool = False) -> dict:
    out = {
        "converged": report.converged,
        "residual_sup": report.residual_sup,
        "iterations": report.iterations,
        "stage_iterations": list(report.stage_iterations),
        "min_h": report.min_h,
        "min_curvature": report.min_curvature,
        "n_points": report.body.grid.n_points,
        "levels": [list(level) for level in report.levels],
        "tail_ratio": report.tail_ratio,
        "level_gap": report.level_gap,
        "h": report.body.values.tolist(),
    }
    if include_trace:
        out["trace"] = [list(entry) for entry in report.trace]
    return out
