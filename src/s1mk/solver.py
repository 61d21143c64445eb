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
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
from scipy.linalg import get_lapack_funcs, lu_factor, lu_solve

from .body import DEFAULT_TOL_CONVEX_SCALE, SupportFunction
from .errors import ParameterRangeError, SingularJacobianError, StagnationError
from .grid import Grid, PeriodicSamples, diff, diff_matrix
from .measures import ProblemParams, _lp_factor, lp_dual_kernel, singular_floor

RCOND_LIMIT = 1e-14
# Smallest continuation step in t.  The n = 256 robustness matrix (lambda up
# to 20) never needs below 1/8, and the old fixed ramp stepped 1/10.
MIN_STEP = 1.0 / 32


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
                  step: float) -> SolveReport:
    """Damped Newton on the data (1 - t) mean(f) + t f, t rising from 0 to 1.

    A solved stage doubles ``step``; a failed one is retried from the last
    solved t with half of it, until that falls below MIN_STEP.  Only the
    constant start solves t = 0, so an explicit ``initial`` gets no retry.
    """
    if params.q == params.p:
        raise ParameterRangeError("q = p is outside the solvable family")
    grid = params.f.grid
    f = params.f.values
    mean_f = float(np.mean(f))
    h = _initial_values(params, initial, grid)
    s = PeriodicSamples(h, grid)
    state = (h, diff(s, 1).values, diff(s, 2).values + h)
    trace: list = []
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


def solve(params: ProblemParams, initial: SupportFunction | None = None,
          config: SolverConfig | None = None) -> SolveReport:
    """Damped Newton on f, with continuation from constant data if that fails.

    Without ``initial``, Newton starts from mean(f)^(1/(q-p)), the solution
    for the constant data mean(f).  If it raises or ends unconverged, the
    data are ramped from mean(f) to f in stages whose step is halved on
    failure; the trace, iterations and stage_iterations keep every attempt.
    An explicit ``initial`` means direct Newton from that body with no
    fallback: errors propagate and an unconverged run is returned with
    ``converged=False``.
    """
    return _continuation(params, initial, config or SolverConfig(), 1.0)


def report_to_dict(report: SolveReport, include_trace: bool = False) -> dict:
    out = {
        "converged": report.converged,
        "residual_sup": report.residual_sup,
        "iterations": report.iterations,
        "stage_iterations": list(report.stage_iterations),
        "min_h": report.min_h,
        "min_curvature": report.min_curvature,
        "n_points": report.body.grid.n_points,
        "h": report.body.values.tolist(),
    }
    if include_trace:
        out["trace"] = [list(entry) for entry in report.trace]
    return out
