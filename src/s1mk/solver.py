"""Damped Newton with data continuation for the prescribed-measure equation.

The residual of a candidate support function h against data f is its lp_dual
density minus the data,

    F(h) = h^(1-p) (h^2 + h'^2)^((q-2)/2) (h'' + h) - f,

discretized spectrally on the grid of f and evaluated by the density kernel of
``measures``.  Its exact Frechet derivative is J v = A v'' + B v' + C v, with
coefficients from ``_jacobian_coefficients``.  Each Newton stage backtracks on
the Euclidean residual norm, rejecting any step that leaves the cone of
nonnegative convex support functions.

``solve`` first runs Newton on f from mean(f)^(1/(q-p)), which solves the
constant data mean(f).  Only if that fails does it continue along the data
(1 - t) mean(f) + t f with step-length control: a solved stage doubles the
step in t, a failed one is retried with half of it (Allgower and Georg,
Introduction to Numerical Continuation Methods, SIAM 2003).  These stages,
and Newton from an explicit start, assemble J as a dense matrix in Fortran
order from ``diff_matrix``'s Fortran-ordered matrices and solve it by LU in
place with a LAPACK condition estimate.  Each Newton state takes h' and h''
from one ``diff`` call of order (1, 2).

On a grid of n >= 2 COARSE_N points without an explicit start, ``solve``
first works on two grids (Xu, SIAM J. Numer. Anal. 33, 1996): it restricts
f to COARSE_N points by Fourier truncation, runs there only the direct
attempt, capped at COARSE_MAX_NEWTON steps, prolongs the body to the full
grid by FFT zero-padding and polishes it with Newton to the same tolerance,
measured on that grid.  The polish is Jacobian-free Newton-Krylov (Knoll
and Keyes, J. Comput. Phys. 193, 2004): GMRES (Saad and Schultz, SIAM J.
Sci. Stat. Comput. 7, 1986) on J applied by FFTs, preconditioned by its
constant-coefficient part.  GMRES is written out in ``_gmres`` because
scipy's Python ``gmres`` cost more per call and per iteration than the FFT
products it applies.  The smooth solutions need far fewer modes than a
large grid carries, so the polish usually takes 0-3 steps.  If the coarse
answer is too under-resolved to prolong, or either level raises or ends
unconverged, ``solve`` runs the two levels again from 2 COARSE_N points with
the whole policy above (for n > 2 COARSE_N), and if that fails too, the full
grid by that policy from the constant start; the abandoned steps stay in
the trace.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, replace
from functools import partial

import numpy as np
from scipy.linalg import LinAlgWarning, get_lapack_funcs, lu_factor, lu_solve

from .body import SupportFunction, convexity_tol
from .errors import ParameterRangeError, SingularJacobianError, StagnationError
from .grid import Grid, PeriodicSamples, _multiplier, diff, diff_matrix, resample, restrict
from .measures import ProblemParams, _lp_factor, lp_dual_kernel, singular_floor

RCOND_LIMIT = 1e-14
# Smallest continuation step in t.  The n = 256 robustness matrix (lambda up
# to 20) never needs below 1/8, and the old fixed ramp stepped 1/10.
MIN_STEP = 1.0 / 32
# Coarse grid of the two-grid solve: n = 256 and up do their dense Newton
# steps at n = 128, and at 256 only if that fails.
COARSE_N = 128
# Newton steps of the direct attempt on the COARSE_N level, which never
# continues.  At lambda = 2 the attempt converged in 4-7 steps in
# 90 of 90 cases from n = 256 to 1024; an attempt that fails stops here
# instead of running up to max_newton steps before the fallback.
COARSE_MAX_NEWTON = 8
# Smallest line-search damping before a Newton stage gives up.
DAMPING_MIN = 1e-4
# GMRES on the polish levels: relative residual, restart length and restart
# cycles, so at most 120 iterations.  A prolonged start's residual can be as
# small as 1e-10, where a relative 1e-13 lies below roundoff.  On 60
# seeds of the benchmark's n = 512-1024 cases, 1e-6 took 3-31 iterations a
# step and as many Newton steps as dense LU; an Eisenstat-Walker forcing term
# took a third fewer iterations but 9-12% more Newton steps, in the same time.
KRYLOV_RTOL = 1e-6
KRYLOV_RESTART = 60
KRYLOV_CYCLES = 2
# Largest tail ratio of a level's answer that is prolonged and polished.  At
# n = 512, lambda = 5, every polish that failed started from a coarse tail of
# 2.7e-5 or more; the tails of successful ones reached 1.8e-5.  Bump data at
# (0.5, 3) have coarse tails near 2e-7 and polish in 1-2 steps, far cheaper
# than the dense fallback.
POLISH_TAIL_LIMIT = 1e-5

_GECON, _LANGE, _TRTRS = get_lapack_funcs(("gecon", "lange", "trtrs"), (np.empty((2, 2)),))


@dataclass(frozen=True)
class SolverConfig:
    newton_tol: float = 1e-10
    max_newton: int = 50


@dataclass
class SolveReport:
    body: SupportFunction
    residual_sup: float
    iterations: int
    min_h: float
    min_curvature: float
    converged: bool
    stage_iterations: list
    trace: list
    # (n, Newton steps) per grid level, coarse to fine, then each fallback's
    levels: list
    # max_{k > n/4} |h_k| / |h_0|: near roundoff when the grid resolves h
    tail_ratio: float
    # max |h - prolonged coarser solution| / max h; None unless sequenced
    level_gap: float | None
    # GMRES iterations of the polish levels, failed levels included
    krylov_iterations: int


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


def _jacobian_coefficients(h: np.ndarray, hp: np.ndarray, curv: np.ndarray,
                           p: float, q: float):
    """Coefficients (A, B, C) of the Frechet derivative J v = A v'' + B v' + C v.

    B is None for q = 2, where the density does not depend on h'.
    """
    lp, active = _lp_factor(h, p)
    # lp_prime is the coefficient (1-p) h^(-p) of the zeroth-order term; it
    # vanishes where the factor does not vary with h.
    lp_prime = np.where(active, (1.0 - p) * np.where(active, h, 1.0) ** (-p), 0.0)

    if q == 2.0:
        return lp, None, lp_prime * curv + lp

    w = h * h + hp * hp
    wfac = w ** (0.5 * (q - 2.0))
    wfac4 = w ** (0.5 * (q - 4.0))
    t2 = lp * (q - 2.0) * wfac4 * curv
    t3 = lp * wfac
    return t3, t2 * hp, lp_prime * wfac * curv + t2 * h + t3


def _jacobian_matrix(h: np.ndarray, hp: np.ndarray, curv: np.ndarray,
                     p: float, q: float, grid: Grid) -> np.ndarray:
    a, b, c = _jacobian_coefficients(h, hp, curv, p, q)
    # Fortran order, like diff_matrix, so that LAPACK factors it in place
    # and no product is a strided or C-ordered temporary
    mat = np.multiply(a[:, None], diff_matrix(grid, 2), order="F")
    if b is not None:
        mat += np.multiply(b[:, None], diff_matrix(grid, 1), order="F")
    idx = np.arange(h.shape[0])
    mat[idx, idx] += c
    return mat


def _fft_jacobian(a: np.ndarray, b: np.ndarray | None, c: np.ndarray):
    """The product v -> A v'' + B v' + C v, by FFT in O(n log n)."""
    n = a.shape[0]
    if b is None:
        m2 = _multiplier(n, 2)
        return lambda v: a * np.fft.irfft(m2 * np.fft.rfft(v), n) + c * v
    pair = _multiplier(n, (1, 2))

    def apply(v):
        d1, d2 = np.fft.irfft(pair * np.fft.rfft(v), n)
        jv = a * d2 + c * v
        jv += b * d1
        return jv

    return apply


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


def _dense_step(h, hp, curv, r, p, q, grid: Grid) -> np.ndarray:
    """Newton step J s = -r by dense LU, checked by a LAPACK condition estimate."""
    jac = _jacobian_matrix(h, hp, curv, p, q, grid)
    anorm = float(_LANGE("1", jac))  # no |jac| temporary, unlike np.linalg.norm
    with warnings.catch_warnings():
        # an exactly zero pivot fails the condition check below
        warnings.simplefilter("ignore", LinAlgWarning)
        lu, piv = lu_factor(jac, overwrite_a=True)
    rcond, info = _GECON(lu, anorm, norm="1")
    if info != 0 or rcond < RCOND_LIMIT:
        raise SingularJacobianError(
            f"linearization condition estimate {1.0 / max(rcond, 1e-300):.2e}"
        )
    return lu_solve((lu, piv), -r)


def _fft_preconditioner(a: np.ndarray, b: np.ndarray | None, c: np.ndarray):
    """The inverse of J's constant-coefficient part, by FFT in O(n log n).

    That part is M v = A (v'' + mean(B/A) v' + mean(C/A) v), which FFTs
    invert exactly (Orszag, J. Comput. Phys. 37, 1980).  Raises
    SingularJacobianError where A is not positive or M is singular.
    """
    if not float(a.min()) > 0.0:
        raise SingularJacobianError(
            f"leading Jacobian coefficient min {float(a.min()):.2e} is not positive")
    n = a.shape[0]
    symbol = _multiplier(n, 2) + float(np.mean(c / a))
    if b is not None:
        symbol = symbol + _multiplier(n, 1) * float(np.mean(b / a))
    if float(np.abs(symbol).min()) <= RCOND_LIMIT * float(np.abs(symbol).max()):
        raise SingularJacobianError("preconditioner symbol vanishes at a Fourier mode")
    return lambda v: np.fft.irfft(np.fft.rfft(v / a) / symbol, n)


def _krylov_step(h, hp, curv, r, p, q, grid: Grid, iterations: list) -> np.ndarray:
    """Newton step J s = -r by GMRES on the FFT-applied Jacobian.

    Right-preconditioned by ``_fft_preconditioner`` and solved by ``_gmres``
    to the relative residual KRYLOV_RTOL; the iteration count is appended
    to ``iterations``.  GMRES is written out rather than taken from scipy,
    whose Python ``gmres`` took 137-172 us an iteration on grids of n = 128
    to 1024 against 46-78 us for ``_gmres``, of which one preconditioned FFT
    product takes 40-66 us (2-core x86-64, one BLAS thread).
    """
    a, b, c = _jacobian_coefficients(h, hp, curv, p, q)
    return _gmres(_fft_jacobian(a, b, c), _fft_preconditioner(a, b, c), -r, iterations)


def _gmres(apply, precondition, rhs: np.ndarray, iterations: list) -> np.ndarray:
    """Solve apply(x) = rhs by restarted GMRES, right-preconditioned.

    GMRES (Saad and Schultz, SIAM J. Sci. Stat. Comput. 7, 1986) runs on
    apply(precondition(z)) = rhs and returns x = precondition(z).  A cycle
    builds at most KRYLOV_RESTART Arnoldi vectors, orthogonalized by
    classical Gram-Schmidt run twice, which keeps them orthogonal to working
    precision (Giraud et al., Numer. Math. 101, 2005) in four matrix-vector
    products instead of a Python loop of dot products.  Givens rotations keep
    the small least-squares problem triangular and give its residual norm at
    each iteration; a cycle ends when that falls to KRYLOV_RTOL ||rhs||.
    Success is judged on the true residual, recomputed after each cycle,
    which also restarts the next one, up to KRYLOV_CYCLES: the rule of
    scipy's ``gmres``, whose iteration counts it reproduces.  The count is
    appended to ``iterations``; a miss raises SingularJacobianError naming
    it and the relative residual reached.
    """
    m = KRYLOV_RESTART
    rhs_norm = float(np.linalg.norm(rhs))
    target = KRYLOV_RTOL * rhs_norm
    basis = np.empty((m + 1, rhs.shape[0]))
    tri = np.zeros((m, m))  # the rotated Hessenberg matrix, upper triangular
    z = np.zeros_like(rhs)
    res, count = rhs, 0
    for _ in range(KRYLOV_CYCLES):
        beta = float(np.linalg.norm(res))
        np.divide(res, beta, out=basis[0])
        g = [beta]  # rotated right-hand side; |g[-1]| is the residual norm
        rotations = []
        for j in range(m):
            w = apply(precondition(basis[j]))
            known = basis[: j + 1]
            coef = known @ w
            w -= coef @ known
            again = known @ w
            w -= again @ known
            coef += again
            norm = float(np.linalg.norm(w))
            col = coef.tolist()
            for i, (cs, sn) in enumerate(rotations):
                col[i], col[i + 1] = (cs * col[i] + sn * col[i + 1],
                                      cs * col[i + 1] - sn * col[i])
            diag = math.hypot(col[j], norm)
            cs, sn = col[j] / diag, norm / diag
            rotations.append((cs, sn))
            col[j] = diag
            tri[: j + 1, j] = col
            g.append(-sn * g[j])
            g[j] *= cs
            count += 1
            if abs(g[-1]) <= target:
                break
            np.divide(w, norm, out=basis[j + 1])
        k = len(rotations)
        y, _ = _TRTRS(tri[:k, :k], np.array(g[:k]))
        z += y @ basis[:k]
        x = precondition(z)
        res = rhs - apply(x)
        res_norm = float(np.linalg.norm(res))
        if res_norm <= target:
            iterations.append(count)
            return x
    iterations.append(count)
    raise SingularJacobianError(
        f"GMRES reached relative residual {res_norm / rhs_norm:.2e} after"
        f" {count} iterations (tolerance {KRYLOV_RTOL:.0e})")


def _newton_stage(h, hp, curv, f, p, q, cfg: SolverConfig, grid: Grid,
                  trace: list, t_label: float, linear_solve=_dense_step):
    """Damped Newton on fixed data.

    (h, hp, curv) are the iterate with its first derivative and curvature
    density; returns the final such triple and its residual sup.  Each
    Newton step solves J s = -r by ``linear_solve(h, hp, curv, r, p, q,
    grid)``, and each accepted step appends (t_label, iteration, residual
    sup, damping) to trace.
    """
    r = lp_dual_kernel(h, hp, curv, p, q) - f
    res_sup = float(np.max(np.abs(r)))
    res_l2 = float(np.linalg.norm(r))
    it = 0
    while res_sup > cfg.newton_tol and it < cfg.max_newton:
        step = linear_solve(h, hp, curv, r, p, q, grid)

        damping = 1.0
        while True:
            cand = h + damping * step
            ok = float(cand.min()) >= 0.0
            if ok and p >= 1.0:
                ok = float(cand.min()) > singular_floor(cand)
            if ok:
                _, cand_hp, cand_curv = _derivatives(cand, grid)
                ok = float(cand_curv.min()) >= -convexity_tol(cand)
            if ok:
                r_cand = lp_dual_kernel(cand, cand_hp, cand_curv, p, q) - f
                cand_l2 = float(np.linalg.norm(r_cand))
                ok = np.isfinite(cand_l2) and cand_l2 < res_l2
            if ok:
                break
            damping *= 0.5
            if damping < DAMPING_MIN:
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


def _derivatives(h: np.ndarray, grid: Grid):
    """The Newton state (h, h', h'' + h) of support values h."""
    hp, hpp = diff(PeriodicSamples(h, grid), (1, 2))
    return h, hp.values, hpp.values + h


def _continuation(f: PeriodicSamples, p: float, q: float, cfg: SolverConfig,
                  step: float, trace: list, stages: list, min_step: float = MIN_STEP):
    """Damped Newton on the data (1 - t) mean(f) + t f, t rising from 0 to 1.

    Starts from mean(f)^(1/(q-p)), which solves t = 0.  A solved stage
    doubles ``step``; a failed one is retried from the last solved t with
    half of it, until that falls below ``min_step`` and the stage's error is
    raised.  Steps are appended to ``trace`` and each stage's step count to
    ``stages``; both may hold earlier attempts.  Returns the final
    (h, h', h'' + h, residual sup).
    """
    grid = f.grid
    mean_f = float(np.mean(f.values))
    state = _derivatives(np.full(grid.n_points, mean_f ** (1.0 / (q - p))), grid)
    t0 = 0.0
    while t0 < 1.0:
        t = min(1.0, t0 + step)
        before = len(trace)
        err = None
        try:
            *reached, res_sup = _newton_stage(*state, (1.0 - t) * mean_f + t * f.values,
                                              p, q, cfg, grid, trace, t)
        except (StagnationError, SingularJacobianError) as exc:
            # the traceback would keep the failed stage's Jacobian and LU alive
            err = exc.with_traceback(None)
        stages.append(len(trace) - before)
        if err is None and res_sup <= cfg.newton_tol:
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
        if step < min_step:
            raise err
    return (*state, res_sup)


def _level_grids(grid: Grid) -> list:
    """Coarse grids of the sequenced solve on ``grid``, in the order tried."""
    n = grid.n_points
    return [Grid(m) for m in (COARSE_N, 2 * COARSE_N) if n >= 2 * COARSE_N and n > m]


def _sequenced(params: ProblemParams, cfg: SolverConfig, coarse: Grid, trace: list,
               stages: list, levels: list, krylov: list | None = None):
    """Solve on the ``coarse`` grid, then a Newton-Krylov polish on the data grid.

    The coarse level runs ``_continuation`` with dense LU on the data
    restricted to it; below 2 COARSE_N points only its direct attempt,
    capped at COARSE_MAX_NEWTON steps.  The polish starts from the body
    prolonged by FFT and solves its Newton steps by ``_krylov_step``, whose
    GMRES iteration counts go to ``krylov``.  Returns the fine-grid
    (h, h', h'' + h, residual sup, level gap), or None if the restricted data
    are not positive, if the coarse answer is too under-resolved to prolong
    (tail ratio above POLISH_TAIL_LIMIT), or once a level raises or ends
    unconverged; the steps taken stay in ``trace``, ``stages`` and
    ``levels`` either way.
    """
    p, q, f = params.p, params.q, params.f
    coarse_f = restrict(f, coarse)
    if float(coarse_f.values.min()) <= 0.0:
        return None
    coarse_cfg, min_step = cfg, MIN_STEP
    if coarse.n_points < 2 * COARSE_N:
        coarse_cfg = replace(cfg, max_newton=min(cfg.max_newton, COARSE_MAX_NEWTON))
        min_step = 1.0
    before = len(trace)
    try:
        h, _, _, res_sup = _continuation(coarse_f, p, q, coarse_cfg, 1.0, trace, stages,
                                         min_step)
    except (StagnationError, SingularJacobianError):
        res_sup = np.inf
    levels.append((coarse.n_points, len(trace) - before))
    if not res_sup <= cfg.newton_tol or _tail_ratio(h) > POLISH_TAIL_LIMIT:
        return None
    start = resample(PeriodicSamples(h, coarse), f.grid).values
    polish = partial(_krylov_step, iterations=[] if krylov is None else krylov)
    before = len(trace)
    try:
        h, hp, curv, res_sup = _newton_stage(*_derivatives(start, f.grid), f.values, p, q,
                                             cfg, f.grid, trace, 1.0, polish)
    except (StagnationError, SingularJacobianError):
        res_sup = np.inf
    stages.append(len(trace) - before)
    levels.append((f.grid.n_points, stages[-1]))
    if not res_sup <= cfg.newton_tol:
        return None
    return h, hp, curv, res_sup, float(np.max(np.abs(h - start)) / np.max(h))


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
    On a grid of at least 2 COARSE_N points, ``_sequenced`` first runs the
    direct attempt alone, capped at COARSE_MAX_NEWTON steps, on COARSE_N
    points, and polishes its answer on the full grid.  If either level
    fails, it runs again from 2 COARSE_N points with this policy, if the
    grid is finer than that; only if that fails too, or is not tried, does
    the policy run on the full grid.
    An explicit ``initial`` means direct Newton from that body on the full
    grid with no fallback: errors propagate and an unconverged run is
    returned with ``converged=False``.

    The report's ``levels`` lists (n, Newton steps) per grid level run,
    ``tail_ratio`` is max_{k > n/4} |h_k| / |h_0| of the answer's Fourier
    coefficients, a resolution test as in Chebfun's chopping rule, and
    ``level_gap`` is max |h - prolonged coarse answer| / max h when the
    answer came from a polish.  The report's body is not validated and
    carries the final Newton state's h' and h'' + h, which are ``diff`` of
    its samples bit for bit.
    """
    cfg = config or SolverConfig()
    p, q, f = params.p, params.q, params.f
    if q == p:
        raise ParameterRangeError("q = p is outside the solvable family")
    grid = f.grid
    trace, stages, levels, krylov = [], [], [], []
    level_gap = None
    if initial is not None:
        if initial.grid.n_points != grid.n_points:
            raise ValueError("initial body must live on the data grid")
        h, hp, curv, res_sup = _newton_stage(*_derivatives(initial.values.copy(), grid),
                                             f.values, p, q, cfg, grid, trace, 1.0)
        stages.append(len(trace))
        levels.append((grid.n_points, len(trace)))
    else:
        sequenced = None
        for coarse in _level_grids(grid):
            sequenced = _sequenced(params, cfg, coarse, trace, stages, levels, krylov)
            if sequenced is not None:
                break
        if sequenced is None:
            before = len(trace)
            h, hp, curv, res_sup = _continuation(f, p, q, cfg, 1.0, trace, stages)
            levels.append((grid.n_points, len(trace) - before))
        else:
            h, hp, curv, res_sup, level_gap = sequenced
    return SolveReport(
        body=SupportFunction._carrying(h, grid, hp, curv, validate=False),
        residual_sup=res_sup,
        iterations=len(trace),
        min_h=float(h.min()),
        min_curvature=float(curv.min()),
        converged=res_sup <= cfg.newton_tol,
        stage_iterations=stages,
        trace=trace,
        levels=levels,
        tail_ratio=_tail_ratio(h),
        level_gap=level_gap,
        krylov_iterations=sum(krylov),
    )


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
        "krylov_iterations": report.krylov_iterations,
        "h": report.body.values.tolist(),
    }
    if include_trace:
        out["trace"] = [list(entry) for entry in report.trace]
    return out
