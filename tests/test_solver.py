import warnings

import numpy as np
import pytest

from s1mk import (
    Grid,
    ParameterRangeError,
    PeriodicSamples,
    ProblemParams,
    SingularJacobianError,
    SolverConfig,
    StagnationError,
    SupportFunction,
    disk,
    gen_f,
    harness,
    integrate,
    jacobian,
    linearized_spectrum,
    lp_dual_density,
    report_to_dict,
    residual,
    rotate,
    solve,
    solver,
)
from s1mk import body as body_module
from s1mk.grid import diff, diff_matrix, resample, restrict


def _params(p, q, grid, seed=0, lam=2.0, kind="trig"):
    return ProblemParams(p, q, gen_f(kind, lam, seed, grid), lam=lam)


def _continued(params, step=1.0, cfg=None):
    """The continuation path alone on the data grid: (h, trace, stages, residual)."""
    trace, stages = [], []
    state, res_sup = solver._continuation(params.f, params.p, params.q,
                                          cfg or SolverConfig(), step, trace, stages)
    return state.values, trace, stages, res_sup


class TestResidual:
    def test_constant_data_constant_solution(self, grid256):
        f = PeriodicSamples(np.full(256, 8.0), grid256)
        params = ProblemParams(3.0, 2.0, f, lam=8.0)
        body = disk(grid256, 8.0 ** (1.0 / (2.0 - 3.0)))
        assert float(np.max(np.abs(residual(body, params).values))) < 1e-13

    def test_is_lp_dual_density_minus_data(self, grid256):
        import s1mk
        body = s1mk.random_convex_body(np.random.default_rng(11), grid256)
        for p in (0.0, 0.5, 1.0, 3.0):
            for q in (2.0, 3.0):
                params = _params(p, q, grid256, seed=2)
                expected = lp_dual_density(body, p, q).density.values - params.f.values
                assert np.array_equal(residual(body, params).values, expected), (p, q)

    def test_shares_the_density_floor(self, grid256):
        # min h = 1e-10 lies above the density's scale-aware floor, so the
        # factor h^(1-p) must be kept there, not cut to zero
        vals = 1.0 + np.cos(grid256.theta) + 1e-10
        body = SupportFunction(PeriodicSamples(vals, grid256), validate=False)
        params = _params(0.5, 2.0, grid256)
        expected = lp_dual_density(body, 0.5, 2.0).density.values - params.f.values
        assert np.array_equal(residual(body, params).values, expected)

    def test_grid_mismatch(self, grid256, unit_disk):
        f = PeriodicSamples(np.ones(128), Grid(128))
        params = ProblemParams(0.5, 2.0, f)
        with pytest.raises(ValueError, match="share a grid"):
            residual(unit_disk, params)


class TestJacobian:
    def test_modes_at_unit_disk(self, grid256, unit_disk):
        # linearization at h == 1 for q = 2 acts as v -> v'' + (2 - p) v,
        # so cos(k theta) is an eigenvector with eigenvalue 2 - p - k^2
        for p in (0.0, 0.5):
            params = _params(p, 2.0, grid256)
            jac = jacobian(unit_disk, params)
            for k in range(9):
                v = np.cos(k * grid256.theta)
                err = np.max(np.abs(jac @ v - (2.0 - p - k * k) * v))
                assert err <= 1e-10, (p, k, err)

    def test_forward_difference(self, grid256, unit_disk):
        params = _params(0.5, 2.0, grid256)
        jac = jacobian(unit_disk, params)
        h = unit_disk.values
        eps = 1e-7
        for k in (1, 2):
            v = np.cos(k * grid256.theta)
            plus = SupportFunction(PeriodicSamples(h + eps * v, grid256),
                                   validate=False)
            fd = (residual(plus, params).values
                  - residual(unit_disk, params).values) / eps
            assert np.max(np.abs(fd - jac @ v)) <= 1e-5

    def test_central_difference(self, grid256, unit_disk):
        # the residual evaluation noise is around 6e-13, so the central
        # stencil bottoms out near 6e-9 with the step at 1e-4
        params = _params(0.5, 2.0, grid256)
        jac = jacobian(unit_disk, params)
        h = unit_disk.values
        eps = 1e-4
        for k in (1, 2):
            v = np.cos(k * grid256.theta)
            plus = SupportFunction(PeriodicSamples(h + eps * v, grid256),
                                   validate=False)
            minus = SupportFunction(PeriodicSamples(h - eps * v, grid256),
                                    validate=False)
            fd = (residual(plus, params).values
                  - residual(minus, params).values) / (2 * eps)
            assert np.max(np.abs(fd - jac @ v)) <= 5e-8

    def test_central_difference_general_body(self, grid256):
        import s1mk
        body = s1mk.random_convex_body(np.random.default_rng(5), grid256)
        params = _params(0.5, 3.0, grid256)
        jac = jacobian(body, params)
        rng = np.random.default_rng(6)
        v = rng.standard_normal(256)
        v /= np.max(np.abs(v))
        eps = 1e-6
        h = body.values
        plus = SupportFunction(PeriodicSamples(h + eps * v, grid256),
                               validate=False)
        minus = SupportFunction(PeriodicSamples(h - eps * v, grid256),
                                validate=False)
        fd = (residual(plus, params).values
              - residual(minus, params).values) / (2 * eps)
        ref = jac @ v
        assert np.max(np.abs(fd - ref)) / np.max(np.abs(ref)) <= 1e-5

    @pytest.mark.parametrize("p", [0.0, 0.5, 3.0])
    @pytest.mark.parametrize("q", [1.5, 2.0, 3.0])
    def test_fft_product_matches_dense(self, p, q):
        import s1mk
        grid = Grid(512)
        body = s1mk.random_convex_body(np.random.default_rng(13), grid)
        params = _params(p, q, grid)
        coef = solver._jacobian_coefficients(body, p, q)
        assert (coef[1] is None) == (q == 2.0)
        product = solver._fft_jacobian(*coef)
        jac = jacobian(body, params)
        rng = np.random.default_rng(7)
        for _ in range(3):
            v = rng.standard_normal(512)
            ref = jac @ v
            err = np.max(np.abs(product(v) - ref)) / np.max(np.abs(ref))
            assert err <= 1e-12, (p, q, err)

    @pytest.mark.parametrize("q", [2.0, 3.0])
    @pytest.mark.parametrize("n", [64, 128, 192])
    def test_matrix_is_fortran_and_matches_rowwise_assembly(self, q, n):
        import s1mk
        grid = Grid(n)
        body = s1mk.random_convex_body(np.random.default_rng(5), grid)
        a, b, c = solver._jacobian_coefficients(body, 0.5, q)
        terms = a[:, None] * diff_matrix(grid, 2)
        if b is not None:
            terms = terms + b[:, None] * diff_matrix(grid, 1)
        mat = solver._jacobian_matrix(body, 0.5, q)
        assert mat.flags.f_contiguous
        assert np.array_equal(mat, terms + np.diag(c))


def _polish_system(q, n=512, seed=1):
    """A Krylov polish system: the FFT Jacobian at a perturbed n-point
    solution of bump data, its preconditioner, the fused preconditioned
    product, -residual and dense Jacobian."""
    grid = Grid(n)
    params = _params(0.5, q, grid, seed=seed, kind="bump")
    h = solve(params).body.values * (1.0 + 0.01 * np.cos(3.0 * grid.theta))
    state = solver._state(h, grid, validate=False)
    coef = solver._jacobian_coefficients(state, 0.5, q)
    rhs = -residual(state, params).values
    return (solver._fft_jacobian(*coef), *solver._fft_preconditioner(*coef), rhs,
            jacobian(state, params))


class TestGmres:
    @pytest.mark.parametrize("q", [2.0, 3.0])
    def test_matches_dense_solve_and_scipy_counts(self, q, monkeypatch):
        from scipy.sparse.linalg import LinearOperator, gmres
        product, precondition, preconditioned, rhs, jac = _polish_system(q)
        dense = np.linalg.solve(jac, rhs)
        for rtol, agree in ((solver.KRYLOV_RTOL, 1e-4), (1e-11, 1e-8)):
            monkeypatch.setattr(solver, "KRYLOV_RTOL", rtol)
            counts = []
            x = solver._gmres(product, precondition, preconditioned, rhs, counts)
            assert np.linalg.norm(product(x) - rhs) <= rtol * np.linalg.norm(rhs)
            assert np.max(np.abs(x - dense)) <= agree * np.max(np.abs(dense)), rtol
            # scipy's gmres on the operator whose Krylov space _gmres builds
            n = rhs.shape[0]
            op = LinearOperator((n, n), matvec=preconditioned, dtype=float)
            history = []
            _, info = gmres(op, rhs, rtol=rtol, atol=0.0, restart=solver.KRYLOV_RESTART,
                            maxiter=solver.KRYLOV_CYCLES, callback=history.append,
                            callback_type="pr_norm")
            assert info == 0 and counts == [len(history)] and len(history) > 1, rtol

    def test_restarts_until_the_true_residual_meets_the_tolerance(self, monkeypatch):
        product, precondition, preconditioned, rhs, _ = _polish_system(3.0)
        monkeypatch.setattr(solver, "KRYLOV_RESTART", 2)
        monkeypatch.setattr(solver, "KRYLOV_CYCLES", 50)
        counts = []
        x = solver._gmres(product, precondition, preconditioned, rhs, counts)
        assert np.linalg.norm(product(x) - rhs) <= solver.KRYLOV_RTOL * np.linalg.norm(rhs)
        assert counts[0] > 2 * solver.KRYLOV_RESTART


class TestFusedProduct:
    # J M^-1 v from one rfft and one irfft, against the round trip through
    # M^-1 v's samples, whose k^2 multiplier amplifies roundoff by about n^2
    @pytest.mark.parametrize("q", [2.0, 3.0])
    @pytest.mark.parametrize("n", [128, 512, 1024])
    def test_matches_the_round_trip(self, n, q):
        product, precondition, preconditioned, _, _ = _polish_system(q, n)
        rng = np.random.default_rng(n)
        for _ in range(3):
            v = rng.standard_normal(n)
            ref = product(precondition(v))
            err = np.max(np.abs(preconditioned(v) - ref)) / np.max(np.abs(ref))
            assert err <= n * n * np.finfo(float).eps, (n, q, err)


class TestDenseStep:
    @staticmethod
    def _scipy_lu(a):
        import scipy.linalg
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", scipy.linalg.LinAlgWarning)
            return scipy.linalg.lu_factor(a)

    @pytest.mark.parametrize("n", [16, 128])
    def test_lu_matches_scipy_bit_for_bit(self, n):
        import scipy.linalg
        rng = np.random.default_rng(n)
        a = np.asfortranarray(rng.standard_normal((n, n)))
        rhs = rng.standard_normal(n)
        ref_lu, ref_piv = self._scipy_lu(a)
        work = a.copy(order="F")
        lu, piv = solver.lu_factor(work)
        assert np.shares_memory(lu, work)  # factored in place
        assert np.array_equal(lu, ref_lu) and np.array_equal(piv, ref_piv)
        assert np.array_equal(solver.lu_solve(lu, piv, rhs),
                              scipy.linalg.lu_solve((ref_lu, ref_piv), rhs))

    def test_lu_of_c_ordered_input_matches_scipy(self):
        # the exactly singular matrix of test_zero_pivot_raises_without_warning
        a = np.diag(np.r_[np.ones(255), 0.0])
        ref_lu, ref_piv = self._scipy_lu(a)
        lu, piv = solver.lu_factor(a)
        assert np.array_equal(lu, ref_lu) and np.array_equal(piv, ref_piv)
        assert np.array_equal(a, np.diag(np.r_[np.ones(255), 0.0]))  # copied, not overwritten

    def test_step_calls_each_lu_function_once(self, grid256, monkeypatch):
        calls = []

        def counted(name, real):
            def wrapper(*args):
                calls.append(name)
                return real(*args)
            return wrapper

        for name in ("lu_factor", "lu_solve"):
            monkeypatch.setattr(solver, name, counted(name, getattr(solver, name)))
        import scipy.linalg
        params = _params(0.5, 2.0, grid256)
        state = solver._state(disk(grid256, 1.2).values, grid256)
        r = residual(state, params).values
        step = solver._dense_step(state, r, 0.5, 2.0)
        assert calls == ["lu_factor", "lu_solve"]
        ref = scipy.linalg.lu_solve(self._scipy_lu(jacobian(state, params)), -r)
        assert np.array_equal(step, ref)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_jacobian_is_named(self, grid256, monkeypatch, bad):
        # scipy's lu_factor raised an untyped ValueError here; the 1-norm the
        # condition estimate needs names the entry instead, with no warning
        jac = np.eye(256, order="F")
        jac[7, 3] = bad
        monkeypatch.setattr(solver, "_jacobian_matrix", lambda *args: jac)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(SingularJacobianError,
                               match=rf"^linearization has a non-finite entry: 1-norm"
                                     rf" {'nan' if np.isnan(bad) else 'inf'}$"):
                solve(_params(0.5, 2.0, grid256), initial=disk(grid256, 1.2))


class TestSpectrum:
    def test_invertibility(self):
        assert linearized_spectrum(0.5).invertible
        assert not linearized_spectrum(1.0).invertible  # 2 - p = 1 = 1^2
        assert not linearized_spectrum(-2.0).invertible  # 2 - p = 4 = 2^2

    def test_shifted_values(self):
        spec = linearized_spectrum(1.0, k_max=2)
        assert np.allclose(spec.shifted_eigenvalues, [-1.0, 0.0, 3.0])

    def test_k_max_validation(self):
        with pytest.raises(ValueError):
            linearized_spectrum(0.5, k_max=1)


class TestLineSearch:
    """Each rule that rejects a trial step of ``_newton_stage``.

    The stage starts from the unit disk on 64 points, whose density is 1 at
    q = 2 for every p, and takes one injected step: translating by a cos
    term moves min h, a cos 2 theta term bends the curvature density.
    """

    # p, step, far data, damping accepted there, the StagnationError's tail
    CASES = {
        "negative": (0.5, lambda t: 3.0 + 4.5 * np.cos(t), 8.0, 0.5,
                     r"full step: support value -5\.000e-01 < 0 at theta = 3\.141593;"
                     r" 1 negative, 13 no decrease"),
        "nonconvex": (0.5, lambda t: 3.0 + 1.5 * np.cos(2.0 * t), 8.0, 0.5,
                      r"full step: curvature density -5\.0+e-01 < -5\.5e-09 at theta = \S+"
                      r" \(samples' Fourier tail ratio \S+\); 1 nonconvex, 13 no decrease"),
        "singular floor": (1.0, lambda t: 1.0 + 2.0 * np.cos(t), 2.0, 0.5,
                           r"full step: singular floor; 1 singular floor, 13 no decrease"),
        "no decrease": (0.5, lambda t: np.full(t.shape, 20.0), 8.0, 0.25,
                        r"full step: no decrease; 14 no decrease"),
        "non-finite": (0.5, lambda t: np.where(np.arange(t.size) == 5, np.nan, 1.0), 8.0,
                       None, r"full step: support value non-finite at theta = 0\.490874;"
                             r" 14 non-finite"),
    }

    @staticmethod
    def _stage(p, step, data):
        grid = Grid(64)
        trace = []
        start = solver._state(np.ones(64), grid)
        solver._newton_stage(start, np.full(64, data), p, 2.0, SolverConfig(max_newton=1),
                             trace, 1.0, lambda *args: step(grid.theta))
        return trace

    @pytest.mark.parametrize("reason", list(CASES))
    def test_rejected_full_step(self, reason):
        p, step, far, damping, tail = self.CASES[reason]
        # far from the data a shorter step decreases the residual; a NaN
        # sample stays NaN at every damping
        if damping is None:
            with pytest.raises(StagnationError, match=tail + "$"):
                self._stage(p, step, far)
        else:
            assert [entry[3] for entry in self._stage(p, step, far)] == [damping]
        # next to the data every trial fails, and the error names the full
        # step's reason and counts the reasons of all 14 trials
        with pytest.raises(StagnationError,
                           match=r"damping underflow at stage t = 1\.000, residual 1\.000e-09; "
                                 + tail + "$"):
            self._stage(p, step, 1.0 + 1e-9)


class TestSolve:
    def test_constant_data_unit(self, grid256):
        f = PeriodicSamples(np.ones(256), grid256)
        rep = solve(ProblemParams(0.5, 2.0, f, lam=1.0))
        assert rep.converged
        assert rep.iterations == 0
        assert np.max(np.abs(rep.body.values - 1.0)) == 0.0

    def test_constant_data_closed_form(self, grid256):
        f = PeriodicSamples(np.full(256, 8.0), grid256)
        rep = solve(ProblemParams(3.0, 2.0, f, lam=8.0))
        assert rep.converged
        assert np.max(np.abs(rep.body.values - 0.125)) <= 1e-12

    def test_trig_data_converges(self, grid256):
        for q in (2.0, 3.0):
            rep = solve(_params(0.5, q, grid256))
            assert rep.converged
            assert rep.residual_sup <= 1e-10
            assert rep.min_h > 0.0
            assert rep.min_curvature > 0.0

    def test_scaling_equivariance(self, grid256):
        p, q = 0.5, 3.0
        f = gen_f("trig", 2.0, 3, grid256)
        lam = 1.3
        f_scaled = PeriodicSamples(lam ** (q - p) * f.values, grid256)
        a = solve(ProblemParams(p, q, f, lam=2.0))
        b = solve(ProblemParams(p, q, f_scaled, lam=2.0 * lam ** (q - p)))
        assert np.max(np.abs(b.body.values - lam * a.body.values)) <= 1e-8

    def test_rotation_equivariance(self, grid256):
        p, q = 0.5, 2.0
        f = gen_f("bump", 2.0, 4, grid256)
        k = 32
        ang = k * grid256.spacing
        f_rot = PeriodicSamples(np.roll(f.values, k), grid256)
        a = solve(ProblemParams(p, q, f))
        b = solve(ProblemParams(p, q, f_rot))
        rotated = rotate(a.body, ang)
        assert np.max(np.abs(b.body.values - rotated.values)) <= 1e-8

    def test_total_measure_identity(self, grid256):
        for p, q, seed in ((0.5, 2.0, 1), (0.5, 3.0, 2), (0.0, 2.0, 3)):
            params = _params(p, q, grid256, seed=seed)
            rep = solve(params)
            total = lp_dual_density(rep.body, p, q).total
            target = integrate(params.f)
            assert abs(total - target) / target <= 1e-10

    def test_direct_agrees_with_continuation(self, grid256):
        # solved directly: every step, on both grid levels, is at t = 1
        params = _params(0.5, 2.0, grid256, seed=7)
        a = solve(params)
        h, _, stages, res_sup = _continued(params, 0.5)
        assert a.converged and res_sup <= SolverConfig().newton_tol
        assert [n for n, _ in a.levels] == [128, 256] and len(stages) == 2
        assert all(entry[0] == 1.0 for entry in a.trace)
        assert np.max(np.abs(a.body.values - h)) <= 1e-9

    def test_quadratic_contraction(self, grid256):
        rep = solve(_params(0.5, 2.0, grid256))
        sups = [entry[2] for entry in rep.trace]
        assert len(sups) >= 3
        for a, b in zip(sups, sups[1:]):
            # the 1e-11 floor absorbs the final roundoff-limited step
            assert b <= max(10.0 * a * a, 1e-11), (a, b)
        assert all(entry[3] == 1.0 for entry in rep.trace)

    def test_rejects_q_equal_p(self, grid256):
        params = _params(2.0, 2.0, grid256)
        with pytest.raises(ParameterRangeError):
            solve(params)
        with pytest.raises(ParameterRangeError):
            solve(params, initial=disk(grid256))

    def test_singular_linearization(self, grid256):
        # at p = 1, q = 2 the linearization v -> v'' + v kills the k = 1 modes
        # at every stage, so the continuation gives up with the same error
        with pytest.raises(SingularJacobianError):
            solve(_params(1.0, 2.0, grid256))

    def test_zero_pivot_raises_without_warning(self, grid256, monkeypatch):
        # the condition check reports an exactly singular Jacobian; LAPACK's
        # zero-pivot warning for the same matrix must not leak
        singular = np.diag(np.r_[np.ones(255), 0.0])
        monkeypatch.setattr(solver, "_jacobian_matrix", lambda *args: singular)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(SingularJacobianError):
                solve(_params(0.5, 2.0, grid256), initial=disk(grid256, 1.2))

    def test_stagnation_carries_trace(self, stagnating_f):
        # every path stops far above the roundoff floor; the last step's
        # full step leaves the body
        with pytest.raises(StagnationError,
                           match=r"at stage t = 1\.000, residual 1\.26\de-02; full step:"
                                 r" support value -3\.8\d\de-02 < 0 at theta = 6\.24\d+;"
                                 r" 6 negative, 8 no decrease$") as exc_info:
            solve(ProblemParams(0.5, 2.0, stagnating_f, lam=2.0))
        trace = exc_info.value.trace
        assert len(trace) >= 3
        # the failed direct attempt comes first, then the bisected stages
        assert trace[0][0] == 1.0
        assert min(entry[0] for entry in trace) < 1.0

    def test_failed_direct_attempt_stays_in_trace(self, grid256):
        # direct Newton stagnates on this data, at n = 128 and at n = 256;
        # the continuation converges.  The abandoned n = 128 steps come
        # first, then exactly the steps and the body of the full-grid path
        params = _params(0.5, 2.0, grid256, seed=1, lam=5.0)
        start = disk(grid256, float(np.mean(params.f.values)) ** (1.0 / 1.5))
        with pytest.raises(StagnationError) as exc_info:
            solve(params, initial=start)
        failed = exc_info.value.trace
        rep = solve(params)
        h, trace, stages, res_sup = _continued(params)
        assert rep.converged and rep.residual_sup <= 1e-10
        k = rep.levels[0][1]
        assert rep.levels == [(128, k), (256, len(trace))]
        assert 0 < k <= SolverConfig().max_newton
        assert all(entry[0] == 1.0 for entry in rep.trace[:k])
        _same_report(rep, h, rep.trace[:k] + trace, [k] + stages, res_sup)
        assert rep.level_gap is None and rep.krylov_iterations == 0
        assert failed and all(entry[0] == 1.0 for entry in failed)
        assert trace[:len(failed)] == failed and stages[0] == len(failed)
        assert rep.iterations == len(rep.trace) == sum(rep.stage_iterations)
        assert trace[len(failed)][0] < 1.0

    def test_explicit_initial_has_no_fallback(self, grid256):
        # from a start that is not the t = 0 solution an unconverged run is
        # returned as such, not continued
        params = _params(0.5, 2.0, grid256, seed=1, lam=5.0)
        rep = solve(params, initial=disk(grid256, 1.2),
                    config=SolverConfig(max_newton=2))
        assert not rep.converged
        assert rep.stage_iterations == [2] and rep.iterations == 2

    def test_initial_grid_mismatch(self, grid256):
        with pytest.raises(ValueError, match="initial body"):
            solve(_params(0.5, 2.0, grid256), initial=disk(Grid(128)))


class TestReport:
    def test_dict_keys(self, grid256):
        rep = solve(_params(0.5, 2.0, grid256))
        d = report_to_dict(rep)
        for key in ("converged", "residual_sup", "iterations",
                    "stage_iterations", "min_h", "min_curvature",
                    "n_points", "levels", "tail_ratio", "level_gap", "h"):
            assert key in d
        assert "trace" not in d
        assert d["iterations"] == sum(d["stage_iterations"])
        assert [n for n, _ in d["levels"]] == [128, 256]
        assert sum(steps for _, steps in d["levels"]) == d["iterations"]
        assert d["level_gap"] == rep.level_gap < 1e-12
        assert len(d["h"]) == 256

    def test_krylov_iterations(self, grid256):
        # only the polish levels of a sequenced solve run GMRES
        assert report_to_dict(solve(_params(0.5, 2.0, grid256)))["krylov_iterations"] == 0
        rep = solve(_params(0.5, 3.0, Grid(512), seed=1, kind="bump"))
        assert rep.levels[-1][1] >= 1
        assert report_to_dict(rep)["krylov_iterations"] == rep.krylov_iterations > 0

    def test_trace_toggle(self, grid256):
        rep = solve(_params(0.5, 2.0, grid256))
        d = report_to_dict(rep, include_trace=True)
        assert isinstance(d["trace"], list)

    # n = 64 continues on the data grid, n = 256 and 512 polish a coarse
    # answer, and an explicit start runs Newton from it
    @pytest.mark.parametrize("n, start", [(64, False), (256, False), (512, False),
                                          (256, True)])
    def test_body_carries_the_final_newton_state(self, monkeypatch, n, start):
        params = _params(0.5, 3.0, Grid(n), seed=1)
        rep = solve(params, disk(params.f.grid) if start else None)
        hp, hpp = diff(rep.body.h, (1, 2))

        def no_diff(*args):
            raise AssertionError("the report body differentiated its samples")

        monkeypatch.setattr(body_module, "diff", no_diff)
        assert np.array_equal(rep.body.derivative.values, hp.values)
        assert np.array_equal(rep.body.curvature.values, hpp.values + rep.body.values)


# The bench's solve-large cases (n, kind, p, q), all sequenced.
SOLVE_LARGE_CASES = ((512, "trig", 0.5, 3.0), (512, "bump", 3.0, 2.0),
                     (512, "piecewise", 0.5, 2.0), (768, "trig", 0.5, 3.0),
                     (1024, "bump", 0.5, 3.0))


def _same_report(rep, h, trace, stages, res_sup):
    assert np.array_equal(rep.body.values, h)
    assert rep.trace == trace and rep.stage_iterations == stages
    assert (rep.residual_sup, rep.iterations) == (res_sup, len(trace))


class TestSequencing:
    def test_levels(self):
        # the coarse grids tried in turn, each followed by the data grid
        sizes = {n: [g.n_points for g in solver._level_grids(Grid(n))]
                 for n in (128, 250, 256, 258, 500, 512, 768, 1024, 1028, 1030)}
        assert sizes == {128: [], 250: [], 256: [128], 258: [128, 256], 500: [128, 256],
                         512: [128, 256], 768: [128, 256], 1024: [128, 256],
                         1028: [128, 256], 1030: [128, 256]}

    def test_matches_fine_path(self):
        cfg = SolverConfig()
        for seed in range(3):
            for i, (n, kind, p, q) in enumerate(SOLVE_LARGE_CASES):
                f = gen_f(kind, 2.0, np.random.SeedSequence([seed, 0, i]), Grid(n))
                params = ProblemParams(p, q, f, lam=2.0)
                rep = solve(params, config=cfg)
                assert rep.converged and len(rep.levels) > 1, (seed, n, kind)
                assert rep.iterations == len(rep.trace) == sum(s for _, s in rep.levels)
                sup = float(np.max(np.abs(residual(rep.body, params).values)))
                assert sup == rep.residual_sup <= cfg.newton_tol
                h_ref = _continued(params, cfg=cfg)[0]
                gap = np.max(np.abs(rep.body.values - h_ref))
                assert gap <= 1e-11 * np.max(h_ref), (seed, n, kind, gap)

    @pytest.mark.parametrize("n, kind, seed", [(500, "trig", 0), (768, "bump", 0),
                                               (1030, "bump", 2)])
    def test_two_levels_at_any_even_size(self, n, kind, seed):
        # one coarse level at n = 128 wherever n >= 2 COARSE_N, whether or
        # not n halves down to it: 500 and 768 used to bottom out at 250 and
        # 192, and 1030 was solved on the full grid alone
        cfg = SolverConfig()
        params = _params(0.5, 3.0, Grid(n), seed, kind=kind)
        rep = solve(params, config=cfg)
        k, j = rep.levels[0][1], rep.levels[-1][1]
        assert rep.converged and rep.levels == [(128, k), (n, j)], rep.levels
        h_ref = _continued(params, cfg=cfg)[0]
        gap = np.max(np.abs(rep.body.values - h_ref))
        assert gap <= 1e-11 * np.max(h_ref), gap

    def test_small_grid_and_explicit_initial_unchanged(self):
        cfg = SolverConfig()
        params = _params(0.5, 3.0, Grid(128), seed=4)
        rep = solve(params)
        _same_report(rep, *_continued(params, cfg=cfg))
        assert rep.levels == [(128, rep.iterations)] and rep.level_gap is None
        g = Grid(512)
        params = _params(0.5, 3.0, g, seed=4)
        start = disk(g, 1.1)
        rep = solve(params, initial=start)
        trace = []
        state, res_sup = solver._newton_stage(solver._state(start.values, g),
                                              params.f.values, 0.5, 3.0, cfg, trace, 1.0)
        _same_report(rep, state.values, trace, [len(trace)], res_sup)
        assert rep.levels == [(512, rep.iterations)] and rep.level_gap is None

    @pytest.mark.parametrize("how", ["raises", "unconverged"])
    def test_failed_level_falls_back(self, monkeypatch, how):
        params = _params(0.5, 3.0, Grid(512), seed=2)
        real = solver._newton_stage
        polished = []

        def failing_polish(state, f, p, q, cfg, trace, t_label,
                           linear_solve=solver._dense_step):
            if state.grid.n_points < 512 or polished:
                return real(state, f, p, q, cfg, trace, t_label, linear_solve)
            # one polish step, then the fine level gives up: it raises, or
            # reports a residual above the tolerance
            polished.append(state.grid)
            state, _ = real(state, f, p, q, SolverConfig(newton_tol=1e-17, max_newton=1),
                            trace, t_label, linear_solve)
            if how == "raises":
                raise StagnationError("forced", trace=trace)
            return state, 2.0 * cfg.newton_tol

        monkeypatch.setattr(solver, "_newton_stage", failing_polish)
        rep = solve(params)
        monkeypatch.undo()
        # the sequence from n = 128 is abandoned at n = 512; solve runs it
        # again from n = 256, whose n = 512 polish succeeds
        attempt = solve(ProblemParams(0.5, 3.0, restrict(params.f, Grid(128))))
        trace, stages, levels = [], [], []
        state, res_sup, gap = solver._sequenced(params, SolverConfig(), Grid(256),
                                                trace, stages, levels)
        h_ref = state.values
        abandoned = len(rep.trace) - len(trace)
        assert rep.converged and rep.level_gap == gap
        assert rep.levels[:2] == [(128, attempt.iterations), (512, 1)]
        assert rep.levels[2:] == levels
        assert abandoned == sum(steps for _, steps in rep.levels[:2])
        assert rep.trace[:attempt.iterations] == attempt.trace
        assert rep.trace[abandoned:] == trace and rep.stage_iterations[-len(stages):] == stages
        assert rep.iterations == len(rep.trace) == sum(rep.stage_iterations)
        assert rep.residual_sup == res_sup and np.array_equal(rep.body.values, h_ref)

    def test_gmres_miss_falls_back(self, monkeypatch):
        # GMRES cut to one cycle of three iterations misses its tolerance;
        # each polish raises, naming the count and the residual reached, so
        # solve falls back from the sequence from n = 128 to the one from
        # n = 256, and from that to the full grid
        params = _params(0.5, 3.0, Grid(512), seed=1, kind="bump")
        fine = Grid(512)
        attempt = solve(ProblemParams(0.5, 3.0, restrict(params.f, Grid(128))))
        coarse_params = ProblemParams(0.5, 3.0, restrict(params.f, Grid(256)))
        h_coarse, coarse_trace, _, _ = _continued(coarse_params)
        monkeypatch.setattr(solver, "KRYLOV_RESTART", 3)
        monkeypatch.setattr(solver, "KRYLOV_CYCLES", 1)
        start = solver._state(resample(PeriodicSamples(h_coarse, Grid(256)), fine).values,
                              fine, validate=False)
        r = residual(start, params).values
        counts = []
        with pytest.raises(SingularJacobianError,
                           match=r"GMRES reached relative residual \d\.\d\de-\d\d"
                                 r" after 3 iterations"):
            solver._krylov_step(start, r, 0.5, 3.0, counts)
        assert counts == [3]
        rep = solve(params)
        monkeypatch.undo()
        h_fine, fine_trace, _, _ = _continued(params)
        assert rep.converged and rep.level_gap is None and rep.krylov_iterations == 6
        assert rep.levels == [(128, attempt.iterations), (512, 0), (256, len(coarse_trace)),
                              (512, 0), (512, len(fine_trace))]
        assert np.array_equal(rep.body.values, h_fine)

    def test_under_resolved_coarse_answer_fails_its_polish(self):
        # lambda = 5 trig data at (0.5, 2): the n = 128 and n = 256 answers
        # converge, but each n = 512 polish fails its preconditioner check
        # before a GMRES iteration, in 0 steps, so solve ends on the full grid
        params = _params(0.5, 2.0, Grid(512), seed=4, lam=5.0)
        rep = solve(params)
        h_fine, fine_trace, _, _ = _continued(params)
        assert rep.converged and rep.level_gap is None and rep.krylov_iterations == 0
        assert rep.levels == [(128, 14), (512, 0), (256, 15), (512, 0), (512, 16)]
        assert rep.trace[-16:] == fine_trace
        assert np.array_equal(rep.body.values, h_fine)

    def test_nonpositive_polish_start_is_named(self):
        # the same case: the n = 128 answer (min h 1.2e-3) prolongs to a start
        # that dips below zero, and the polish's error says so before naming
        # the preconditioner check that this start fails
        params = _params(0.5, 2.0, Grid(512), seed=4, lam=5.0)
        coarse = solve(ProblemParams(0.5, 2.0, restrict(params.f, Grid(128))))
        assert coarse.levels == [(128, 14)] and coarse.min_h > 1e-3
        start = solver._state(resample(coarse.body.h, Grid(512)).values, Grid(512),
                              validate=False)
        r = residual(start, params).values
        with pytest.raises(SingularJacobianError,
                           match=r"^Newton state min h -7\.67\de-03 <= 0 at theta = 0\.269981;"
                                 r" leading Jacobian coefficient min 0\.00e\+00 is not positive$"):
            solver._krylov_step(start, r, 0.5, 2.0, [])

    def test_prolonged_n256_answer_polishes(self):
        # a solve-large timed case whose n = 256 answer has a tail ratio near
        # 1.3e-5: its n = 512 polish converges, to the body dense Newton
        # reaches from the same prolonged start
        f = gen_f("piecewise", 2.0, np.random.SeedSequence([1406, 59, 2]), Grid(512))
        params = ProblemParams(0.5, 2.0, f, lam=2.0)
        rep = solve(params)
        h_coarse = _continued(ProblemParams(0.5, 2.0, restrict(f, Grid(256))))[0]
        start = resample(PeriodicSamples(h_coarse, Grid(256)), Grid(512))
        ref = solve(params, initial=SupportFunction(start, validate=False))
        assert rep.converged and ref.converged
        assert [n for n, _ in rep.levels] == [128, 512, 256, 512]
        assert rep.level_gap is not None and rep.krylov_iterations > 0
        gap = np.max(np.abs(rep.body.values - ref.body.values))
        assert gap <= 1e-11 * np.max(ref.body.values), gap

    def test_n256_matches_fine_path(self, grid256):
        # criterion 7's first three trig samples, then the lambda = 2 slice
        # of the robustness matrix: each solves at n = 128 and polishes
        cfg = SolverConfig()
        cases = [(0.5, q, seed, "trig") for q in (2.0, 3.0)
                 for seed in harness._spawned(0, 3)]
        cases += [(p, q, seed, kind) for kind in ("trig", "bump", "piecewise")
                  for p, q in ((0.5, 2.0), (0.5, 3.0), (0.0, 2.0)) for seed in range(3)]
        for p, q, seed, kind in cases:
            params = _params(p, q, grid256, seed, kind=kind)
            rep = solve(params, config=cfg)
            assert rep.converged and [n for n, _ in rep.levels] == [128, 256], (kind, p, q)
            h_ref = _continued(params, cfg=cfg)[0]
            gap = np.max(np.abs(rep.body.values - h_ref))
            assert gap <= 1e-11 * np.max(h_ref), (kind, p, q, seed, gap)

    def test_nonpositive_restricted_data_skip_the_sequence(self):
        # a tall one-sample spike rings below zero once truncated to n = 256 or 128
        g = Grid(512)
        vals = np.full(512, 1e-3)
        vals[100] = 10.0
        params = ProblemParams(0.5, 3.0, PeriodicSamples(vals, g))
        assert restrict(params.f, Grid(256)).values.min() < 0.0
        assert restrict(params.f, Grid(128)).values.min() < 0.0
        assert solver._level_grids(g) == [Grid(128), Grid(256)]
        for coarse in (Grid(128), Grid(256)):
            trace, stage_iterations, levels = [], [], []
            rep = solver._sequenced(params, SolverConfig(), coarse, trace,
                                    stage_iterations, levels)
            assert rep is None and trace == stage_iterations == levels == []


class TestResolution:
    # On these cases a tail ratio of 6.4e-10 or less came with a gap of at
    # most 2e-13 between the n = 256 and n = 512 solutions, and 1e-7 or more
    # with gaps of 8e-9 to 4e-8.
    UNDER_RESOLVED_TAIL = 1e-8

    def test_bump_q3_is_under_resolved_at_256(self, grid256):
        bump = solve(_params(0.5, 3.0, grid256, seed=1, kind="bump"))
        assert bump.tail_ratio > self.UNDER_RESOLVED_TAIL
        for seed in range(3):
            trig = solve(_params(0.5, 2.0, grid256, seed=seed))
            assert trig.tail_ratio < 1e-6 * self.UNDER_RESOLVED_TAIL
        # one level finer, the polish step moves the bump body by about
        # 1e-8 and leaves the trig body where it was
        bump = solve(_params(0.5, 3.0, Grid(512), seed=1, kind="bump"))
        trig = solve(_params(0.5, 2.0, Grid(512), seed=1))
        assert bump.level_gap > 1e-9 and trig.level_gap < 1e-12
        assert bump.levels[-1][1] >= 1 and trig.levels[-1][1] == 0


# Continuation-only failures per lambda on the matrix below, measured with the
# fixed ten-stage ramp from data 1 that solve used before it tried f directly.
CONTINUATION_ONLY_FAILURES = {2.0: 0, 5.0: 2, 20.0: 6}
# Bodies on which the direct and the continuation path both converge, to
# solutions more than 1e-8 apart (relative); (0.5, 2) solutions need not be
# unique this far from constant data.
KNOWN_DISAGREEMENTS = 2
# Cases of the matrix solved directly, which the disagreement check covers.
DIRECT_CASES = 62


def test_robustness_matrix(grid256):
    """Data kind x (p, q) x seed x lambda at n = 256; never shrink or re-seed."""
    failures = {lam: [] for lam in CONTINUATION_ONLY_FAILURES}
    direct, disagree = [], []
    for lam in CONTINUATION_ONLY_FAILURES:
        for kind in ("trig", "bump", "piecewise"):
            for p, q in ((0.5, 2.0), (0.5, 3.0), (0.0, 2.0)):
                for seed in range(3):
                    case = (lam, kind, p, q, seed)
                    params = ProblemParams(p, q, gen_f(kind, lam, seed, grid256), lam=lam)
                    try:
                        rep = solve(params)
                    except (StagnationError, SingularJacobianError):
                        failures[lam].append(case)
                        continue
                    if not rep.converged:
                        failures[lam].append(case)
                    elif all(entry[0] == 1.0 for entry in rep.trace):
                        # solved directly, on every grid level: would the
                        # continuation reach the same body?
                        direct.append(case)
                        h, h_ref = rep.body.values, _continued(params, 0.5)[0]
                        gap = float(np.max(np.abs(h - h_ref)) / np.max(h_ref))
                        if gap > 1e-8:
                            disagree.append((case, gap))
    print("robustness matrix failures:", failures)
    print("direct/continuation disagreements:", disagree, "of", len(direct), "checked")
    for lam, limit in CONTINUATION_ONLY_FAILURES.items():
        assert len(failures[lam]) <= limit, (lam, failures[lam])
    assert len(direct) >= DIRECT_CASES, len(direct)
    assert len(disagree) <= KNOWN_DISAGREEMENTS, disagree


# Pairs of converged bodies from the sequenced and the fine-grid path more
# than 1e-11 max h apart on the slice below; the largest gap measured is
# 2.4e-12 (bump, (0.5, 3)).
SEQUENCED_DISAGREEMENTS = 0


def test_robustness_matrix_n512():
    """The lambda = 2 slice of the matrix at n = 512, where solve is
    sequenced; never shrink or re-seed."""
    failures, disagree = [], []
    cfg = SolverConfig()
    grid = Grid(512)
    for kind in ("trig", "bump", "piecewise"):
        for p, q in ((0.5, 2.0), (0.5, 3.0), (0.0, 2.0)):
            for seed in range(3):
                case = (kind, p, q, seed)
                params = _params(p, q, grid, seed, kind=kind)
                try:
                    rep = solve(params)
                except (StagnationError, SingularJacobianError):
                    failures.append(case)
                    continue
                if not rep.converged:
                    failures.append(case)
                    continue
                try:
                    h_ref = _continued(params, cfg=cfg)[0]
                except (StagnationError, SingularJacobianError):
                    continue
                h = rep.body.values
                gap = float(np.max(np.abs(h - h_ref)) / np.max(h_ref))
                if gap > 1e-11:
                    disagree.append((case, gap))
    print("n = 512 failures:", failures)
    print("sequenced/fine disagreements:", disagree)
    assert not failures, failures
    assert len(disagree) <= SEQUENCED_DISAGREEMENTS, disagree
