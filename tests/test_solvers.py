import math

import numpy as np
import pytest

from heatloc import solvers
from heatloc.operators import MeasurementOperator, SampleSet, build_dictionary
from heatloc.solvers import SolverConfig, solve_l1_equality, solve_lasso

from oracles import (
    lasso_coordinate_descent,
    lasso_objective,
    lasso_path_recomputed,
    min_l1_equality_lp,
    next_breakpoint_where,
    warm_path_recomputed,
)


class TestL1Equality:
    def test_zero_data(self):
        out = solve_l1_equality(np.eye(4), np.zeros(4))
        assert out.converged
        np.testing.assert_array_equal(out.primal, np.zeros(4))
        np.testing.assert_array_equal(out.dual, np.zeros(4))
        assert out.kkt.duality_gap == 0.0

    def test_orthonormal_columns(self):
        rng = np.random.default_rng(2)
        Q, _ = np.linalg.qr(rng.standard_normal((10, 4)))
        b = 2.0 * Q[:, 2]
        out = solve_l1_equality(Q, b)
        expected = np.zeros(4)
        expected[2] = 2.0
        assert out.converged
        np.testing.assert_allclose(out.primal, expected, atol=1e-8)

    def test_matches_lp_oracle(self):
        for trial in range(8):
            rng = np.random.default_rng(100 + trial)
            A = rng.standard_normal((10, 30))
            x0 = np.zeros(30)
            idx = rng.choice(30, 2, replace=False)
            x0[idx] = rng.standard_normal(2)
            b = A @ x0
            out = solve_l1_equality(A, b)
            xlp = min_l1_equality_lp(A, b)
            assert out.converged
            assert np.max(np.abs(out.primal - xlp)) < 1e-6

    def test_kkt_residuals_at_convergence(self):
        rng = np.random.default_rng(3)
        A = rng.standard_normal((12, 40))
        x0 = np.zeros(40)
        x0[[4, 17, 33]] = [1.0, -2.0, 0.5]
        b = A @ x0
        cfg = SolverConfig()
        out = solve_l1_equality(A, b, cfg)
        assert out.converged
        assert out.kkt.feasibility <= cfg.tol_primal * max(1.0, np.linalg.norm(b))
        assert out.kkt.certificate_bound <= cfg.tol_dual
        assert out.kkt.duality_gap <= max(cfg.tol_primal, cfg.tol_dual) * max(1.0, out.objective)
        assert out.kkt.support_alignment <= 1e-5
        assert np.max(np.abs(A.T @ out.dual)) <= 1.0 + 1e-6

    def test_determinism(self):
        rng = np.random.default_rng(4)
        A = rng.standard_normal((8, 20))
        b = A @ np.eye(20)[3]
        out1 = solve_l1_equality(A, b)
        out2 = solve_l1_equality(A, b)
        np.testing.assert_array_equal(out1.primal, out2.primal)
        np.testing.assert_array_equal(out1.dual, out2.dual)
        assert out1.iterations == out2.iterations

    def test_iteration_cap_reports_nonconvergence(self):
        # the path reaches the equality penalty in 2 steps; a cap of 1 binds
        rng = np.random.default_rng(5)
        A = rng.standard_normal((10, 30))
        b = A @ (np.eye(30)[:, :2] @ [1.0, -1.0])
        full = solve_l1_equality(A, b)
        assert full.converged and full.iterations == 2
        out = solve_l1_equality(A, b, SolverConfig(max_iters=1))
        assert not out.converged
        assert out.iterations == 1
        assert out.kkt.feasibility > 1e-3 * np.linalg.norm(b)  # reported, not hidden

    def test_dense_data_gives_lp_solution(self):
        # dense data: the path's support spans the rows, so the primal is the
        # minimum-l1 interpolant and the feasible LASSO dual certifies it
        rng = np.random.default_rng(12)
        A = rng.standard_normal((12, 40))
        b = rng.standard_normal(12)
        out = solve_l1_equality(A, b)
        xlp = min_l1_equality_lp(A, b)
        assert out.converged
        assert np.max(np.abs(out.primal - xlp)) < 1e-6
        assert np.max(np.abs(A.T @ out.dual)) <= 1.0 + 1e-9
        assert out.kkt.duality_gap <= 1e-9 * max(1.0, out.objective)

    def test_infeasible_data_keeps_path_point(self):
        # more rows than columns: no interpolant exists, the primal stays the
        # path point at lam = 1e-6 max|A^T b| and the residual is reported
        rng = np.random.default_rng(14)
        A = rng.standard_normal((12, 5))
        b = rng.standard_normal(12)
        out = solve_l1_equality(A, b)
        lam = 1e-6 * np.max(np.abs(A.T @ b))
        assert out.converged
        np.testing.assert_allclose(A @ out.primal + lam * out.dual, b, atol=1e-12)
        assert out.kkt.feasibility == pytest.approx(np.linalg.norm(A @ out.primal - b))
        assert out.kkt.feasibility > 0.1 * np.linalg.norm(b)
        assert np.max(np.abs(A.T @ out.dual)) <= 1.0 + 1e-9

    def test_scale_free(self):
        rng = np.random.default_rng(13)
        A = rng.standard_normal((10, 30))
        b = A @ (np.eye(30)[:, [3, 20]] @ [1.0, -0.5])
        xlp = min_l1_equality_lp(A, b)
        for scale in (1e-6, 1.0, 1e6):
            out = solve_l1_equality(A, scale * b)
            assert out.converged
            np.testing.assert_allclose(out.primal, scale * xlp, atol=1e-9 * scale)


class TestLasso:
    def test_identity_soft_threshold(self):
        out = solve_lasso(np.eye(2), np.array([2.0, 0.5]), 1.0)
        assert out.converged
        np.testing.assert_allclose(out.primal, [1.0, 0.0], atol=1e-10)

    def test_null_solution_threshold(self):
        rng = np.random.default_rng(6)
        A = rng.standard_normal((8, 20))
        b = rng.standard_normal(8)
        lam_max = np.max(np.abs(A.T @ b))
        out = solve_lasso(A, b, lam_max)
        assert np.all(out.primal == 0.0)
        out2 = solve_lasso(A, b, 0.98 * lam_max)
        assert np.any(out2.primal != 0.0)

    def test_rejects_nonpositive_penalty(self):
        with pytest.raises(ValueError):
            solve_lasso(np.eye(2), np.ones(2), 0.0)

    def test_matches_coordinate_descent_oracle(self):
        for trial in range(8):
            rng = np.random.default_rng(200 + trial)
            A = rng.standard_normal((16, 64))
            b = rng.standard_normal(16)
            lam = 0.1
            out = solve_lasso(A, b, lam)
            xcd = lasso_coordinate_descent(A, b, lam)
            assert out.converged
            f_pd = lasso_objective(A, b, lam, out.primal)
            f_cd = lasso_objective(A, b, lam, xcd)
            assert abs(f_pd - f_cd) / f_cd < 1e-7

    def test_optimality_conditions_on_support(self):
        rng = np.random.default_rng(7)
        A = rng.standard_normal((16, 48))
        b = rng.standard_normal(16)
        lam = 0.5
        out = solve_lasso(A, b, lam)
        assert out.converged
        corr = A.T @ (b - A @ out.primal)
        supp = np.abs(out.primal) > 1e-10
        tol = 1e-6 * max(1.0, np.max(np.abs(corr)))
        np.testing.assert_allclose(corr[supp], lam * np.sign(out.primal[supp]), atol=tol)
        assert np.all(np.abs(corr[~supp]) <= lam + tol)
        # reported dual is the definitional residual rescaling
        np.testing.assert_allclose(out.dual, (b - A @ out.primal) / lam, atol=1e-14)
        assert np.max(np.abs(A.T @ out.dual)) <= 1.0 + 1e-6

    def test_step_cap_reports_nonconvergence(self):
        rng = np.random.default_rng(9)
        A = rng.standard_normal((16, 64))
        b = rng.standard_normal(16)
        full = solve_lasso(A, b, 0.1)
        assert full.converged and full.iterations > 2
        capped = solve_lasso(A, b, 0.1, SolverConfig(max_iters=2))
        assert not capped.converged
        assert capped.iterations == 2

    def test_determinism(self):
        rng = np.random.default_rng(8)
        A = rng.standard_normal((12, 30))
        b = rng.standard_normal(12)
        out1 = solve_lasso(A, b, 0.2)
        out2 = solve_lasso(A, b, 0.2)
        np.testing.assert_array_equal(out1.primal, out2.primal)
        assert out1.iterations == out2.iterations


def _kernel_instance(seed: int, d: int = 12, P: int = 80):
    """A refinement-like LASSO instance: heat-kernel columns, noisy data, lam = 5% of max|A^T b|."""
    rng = np.random.default_rng(seed)
    op = MeasurementOperator(SampleSet.grid([np.arange(d) * (2 * np.pi / d)], [0.25]))
    A = build_dictionary(op, np.sort(rng.uniform(0.0, 2 * np.pi, P))).entries
    b = A[:, rng.choice(P, 3, replace=False)] @ rng.uniform(0.5, 1.5, 3)
    b = b + 0.01 * np.linalg.norm(b) / np.sqrt(d) * rng.standard_normal(d)
    return A, b, 0.05 * float(np.max(np.abs(A.T @ b)))


class TestWarmStart:
    """``solve_lasso(..., start=x0)`` reaches the cold path's solution."""

    @staticmethod
    def assert_matches(A, b, lam, cold, warm):
        assert cold.converged and warm.converged
        assert abs(warm.objective - cold.objective) <= 1e-12 * cold.objective
        assert np.max(np.abs(A @ warm.primal - A @ cold.primal)) <= 1e-10
        corr = A.T @ (b - A @ warm.primal)
        supp = warm.primal != 0.0
        tol = 1e-9 * lam
        np.testing.assert_allclose(corr[supp], lam * np.sign(warm.primal[supp]), rtol=0, atol=tol)
        assert np.all(np.abs(corr) <= lam + tol)

    @pytest.mark.parametrize("seed", range(6))
    def test_matches_cold_from_nearby_starts(self, seed):
        A, b, lam = _kernel_instance(seed)
        cold = solve_lasso(A, b, lam)
        # the cold solution, and a coarser grid's solution padded with zeros
        coarse = np.arange(0, A.shape[1], 2)
        padded = np.zeros(A.shape[1])
        padded[coarse] = solve_lasso(A[:, coarse], b, lam).primal
        for start in (cold.primal, padded):
            self.assert_matches(A, b, lam, cold, solve_lasso(A, b, lam, start=start))
        assert solve_lasso(A, b, lam, start=cold.primal).iterations == 1

    @pytest.mark.parametrize("seed", range(6))
    def test_matches_cold_from_random_sparse_starts(self, seed):
        rng = np.random.default_rng(300 + seed)
        gaussian = (rng.standard_normal((16, 64)), rng.standard_normal(16), 0.1)
        for A, b, lam in (_kernel_instance(seed), gaussian):
            cold = solve_lasso(A, b, lam)
            start = np.zeros(A.shape[1])
            idx = rng.choice(A.shape[1], A.shape[0] // 2, replace=False)
            start[idx] = rng.standard_normal(idx.size)
            self.assert_matches(A, b, lam, cold, solve_lasso(A, b, lam, start=start))

    def test_start_with_more_than_d_nonzeros_falls_back(self):
        A, b, lam = _kernel_instance(0)
        cold = solve_lasso(A, b, lam)
        start = np.random.default_rng(1).standard_normal(A.shape[1])
        warm = solve_lasso(A, b, lam, start=start)
        self.assert_matches(A, b, lam, cold, warm)
        assert warm.iterations == cold.iterations  # the warm path took no step

    def test_step_cap_counts_both_paths(self):
        A, b, lam = _kernel_instance(2)
        start = np.zeros(A.shape[1])
        start[[5, 40]] = 1.0
        capped = solve_lasso(A, b, lam, SolverConfig(max_iters=1), start=start)
        assert not capped.converged
        assert capped.iterations == 2

    def test_start_shape_checked(self):
        with pytest.raises(ValueError):
            solve_lasso(np.eye(3), np.ones(3), 0.5, start=np.zeros(2))


class TestL1EqualityWarmStart:
    """``solve_l1_equality(..., start=x0)`` reaches the cold path's solution."""

    @staticmethod
    def instance(seed: int):
        rng = np.random.default_rng(400 + seed)
        A = rng.standard_normal((10, 30))
        x0 = np.zeros(30)
        x0[rng.choice(30, 3, replace=False)] = rng.standard_normal(3)
        return A, A @ x0

    @pytest.mark.parametrize("seed", range(6))
    def test_matches_lp_from_nearby_starts(self, seed):
        A, b = self.instance(seed)
        cold = solve_l1_equality(A, b)
        xlp = min_l1_equality_lp(A, b)
        # a coarser dictionary's solution padded with zeros, and the cold solution
        coarse = np.arange(0, A.shape[1], 2)
        padded = np.zeros(A.shape[1])
        padded[coarse] = solve_l1_equality(A[:, coarse], b).primal
        for start in (padded, cold.primal):
            warm = solve_l1_equality(A, b, start=start)
            assert cold.converged and warm.converged
            assert np.max(np.abs(warm.primal - xlp)) < 1e-6
            assert np.max(np.abs(A.T @ warm.dual)) <= 1.0 + 1e-9
        # the LASSO point at the equality penalty is one step from the end
        lam = 1e-6 * np.max(np.abs(A.T @ b))
        assert solve_l1_equality(A, b, start=solve_lasso(A, b, lam).primal).iterations == 1

    def test_start_with_more_than_d_nonzeros_falls_back(self):
        A, b = self.instance(0)
        cold = solve_l1_equality(A, b)
        warm = solve_l1_equality(A, b, start=np.ones(A.shape[1]))
        assert warm.converged
        np.testing.assert_array_equal(warm.primal, cold.primal)
        assert warm.iterations == cold.iterations  # the warm path took no step

    def test_start_shape_checked(self):
        with pytest.raises(ValueError):
            solve_l1_equality(np.eye(3), np.ones(3), start=np.zeros(2))


def _near_tie_instance(seed: int, P: int = 300):
    """Heat-kernel columns packed within 2e-3 of three centres, 16 sensors."""
    rng = np.random.default_rng(500 + seed)
    op = MeasurementOperator(SampleSet.grid([np.arange(16) * (2 * np.pi / 16)], [0.25]))
    centres = np.array([1.2, 3.0, 4.9])
    points = np.sort(np.repeat(centres, P // 3) + rng.uniform(-2e-3, 2e-3, P))
    A = build_dictionary(op, points).entries
    return A, A[:, rng.choice(P, 3, replace=False)] @ rng.uniform(0.5, 1.5, 3)


class TestPathKernel:
    """The path kernel finds the events of its first version and leaves numpy's error state as it was."""

    @staticmethod
    def compare_kernels(monkeypatch) -> list:
        """Make every path step check the kernel against the oracle; returns the events seen."""
        events = []
        real = solvers._next_breakpoint

        def both(*args):
            expected = next_breakpoint_where(*args)
            got = real(*args)
            assert got == expected
            events.append(got)
            return got

        monkeypatch.setattr(solvers, "_next_breakpoint", both)
        return events

    @pytest.mark.parametrize("seed", range(4))
    def test_same_events_on_random_instances(self, monkeypatch, seed):
        events = self.compare_kernels(monkeypatch)
        rng = np.random.default_rng(600 + seed)
        A, b, lam = _kernel_instance(seed)
        start = np.zeros(A.shape[1])
        start[rng.choice(A.shape[1], 4, replace=False)] = rng.standard_normal(4)
        solve_lasso(A, b, lam)
        solve_lasso(A, b, lam, start=start)
        G = rng.standard_normal((16, 64))
        solve_l1_equality(G, G[:, :3] @ [1.0, -2.0, 0.5])
        solvers._lasso_path(G, rng.standard_normal(16), 0.0, 1.5, 1000)  # an l1-ball path
        assert {join >= 0 for _, join, _ in events} == {True, False}
        assert any(leave >= 0 for _, _, leave in events)

    @pytest.mark.parametrize("seed", range(3))
    def test_same_events_on_near_ties(self, monkeypatch, seed):
        events = self.compare_kernels(monkeypatch)
        A, b = _near_tie_instance(seed)
        level = float(np.max(np.abs(A.T @ b)))
        cap = SolverConfig(max_iters=1000)
        for lam in (1e-4 * level, 1e-5 * level, 1e-6 * level):
            solve_lasso(A, b, lam, cap)
        solve_l1_equality(A, b, cap)
        assert len(events) > 100

    def test_same_events_on_drawn_arguments(self):
        # exact zero rates, bounds already crossed, coefficients on the wrong side
        rng = np.random.default_rng(7)
        with np.errstate(divide="ignore", invalid="ignore"):
            for _ in range(200):
                P, k = 40, 6
                q = rng.uniform(-1.2, 1.2, P)
                dbound = float(rng.choice([0.0, -1.0]))
                dq = rng.standard_normal(P)
                dq[rng.choice(P, 5)] = dbound
                dq[rng.choice(P, 5)] = -dbound
                active = rng.choice(P, k, replace=False).astype(np.intp)
                signs = rng.choice([-1.0, 1.0], k)
                x_act = rng.standard_normal(k)
                w = rng.standard_normal(k)
                w[rng.choice(k, 2)] = 0.0
                banned = int(rng.integers(-1, P))
                args = (q, dq, 1.0, dbound, active, signs, x_act, w, float(rng.uniform(0.1, 2.0)), banned, 1e-12)
                assert solvers._next_breakpoint(*args) == next_breakpoint_where(*args)

    @staticmethod
    def solve_all():
        A, b, lam = _kernel_instance(1)
        solve_lasso(A, b, lam)
        solve_lasso(A, b, lam, start=solve_lasso(A[:, ::2], b, lam).primal.repeat(2))
        solve_l1_equality(A, A[:, [10, 50]] @ [1.0, 0.5])
        solvers._lasso_path(A, b, 0.0, 1.0, 1000)  # an l1-ball path

    @pytest.mark.parametrize("state", [{}, {"divide": "raise", "invalid": "raise", "over": "print"}])
    def test_error_state_restored(self, state):
        with np.errstate(**state):
            before = np.geterr()
            self.solve_all()
            assert np.geterr() == before

    def test_error_state_restored_when_a_solve_raises(self, monkeypatch):
        real = solvers._gram_solve
        calls = []

        def failing(sub, rhs):
            calls.append(1)
            if len(calls) % 3 == 0:
                raise RuntimeError("injected")
            return real(sub, rhs)

        monkeypatch.setattr(solvers, "_gram_solve", failing)
        before = np.geterr()
        A, b, lam = _kernel_instance(1)
        for solve in (
            lambda: solve_lasso(A, b, lam),
            lambda: solve_lasso(A, b, lam, start=np.eye(A.shape[1])[3]),
            lambda: solve_l1_equality(A, b),
            lambda: solvers._lasso_path(A, b, 0.0, 1.0, 1000),
        ):
            calls.clear()
            with pytest.raises(RuntimeError, match="injected"):
                solve()
            assert np.geterr() == before


class TestCarriedCorrelations:
    """Paths that carry their correlations along each segment take the steps
    of paths that recompute them from x at every step."""

    @staticmethod
    def assert_same_path(monkeypatch, A, b, lam, radius=math.inf, start=None) -> list:
        """Same ``(join, leave)`` events, step count, stop and active set as the
        recomputing oracle, and an end point whose correlations agree with the
        oracle's to 1e-12 * max|A^T b|; returns the events."""
        events = []
        real = solvers._next_breakpoint

        def record(*args):
            out = real(*args)
            events.append(out[1:])
            return out

        with monkeypatch.context() as m:
            m.setattr(solvers, "_next_breakpoint", record)
            if start is None:
                x, active, steps, done = solvers._lasso_path(A, b, lam, radius, 1000)
                ref = lasso_path_recomputed(A, b, lam, radius, 1000)
            else:
                x, active, steps, done = solvers._warm_path(A, b, lam, start, 1000)
                ref = warm_path_recomputed(A, b, lam, start, 1000)
        x_ref, active_ref, steps_ref, done_ref, events_ref = ref
        assert events == events_ref
        assert (steps, done, list(active)) == (steps_ref, done_ref, list(active_ref))
        # correlations, not coefficients: near-tied columns leave x ill-conditioned
        level = float(np.max(np.abs(A.T @ b)))
        assert np.max(np.abs(A.T @ (A @ (x - x_ref)))) <= 1e-12 * level
        return events

    @pytest.mark.parametrize("seed", range(4))
    def test_same_path_on_random_instances(self, monkeypatch, seed):
        rng = np.random.default_rng(700 + seed)
        A, b = rng.standard_normal((16, 64)), rng.standard_normal(16)
        start = np.zeros(64)
        start[rng.choice(64, 8, replace=False)] = rng.standard_normal(8)
        exact = A[:, :3] @ [1.0, -2.0, 0.5]
        events = self.assert_same_path(monkeypatch, A, b, 0.1)
        events += self.assert_same_path(monkeypatch, A, b, 0.1, start=start)
        events += self.assert_same_path(monkeypatch, A, b, 0.0, radius=1.5)  # an l1-ball path
        events += self.assert_same_path(monkeypatch, A, exact, 1e-6 * np.max(np.abs(A.T @ exact)))
        assert any(leave >= 0 for _, leave in events)

    @pytest.mark.parametrize("seed", range(4))
    def test_same_path_on_heat_kernel_instances(self, monkeypatch, seed):
        A, b, lam = _kernel_instance(seed)
        rng = np.random.default_rng(600 + seed)
        start = np.zeros(A.shape[1])
        start[rng.choice(A.shape[1], 4, replace=False)] = rng.standard_normal(4)
        self.assert_same_path(monkeypatch, A, b, lam)
        self.assert_same_path(monkeypatch, A, b, lam, start=start)
        self.assert_same_path(monkeypatch, A, b, 1e-6 * np.max(np.abs(A.T @ b)))  # the equality penalty
        self.assert_same_path(monkeypatch, A, b, 0.0, radius=1.0)

    @pytest.mark.parametrize("seed", range(3))
    def test_same_path_on_near_ties(self, monkeypatch, seed):
        # the penalties at which no seed's path cycles: below them rounding
        # picks among tied columns, and the two paths may cycle differently
        A, b = _near_tie_instance(seed)
        level = float(np.max(np.abs(A.T @ b)))
        for lam in (1e-4 * level, 1e-5 * level):
            self.assert_same_path(monkeypatch, A, b, lam)


class TestSolverConfig:
    def test_validation(self):
        with pytest.raises(ValueError):
            SolverConfig(tol_primal=0.0)
        with pytest.raises(ValueError):
            SolverConfig(max_iters=0)
