import math

import numpy as np
import pytest

from heatloc.field import SparseMeasure
from heatloc.operators import (
    MeasurementOperator,
    SampleSet,
    build_dictionary,
    measure,
)
from heatloc.refinement import (
    CandidateGrid,
    RefinementConfig,
    recover_amplitudes,
    refine_grid,
    run_refinement,
    select_peaks_1d,
    select_peaks_2d,
)

from oracles import min_l1_equality_lp, min_norm_certificate


def reference_op_1d(rho=1.8125, n_sensors=16, length=2 * math.pi):
    tau = rho * (length / n_sensors) ** 2
    return MeasurementOperator(SampleSet.uniform_1d(n_sensors, length, [tau]))


class TestSelectPeaks1d:
    def test_single_run_midpoint(self):
        # one chain of atoms gives its mass-weighted centroid
        pos = np.array([0.36, 0.28, 0.30, 0.32, 0.34])
        coeffs = np.array([0.0, 0.0, 0.25, 0.5, 0.25])
        out = select_peaks_1d(pos, coeffs, width=0.05)
        np.testing.assert_allclose(out, [[0.32]])

    def test_two_runs_split_by_gap(self):
        # chains break where consecutive atoms are a width or more apart;
        # weights are coefficient magnitudes, whatever their sign
        pos = np.array([0.1, 0.12, 0.8, 0.82])
        coeffs = np.array([0.5, 0.5, -0.25, -0.75])
        out = select_peaks_1d(pos, coeffs, width=0.1)
        np.testing.assert_allclose(out, [[0.11], [0.815]])

    def test_chain_links_across_a_long_run(self):
        # single linkage: a run of close atoms chains end to end, even where
        # its extent exceeds the width
        pos = np.linspace(0.0, 0.6, 7)
        coeffs = np.ones(7)
        out = select_peaks_1d(pos, coeffs, width=0.15)
        np.testing.assert_allclose(out, [[0.3]])

    def test_light_chain_dropped(self):
        # a chain under 1e-3 of the l1 mass is dropped, one just above kept
        pos = np.array([1.0, 2.0, 3.0])
        out = select_peaks_1d(pos, np.array([1.0, 0.9e-3, 1.0]), width=0.5)
        np.testing.assert_allclose(out, [[1.0], [3.0]])
        out = select_peaks_1d(pos, np.array([1.0, 2.1e-3, 1.0]), width=0.5)
        np.testing.assert_allclose(out, [[1.0], [2.0], [3.0]])

    def test_empty_when_no_atoms(self):
        out = select_peaks_1d(np.linspace(0, 1, 10), np.zeros(10), 0.1)
        assert out.shape == (0, 1)

    def test_width_domain_checked(self):
        with pytest.raises(ValueError):
            select_peaks_1d(np.array([0.0]), np.array([1.0]), 0.0)


class TestSelectPeaks2d:
    def test_two_chains_give_two_centroids(self):
        pos = np.array([[1.0, 1.0], [1.1, 1.0], [3.0, 2.0], [3.0, 2.1], [3.1, 2.1]])
        coeffs = np.array([0.5, 0.5, 0.25, 0.25, 0.5])
        out = select_peaks_2d(pos, coeffs, width=0.2)
        np.testing.assert_allclose(out, [[1.05, 1.0], [3.05, 2.075]])

    def test_diagonal_run_chains_end_to_end(self):
        # neighbours 0.1*sqrt(2) apart link, though the run spans 0.85
        pos = np.stack([np.linspace(0.0, 0.6, 7)] * 2, axis=1)
        out = select_peaks_2d(pos, np.ones(7), width=0.15)
        np.testing.assert_allclose(out, [[0.3, 0.3]])
        out = select_peaks_2d(pos, np.ones(7), width=0.14)
        assert out.shape == (7, 2)

    def test_light_chain_dropped(self):
        pos = np.array([[1.0, 1.0], [2.0, 3.0], [3.0, 1.0]])
        out = select_peaks_2d(pos, np.array([1.0, 0.9e-3, 1.0]), width=0.5)
        np.testing.assert_allclose(out, [[1.0, 1.0], [3.0, 1.0]])

    def test_flat_and_column_positions_agree(self):
        pos = np.array([0.36, 0.28, 0.30, 0.8, 0.34, 0.82])
        coeffs = np.array([0.1, 0.0, 0.25, -0.3, 0.25, 0.7])
        flat = select_peaks_1d(pos, coeffs, width=0.05)
        column = select_peaks_1d(pos[:, None], coeffs, width=0.05)
        assert flat.shape == (2, 1)
        assert flat.tobytes() == column.tobytes()


class TestRefineGrid:
    def test_1d_inserts_half_spacing_neighbors(self):
        grid = CandidateGrid.uniform([0.0], [4.0], 4)  # points 0,1,2,3 spacing 1
        out = refine_grid(grid, np.array([[2.0]]))
        new = set(np.round(out.points.ravel(), 9)) - set(np.round(grid.points.ravel(), 9))
        assert new == {1.5, 2.5}
        assert out.spacing[list(out.points.ravel()).index(2.0)] == 0.5

    def test_2d_inserts_stencil(self):
        grid = CandidateGrid.uniform([0.0, 0.0], [4.0, 4.0], 4)
        out = refine_grid(grid, np.array([[2.0, 2.0]]))
        assert out.size == grid.size + 8

    def test_clipped_at_boundary(self):
        grid = CandidateGrid.uniform([0.0], [4.0], 4)
        out = refine_grid(grid, np.array([[0.0]]))
        assert out.points.min() >= 0.0
        new = set(np.round(out.points.ravel(), 9)) - set(np.round(grid.points.ravel(), 9))
        assert new == {0.5}  # the -0.5 candidate clips onto the existing 0.0

    def test_grids_are_nested(self):
        rng = np.random.default_rng(0)
        grid = CandidateGrid.uniform([0.0], [1.0], 8)
        for _ in range(4):
            old = {tuple(np.round(p, 9)) for p in grid.points}
            sel = grid.points[rng.choice(grid.size, 2, replace=False)]
            grid = refine_grid(grid, sel)
            new = {tuple(np.round(p, 9)) for p in grid.points}
            assert old <= new

    def test_no_duplicate_points(self):
        grid = CandidateGrid.uniform([0.0], [2 * math.pi], 16)
        rng = np.random.default_rng(1)
        for _ in range(6):
            sel = grid.points[rng.choice(grid.size, min(5, grid.size), replace=False)]
            grid = refine_grid(grid, sel)
        assert np.unique(np.round(grid.points, 9), axis=0).shape[0] == grid.size


class TestRecoverAmplitudes:
    def test_exact_support_noiseless(self):
        op = reference_op_1d()
        truth = SparseMeasure.from_1d([1.1, 3.0, 4.9], [1.0, -0.5, 2.0])
        b = measure(op, truth)
        est = recover_amplitudes(op, truth.positions, b)
        np.testing.assert_allclose(est.amplitudes, truth.amplitudes, rtol=1e-8)

    def test_zero_data_gives_zero_amplitudes(self):
        op = reference_op_1d()
        est = recover_amplitudes(op, np.array([[1.0], [2.0]]), np.zeros(op.d))
        np.testing.assert_array_equal(est.amplitudes, np.zeros(2))

    def test_empty_support_rejected(self):
        op = reference_op_1d()
        with pytest.raises(ValueError):
            recover_amplitudes(op, np.empty((0, 1)), np.zeros(op.d))

    def test_perturbed_support_with_spurious_atom(self):
        # amplitude errors shrink as the support perturbation shrinks, and a
        # far spurious atom receives negligible mass
        op = reference_op_1d()
        t = float(op.samples.ts[0])
        truth = SparseMeasure.from_1d([0.5, 3.2], [1.0, 0.7])
        b = measure(op, truth)
        spurious = 3.2 + 5.2 * math.sqrt(t)
        errs = []
        for delta in (1e-2, 1e-3, 1e-4):
            support = np.array([[0.5 + delta], [3.2 + delta], [spurious]])
            est = recover_amplitudes(op, support, b)
            err = np.linalg.norm(est.amplitudes[:2] - truth.amplitudes) / np.linalg.norm(
                truth.amplitudes
            )
            errs.append(err)
            if delta == 1e-4:
                assert err < 1e-2
                assert abs(est.amplitudes[2]) < 1e-2 * np.linalg.norm(truth.amplitudes)
        assert errs[0] > errs[1] > errs[2]


class TestRunRefinement:
    def test_single_on_grid_source(self):
        op = reference_op_1d()
        L = 2 * math.pi
        x0 = 5 * L / 16  # lies on the initial candidate grid
        truth = SparseMeasure.from_1d([x0], [1.0])
        b = measure(op, truth)
        cfg = RefinementConfig(lo=[0.0], hi=[L])
        res = run_refinement(op, b, cfg, noisy=False)
        # a dense-grid l1 oracle confirms the discrete problem localizes here
        grid = np.linspace(0, L, 512, endpoint=False).reshape(-1, 1)
        xlp = min_l1_equality_lp(build_dictionary(op, grid).entries, b)
        assert abs(grid[np.argmax(np.abs(xlp)), 0] - x0) < L / 256
        assert res.estimate.n_atoms == 1
        assert abs(res.estimate.positions[0, 0] - x0) < 1e-6
        assert abs(res.estimate.amplitudes[0] - 1.0) < 1e-6

    def test_three_sources_off_grid(self):
        op = reference_op_1d()
        L = 2 * math.pi
        truth = SparseMeasure.from_1d([1.3113, 3.0871, 5.0422], [1.0, 1.0, 1.0])
        b = measure(op, truth)
        res = run_refinement(op, b, RefinementConfig(lo=[0.0], hi=[L]), noisy=False)
        assert res.estimate.n_atoms == 3
        est = np.sort(res.estimate.positions.ravel())
        assert np.max(np.abs(est - truth.positions.ravel())) < 1e-3 * L

    def test_dual_objective_non_increasing_rounds(self):
        # nested grids shrink the dual feasible set, so the per-round dual
        # optimum cannot grow beyond the per-round solver accuracy
        op = reference_op_1d()
        truth = SparseMeasure.from_1d([1.3113, 3.0871, 5.0422], [1.0, 1.0, 1.0])
        b = measure(op, truth)
        res = run_refinement(op, b, RefinementConfig(lo=[0.0], hi=[2 * math.pi]), noisy=False)
        for prev, cur in zip(res.per_round, res.per_round[1:]):
            slack = max(1e-9, prev.duality_gap + cur.duality_gap)
            assert cur.dual_objective <= prev.dual_objective + slack

    def test_scaling_data_leaves_certificate_argmax_unchanged(self):
        # the dual constraint set is scale free, so the converged certificate
        # and in particular its near-1 region do not move when b is scaled;
        # that region is where the minimal-norm certificate touches 1, which
        # here is wider than the support {7, 23, 41}
        from heatloc.solvers import solve_l1_equality

        rng = np.random.default_rng(11)
        A = rng.standard_normal((12, 60))
        x0 = np.zeros(60)
        x0[[7, 23, 41]] = [1.0, -0.6, 1.4]
        b = A @ x0
        out1 = solve_l1_equality(A, b)
        out2 = solve_l1_equality(A, 3.7 * b)
        assert out1.converged and out2.converged
        nu1, nu2 = A.T @ out1.dual, A.T @ out2.dual
        set1 = set(np.nonzero(np.abs(nu1) >= 1 - 1e-8)[0])
        set2 = set(np.nonzero(np.abs(nu2) >= 1 - 1e-8)[0])
        support = [7, 23, 41]
        p0 = min_norm_certificate(A, support, np.sign(x0[support]))
        expected = set(np.nonzero(np.abs(A.T @ p0) >= 1 - 1e-8)[0])
        assert {7, 23, 41} < expected
        assert set1 == set2 == expected

    def test_scaling_data_keeps_pipeline_positions_close(self):
        op = reference_op_1d()
        L = 2 * math.pi
        truth = SparseMeasure.from_1d([1.3113, 3.0871, 5.0422], [1.0, 1.0, 1.0])
        b = measure(op, truth)
        cfg = RefinementConfig(lo=[0.0], hi=[L])
        res1 = run_refinement(op, b, cfg, noisy=False)
        res2 = run_refinement(op, 3.7 * b, cfg, noisy=False)
        p1 = np.sort(res1.estimate.positions.ravel())
        p2 = np.sort(res2.estimate.positions.ravel())
        assert p1.shape == p2.shape
        assert np.max(np.abs(p1 - p2)) < 1e-2 * L
        ratio = res2.estimate.amplitudes / res1.estimate.amplitudes
        np.testing.assert_allclose(ratio, 3.7, rtol=1e-2)

    def test_threshold_schedule_values(self):
        cfg = RefinementConfig(lo=[0.0], hi=[1.0])
        assert cfg.peak_threshold(1) == pytest.approx(0.875)
        assert cfg.peak_threshold(2) == pytest.approx(0.96875)

    def test_solver_nonconvergence_flagged_with_best_effort(self):
        from heatloc.solvers import SolverConfig

        op = reference_op_1d()
        truth = SparseMeasure.from_1d([1.3113, 3.0871, 5.0422], [1.0, 1.0, 1.0])
        b = measure(op, truth)
        # every round takes more than 5 path steps, so the cap binds
        cfg = RefinementConfig(
            lo=[0.0], hi=[2 * math.pi], max_rounds=4, solver=SolverConfig(max_iters=5)
        )
        res = run_refinement(op, b, cfg, noisy=False)
        assert not res.solver_all_converged
        assert any(not dg.solver_converged for dg in res.per_round)
        assert res.estimate.n_atoms >= 1  # best-effort result still produced

    def test_noisy_requires_lambda(self):
        op = reference_op_1d()
        b = np.ones(op.d)
        with pytest.raises(ValueError):
            run_refinement(op, b, RefinementConfig(lo=[0.0], hi=[2 * math.pi]), noisy=True)

    def test_data_length_checked(self):
        op = reference_op_1d()
        with pytest.raises(ValueError):
            run_refinement(
                op, np.ones(op.d + 1), RefinementConfig(lo=[0.0], hi=[2 * math.pi]), noisy=False
            )
