import math
import pathlib

import numpy as np
import pytest

import heatloc.refinement as refinement
from heatloc.bench import load_config, load_configs, refinement_config, synthesize
from heatloc.field import SparseMeasure, kernel_peak, tensor_points
from heatloc.operators import (
    DualCertificate,
    MeasurementOperator,
    SampleSet,
    build_dictionary,
    certificate_eval,
    measure,
)
from heatloc.refinement import (
    _GAP_TOL,
    _MESH_PER_WIDTH,
    CandidateGrid,
    RefinementConfig,
    continuum_gap,
    default_peak_threshold,
    exchange_step,
    recover_amplitudes,
    refine_grid,
    run_refinement,
    select_peaks_1d,
    select_peaks_2d,
)

from heatloc.solvers import solve_l1_equality, solve_lasso

from oracles import (
    min_l1_equality_lp,
    min_norm_certificate,
    refine_grid_loop,
    refinement_cold_loop,
)

CONFIGS = pathlib.Path(__file__).resolve().parent.parent / "configs"


def reference_op_1d(rho=1.8125, n_sensors=16, length=2 * math.pi):
    tau = rho * (length / n_sensors) ** 2
    return MeasurementOperator(SampleSet.grid([np.arange(n_sensors) * (length / n_sensors)], [tau]))


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


def _mask(grid, indices):
    mask = np.zeros(grid.size, dtype=bool)
    mask[indices] = True
    return mask


class TestRefineGrid:
    def test_1d_inserts_half_spacing_neighbors(self):
        grid = CandidateGrid.uniform([0.0], [4.0], 4)  # points 0,1,2,3 spacing 1
        out = refine_grid(grid, grid.points[:, 0] == 2.0)
        new = set(np.round(out.points.ravel(), 9)) - set(np.round(grid.points.ravel(), 9))
        assert new == {1.5, 2.5}
        assert out.spacing[list(out.points.ravel()).index(2.0)] == 0.5

    def test_2d_inserts_stencil(self):
        grid = CandidateGrid.uniform([0.0, 0.0], [4.0, 4.0], 4)
        out = refine_grid(grid, np.all(grid.points == [2.0, 2.0], axis=1))
        assert out.size == grid.size + 8

    def test_clipped_at_boundary(self):
        grid = CandidateGrid.uniform([0.0], [4.0], 4)
        out = refine_grid(grid, grid.points[:, 0] == 0.0)
        assert out.points.min() >= 0.0
        new = set(np.round(out.points.ravel(), 9)) - set(np.round(grid.points.ravel(), 9))
        assert new == {0.5}  # the -0.5 candidate clips onto the existing 0.0

    def test_grids_are_nested(self):
        rng = np.random.default_rng(0)
        grid = CandidateGrid.uniform([0.0], [1.0], 8)
        for _ in range(4):
            old = {tuple(np.round(p, 9)) for p in grid.points}
            sel = rng.choice(grid.size, 2, replace=False)
            grid = refine_grid(grid, _mask(grid, sel))
            new = {tuple(np.round(p, 9)) for p in grid.points}
            assert old <= new

    def test_no_duplicate_points(self):
        grid = CandidateGrid.uniform([0.0], [2 * math.pi], 16)
        rng = np.random.default_rng(1)
        for _ in range(6):
            sel = rng.choice(grid.size, min(5, grid.size), replace=False)
            grid = refine_grid(grid, _mask(grid, sel))
        assert np.unique(np.round(grid.points, 9), axis=0).shape[0] == grid.size

    def test_selection_must_be_a_mask(self):
        # positions or indices in place of the mask are refused, not misread
        grid = CandidateGrid.uniform([0.0], [4.0], 4)
        for selected in (np.array([[2.0]]), np.array([2]), np.ones(3, dtype=bool), np.ones(4)):
            with pytest.raises(ValueError):
                refine_grid(grid, selected)

    def test_empty_mask_keeps_grid(self):
        grid = CandidateGrid.uniform([0.0, 0.0], [1.0, 1.0], 4)
        assert refine_grid(grid, np.zeros(grid.size, dtype=bool)) is grid

    @pytest.mark.parametrize(
        "lo, hi, n",
        [
            ([0.0], [2 * math.pi], 16),
            ([-1.3], [2.7], 9),
            ([0.0, 0.0], [1.0, 1.0], 8),
            ([-1.0, 0.5], [2.0, 3.5], 7),
        ],
    )
    def test_matches_loop_oracle(self, lo, hi, n):
        # random refine sequences give the same bytes as the one-point-at-a-time rule
        rng = np.random.default_rng(len(lo) * 100 + n)
        for _ in range(20):
            fast = slow = CandidateGrid.uniform(lo, hi, n)
            for _ in range(7):
                mask = _mask(fast, rng.choice(fast.size, rng.integers(1, 9), replace=False))
                mask |= rng.random(fast.size) < 0.02
                fast = refine_grid(fast, mask)
                slow = refine_grid_loop(slow, slow.points[mask])
                assert fast.points.tobytes() == slow.points.tobytes()
                assert fast.spacing.tobytes() == slow.spacing.tobytes()


class TestExchangeStep:
    def test_appends_only_points_the_refined_grid_does_not_reach(self):
        grid = CandidateGrid.uniform([0.0], [1.0], 4)  # 0, 0.25, 0.5, 0.75 at spacing 0.25
        selected = _mask(grid, [1])
        refined = refine_grid(grid, selected)  # adds 0.125 and 0.375, 0.25 now at 0.125
        # 0.26 lies within half a spacing of 0.25; 0.9 is 0.15 from 0.75,
        # more than half of that point's 0.25
        out = exchange_step(grid, selected, [[0.26], [0.9]])
        np.testing.assert_array_equal(out.points[: refined.size], refined.points)
        np.testing.assert_array_equal(out.spacing[: refined.size], refined.spacing)
        np.testing.assert_array_equal(out.points[refined.size:], [[0.9]])
        np.testing.assert_array_equal(out.spacing[refined.size:], [0.125])

    def test_no_points_is_refine_grid(self):
        grid = CandidateGrid.uniform([0.0, 0.0], [1.0, 1.0], 4)
        selected = _mask(grid, [5])
        out = exchange_step(grid, selected, np.empty((0, 2)))
        ref = refine_grid(grid, selected)
        np.testing.assert_array_equal(out.points, ref.points)
        np.testing.assert_array_equal(out.spacing, ref.spacing)


def bump_certificate(op, peaks: dict) -> DualCertificate:
    """Weights on single sensors, sensor index -> certificate value at that sensor's peak."""
    w = np.zeros(op.d)
    for i, value in peaks.items():
        w[i] = value / kernel_peak(op.samples.ts[i], op.dim)
    return DualCertificate(op, w)


class TestContinuumGap:
    """Two sensors' bumps, far enough apart that each peak is its sensor's to 1e-6."""

    def test_off_mesh_peak_of_scattered_samples(self):
        # unsorted sensors are no tensor layout: the mesh is evaluated point
        # by point; neither peak is a mesh node, so the Newton steps find 1.01
        op = MeasurementOperator(SampleSet(np.array([[4.321], [1.234]]), [0.3, 0.3]))
        assert op.samples.grid_axes is None
        cert = bump_certificate(op, {1: 1.01, 0: -0.5})
        gap, points = continuum_gap(cert, [0.0], [2 * math.pi], np.empty((0, 1)), np.empty(0))
        assert gap == pytest.approx(0.01, abs=1e-6)
        np.testing.assert_allclose(points, [[1.234]], rtol=0, atol=1e-6)

    def test_2d_peak_on_tensor_samples(self):
        op = MeasurementOperator(SampleSet.grid([np.arange(6) * 1.1] * 2, 0.3))
        # sensor 15 sits at (2.2, 3.3), sensor 25 at (4.4, 1.1); |nu| counts
        # either sign, so the 0.999 trough is the runner-up
        cert = bump_certificate(op, {15: 1.002, 25: -0.999})
        gap, points = continuum_gap(cert, [0.0, 0.0], [6.0, 6.0], np.empty((0, 2)), np.empty(0))
        assert gap == pytest.approx(0.002, abs=1e-6)
        np.testing.assert_allclose(points, [[2.2, 3.3]], rtol=0, atol=1e-6)
        # below 1 + _GAP_TOL everywhere: a negative gap and no points
        cert = bump_certificate(op, {15: 0.98, 25: -0.97})
        gap, points = continuum_gap(cert, [0.0, 0.0], [6.0, 6.0], np.empty((0, 2)), np.empty(0))
        assert gap == pytest.approx(-0.02, abs=1e-6)
        assert points.shape == (0, 2)


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

    def test_support_point_shapes(self):
        # a 1D support may be (P,) or (P, 1), as build_dictionary takes either
        op = reference_op_1d()
        truth = SparseMeasure.from_1d([1.1, 3.0, 4.9], [1.0, -0.5, 2.0])
        b = measure(op, truth)
        flat = recover_amplitudes(op, np.array([1.1, 3.0, 4.9]), b)
        column = recover_amplitudes(op, truth.positions, b)
        assert flat.positions.tobytes() == column.positions.tobytes()
        assert flat.amplitudes.tobytes() == column.amplitudes.tobytes()
        # a (P, 2) support in 2D keeps its points and its fit
        ax = np.linspace(0.0, 1.0, 6)
        op2 = MeasurementOperator(SampleSet.grid((ax, ax), 0.02))
        truth2 = SparseMeasure(np.array([[0.3, 0.6], [0.7, 0.2]]), [1.0, 0.5])
        est2 = recover_amplitudes(op2, truth2.positions, measure(op2, truth2))
        np.testing.assert_array_equal(est2.positions, truth2.positions)
        np.testing.assert_allclose(est2.amplitudes, truth2.amplitudes, rtol=1e-10)

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
        res = run_refinement(op, b, cfg)
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
        res = run_refinement(op, b, RefinementConfig(lo=[0.0], hi=[L]))
        assert res.estimate.n_atoms == 3
        est = np.sort(res.estimate.positions.ravel())
        assert np.max(np.abs(est - truth.positions.ravel())) < 1e-3 * L

    def test_dual_objective_non_increasing_rounds(self):
        # nested grids shrink the dual feasible set, so the per-round dual
        # optimum cannot grow beyond the per-round solver accuracy
        op = reference_op_1d()
        truth = SparseMeasure.from_1d([1.3113, 3.0871, 5.0422], [1.0, 1.0, 1.0])
        b = measure(op, truth)
        res = run_refinement(op, b, RefinementConfig(lo=[0.0], hi=[2 * math.pi]))
        for prev, cur in zip(res.per_round, res.per_round[1:]):
            slack = max(1e-9, prev.duality_gap + cur.duality_gap)
            assert cur.dual_objective <= prev.dual_objective + slack

    def test_scaling_data_leaves_certificate_argmax_unchanged(self):
        # the dual constraint set is scale free, so the converged certificate
        # and in particular its near-1 region do not move when b is scaled;
        # that region is where the minimal-norm certificate touches 1, which
        # here is wider than the support {7, 23, 41}
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
        res1 = run_refinement(op, b, cfg)
        res2 = run_refinement(op, 3.7 * b, cfg)
        p1 = np.sort(res1.estimate.positions.ravel())
        p2 = np.sort(res2.estimate.positions.ravel())
        assert p1.shape == p2.shape
        assert np.max(np.abs(p1 - p2)) < 1e-2 * L
        ratio = res2.estimate.amplitudes / res1.estimate.amplitudes
        np.testing.assert_allclose(ratio, 3.7, rtol=1e-2)

    def test_threshold_schedule_values(self):
        assert default_peak_threshold(1) == pytest.approx(0.875)
        assert default_peak_threshold(2) == pytest.approx(0.96875)

    def test_solver_nonconvergence_flagged_with_best_effort(self):
        from heatloc.solvers import SolverConfig

        op = reference_op_1d()
        truth = SparseMeasure.from_1d([1.3113, 3.0871, 5.0422], [1.0, 1.0, 1.0])
        b = measure(op, truth)
        # every round takes more than 5 path steps, so the cap binds
        cfg = RefinementConfig(
            lo=[0.0], hi=[2 * math.pi], max_rounds=4, solver=SolverConfig(max_iters=5)
        )
        res = run_refinement(op, b, cfg)
        assert not res.solver_all_converged
        assert any(not dg.solver_converged for dg in res.per_round)
        assert res.estimate.n_atoms >= 1  # best-effort result still produced

    def test_data_length_checked(self):
        op = reference_op_1d()
        with pytest.raises(ValueError):
            run_refinement(
                op, np.ones(op.d + 1), RefinementConfig(lo=[0.0], hi=[2 * math.pi])
            )


def scenario_inputs(cfg):
    """Operator, data and refinement config of a scenario, with its penalty resolved as bench does."""
    _, op, b = synthesize(cfg)
    return op, b, refinement_config(cfg, op, b)


def shipped_scenario(file: str, name: str):
    return next(c for c in load_configs(CONFIGS / file) if c.name == name)


def record_solves(monkeypatch, attr: str) -> list:
    """Replace ``refinement.<attr>`` by a spy that records each call's arguments."""
    calls = []
    real = getattr(refinement, attr)

    def spy(*args, **kwargs):
        calls.append((args, kwargs))
        return real(*args, **kwargs)

    monkeypatch.setattr(refinement, attr, spy)
    return calls


SHIPPED_NOISY = [("noisy_1d_40db.json", "noisy_1d_40db"), ("sweep_2d_snr.json", "snr30db")]
SHIPPED_NOISELESS = [
    ("noiseless_1d_on_grid.json", "noiseless_1d_on_grid"),
    ("noiseless_1d_off_grid.json", "noiseless_1d_off_grid"),
]


class TestWarmStartedRounds:
    """Appending columns and resuming the path change no round's outcome."""

    @pytest.mark.parametrize("file,name", SHIPPED_NOISY + SHIPPED_NOISELESS)
    def test_matches_cold_loop(self, file, name):
        op, b, rcfg = scenario_inputs(shipped_scenario(file, name))
        res = run_refinement(op, b, rcfg)
        per_round, ref = refinement_cold_loop(op, b, rcfg)
        assert [(dg.grid_size, dg.n_selected) for dg in res.per_round] == per_round
        assert res.solver_all_converged
        assert res.estimate.positions.shape == ref.positions.shape
        np.testing.assert_allclose(res.estimate.positions, ref.positions, rtol=0, atol=1e-9)
        np.testing.assert_allclose(res.estimate.amplitudes, ref.amplitudes, rtol=0, atol=1e-9)

    @pytest.mark.parametrize(
        "file,name,attr",
        [(f, n, "solve_lasso") for f, n in SHIPPED_NOISY]
        + [("noiseless_1d_off_grid.json", "noiseless_1d_off_grid", "solve_l1_equality")],
    )
    def test_appended_dictionary_equals_full_build(self, monkeypatch, file, name, attr):
        op, b, rcfg = scenario_inputs(shipped_scenario(file, name))
        calls = record_solves(monkeypatch, attr)
        res = run_refinement(op, b, rcfg)
        assert len(calls) == res.rounds > 1
        prev = np.empty((0, op.dim))
        for (args, _), dg in zip(calls, res.per_round):
            A = args[0]
            full = build_dictionary(op, A.points)
            assert A.shape[1] == dg.grid_size
            assert A.entries.tobytes() == full.entries.tobytes()
            np.testing.assert_array_equal(A.points[: prev.shape[0]], prev)
            prev = A.points
        np.testing.assert_array_equal(res.nu, A.entries.T @ res.last_outcome.dual)

    @pytest.mark.parametrize("file,name", SHIPPED_NOISELESS)
    def test_equality_rounds_resume_from_last_primal(self, monkeypatch, file, name):
        op, b, rcfg = scenario_inputs(shipped_scenario(file, name))
        calls = record_solves(monkeypatch, "solve_l1_equality")
        res = run_refinement(op, b, rcfg)
        starts = [kwargs["start"] for _, kwargs in calls]
        assert starts[0] is None and len(starts) == res.rounds > 1
        for (args, kwargs), start, dg in zip(calls[:-1], starts[1:], res.per_round[1:]):
            primal = solve_l1_equality(*args, **kwargs).primal
            np.testing.assert_array_equal(start, np.pad(primal, (0, dg.grid_size - primal.size)))

    def test_round_three_starts_inside_the_bound(self, monkeypatch):
        """8 sensors at 30 dB, round 3: the warm path beats the cold one.

        Columns whose correlation at the start exceeds the penalty start at
        z = 0, strictly inside the bound.  Started on the bound (z = +-1)
        here, the active set reaches the 8 rows within three steps, the rank
        guard drops the warm path, and the cold path reruns: more steps than
        the cold path alone.
        """
        L = 2 * math.pi
        cfg = load_config(
            dict(
                name="ref_8s_30db", dim=1, domain_lo=[0.0], domain_hi=[L], s=3,
                source_mode="explicit",
                source_positions=[[24 * L / 128], [60 * L / 128], [100 * L / 128]],
                n_sensors=8, snr_db=30.0, noise_seed=1,
                refinement={"lasso_lambda": "universal"},
            )
        )
        op, b, rcfg = scenario_inputs(cfg)
        calls = record_solves(monkeypatch, "solve_lasso")
        run_refinement(op, b, rcfg)
        (A, _, lam, scfg), kwargs = calls[2]
        start = kwargs["start"]
        assert np.any(np.abs(A.entries.T @ (b - A.entries @ start)) > lam)
        cold = solve_lasso(A, b, lam, scfg)
        warm = solve_lasso(A, b, lam, scfg, start=start)
        assert cold.converged and warm.converged
        assert warm.iterations < cold.iterations
        assert abs(warm.objective - cold.objective) <= 1e-12 * cold.objective


SHIPPED = [
    ("noiseless_1d_on_grid.json", "noiseless_1d_on_grid"),
    ("noiseless_1d_off_grid.json", "noiseless_1d_off_grid"),
    ("noisy_1d_40db.json", "noisy_1d_40db"),
    ("sweep_2d_snr.json", "snr00db"),
    ("sweep_2d_snr.json", "snr20db"),
    ("sweep_2d_snr.json", "snr30db"),
]


def _abs_certificate(cert: DualCertificate, pts: np.ndarray) -> np.ndarray:
    return np.concatenate([
        np.abs(certificate_eval(cert.op, cert.weights, pts[i:i + 20000]))
        for i in range(0, pts.shape[0], 20000)
    ])


def certified_max(cert: DualCertificate, lo, hi, h1: float, refine: int = 32):
    """``(m, a)``: max |nu| over [lo, hi] lies in [m, m + a].

    Curvature bound: along a unit direction u, each term of nu has
    d2/ds2 G = G * (r - 1) / t with r = (u . (x - x_i))**2 / t >= 0, and
    G <= G(0, t) * exp(-r / 2), so its modulus is at most G(0, t) / t
    (exp(-r / 2) * |r - 1| <= 1 for r >= 0).  Hence |d2 nu / ds2| <= C =
    sum_i |w_i| G(0, t_i) / t_i.  At the maximizer x* of |nu| the gradient
    along the box vanishes, so a mesh node y with |y - x*|_inf <= h / 2 has
    |nu(y)| >= max |nu| - C * dim * h**2 / 8.

    Level 1 is a tensor mesh of spacing at most h1.  x* lies in the box of
    half-width h1 / 2 around its nearest level-1 node, whose value is within
    a1 = C * dim * h1**2 / 8 of max |nu| and so of the level-1 maximum.
    Every such box is searched at spacing h1 / refine, giving
    a = C * dim * (h1 / refine)**2 / 8.
    """
    op = cert.op
    lo, hi = np.asarray(lo, float), np.asarray(hi, float)
    C = float(np.abs(cert.weights) @ (kernel_peak(op.samples.ts, op.dim) / op.samples.ts))
    axes = [np.linspace(l, h, int(math.ceil((h - l) / h1)) + 1) for l, h in zip(lo, hi)]
    h1 = max(float(a[1] - a[0]) for a in axes)
    nodes = tensor_points(axes)
    vals = _abs_certificate(cert, nodes)
    boxes = nodes[vals >= vals.max() - C * op.dim * h1**2 / 8]
    offsets = tensor_points([np.linspace(-0.5 * h1, 0.5 * h1, refine + 1)] * op.dim)
    fine = np.clip((boxes[:, None, :] + offsets[None, :, :]).reshape(-1, op.dim), lo, hi)
    return float(_abs_certificate(cert, fine).max()), C * op.dim * (h1 / refine) ** 2 / 8


class TestContinuumGapAtStop:
    """An independent check of the rule's gap on the shipped scenario configs."""

    @pytest.mark.parametrize("file,name", SHIPPED)
    def test_gap_within_tolerance_on_a_finer_mesh(self, file, name):
        cfg = shipped_scenario(file, name)
        op, b, rcfg = scenario_inputs(cfg)
        res = run_refinement(op, b, rcfg)
        assert res.stopped_by == "certificate_gap"
        assert res.continuum_gap <= _GAP_TOL
        # level 1 is 4x finer than the rule's mesh of sqrt(t) / _MESH_PER_WIDTH
        width = math.sqrt(float(np.min(op.samples.ts)))
        top, allowance = certified_max(res.certificate, rcfg.lo, rcfg.hi, width / (4 * _MESH_PER_WIDTH))
        assert allowance < 0.5 * _GAP_TOL
        # so max |nu| - 1 <= _GAP_TOL + allowance
        assert top - 1.0 <= _GAP_TOL
        # and the rule's gap is the true one, to within the allowance
        assert abs(res.continuum_gap - (top - 1.0)) <= allowance


class TestExchangeUnsticks:
    # the 2D draw k = 12 at 30 dB of perfbench's noisy_2d workload: a peak of
    # |nu| above 1 + _GAP_TOL near (5.14, 4.22) lies away from every grid
    # point that clears the selection threshold
    CFG = dict(
        name="k12_30db", dim=2, domain_lo=[0.0, 0.0], domain_hi=[2 * math.pi, 2 * math.pi], s=3,
        source_mode="explicit",
        source_positions=[[0.351409, 5.214099], [4.703621, 4.445934], [1.444956, 0.214676]],
        n_sensors=12, snr_db=30.0, noise_seed=12,
        refinement={"lasso_lambda": "universal", "max_rounds": 10,
                    "solver": {"max_iters": 50000, "tol_primal": 1e-7, "tol_dual": 1e-7}},
    )

    def test_exchange_step_lets_the_rule_fire(self, monkeypatch):
        op, b, rcfg = scenario_inputs(load_config(self.CFG))
        res = run_refinement(op, b, rcfg)
        assert res.stopped_by == "certificate_gap" and res.rounds < rcfg.max_rounds
        # threshold selection alone runs into the round cap
        monkeypatch.setattr(refinement, "exchange_step", lambda grid, sel, points: refine_grid(grid, sel))
        res = run_refinement(op, b, rcfg)
        assert res.stopped_by == "max_rounds"
        assert res.continuum_gap > _GAP_TOL
