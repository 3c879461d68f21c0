import json
import math
import pathlib

import numpy as np
import pytest

from heatloc import baseline, bench
from heatloc.baseline import (
    baseline_estimate,
    baseline_matrix,
    rho_bounds,
    sl0_solve,
    sl0_solve_with_history,
)
from heatloc.field import SparseMeasure, add_noise
from heatloc.operators import MeasurementOperator, SampleSet, measure

from oracles import baseline_matrix_counts, min_l1_equality_lp

CONFIG = pathlib.Path(__file__).resolve().parent.parent / "configs" / "baseline_1d_40db_rho_violating.json"


def shipped_scenario(**overrides):
    """The shipped baseline scenario's config, operator and source grid."""
    cfg = bench.load_config(json.loads(CONFIG.read_text()) | overrides)
    lo, hi = cfg.domain_lo[0], cfg.domain_hi[0]
    sources = lo + np.arange(cfg.grid_size) * ((hi - lo) / cfg.grid_size)
    return cfg, bench.build_operator(cfg), sources


class TestBaselineMatrix:
    def test_zero_displacement_entry(self):
        A = baseline_matrix(SampleSet.grid([np.arange(4) * 0.5], [0.3]), np.arange(4) * 0.5)
        assert A.entries[0, 0] == pytest.approx((4 * math.pi * 0.3) ** -0.5)

    def test_stacked_shape(self):
        samples = SampleSet.grid([np.arange(16) * 0.4], 0.2 * np.arange(1, 4))
        A = baseline_matrix(samples, np.arange(128) * 0.1)
        assert A.shape == (48, 128)

    def test_symmetric_toeplitz_when_grids_match(self):
        A = baseline_matrix(SampleSet.grid([np.arange(6) * 0.3], [0.7]), np.arange(6) * 0.3).entries
        for k in range(6):
            diag = np.diagonal(A, offset=k)
            assert np.ptp(diag) == 0.0
            np.testing.assert_array_equal(diag, np.diagonal(A, offset=-k))

    def test_rejects_bad_arguments(self):
        # the sensor count and the times come from the sample set, which checks them
        with pytest.raises(ValueError, match="non-empty"):
            SampleSet.grid([np.arange(0) * 0.1], [0.1])
        with pytest.raises(ValueError, match="positive"):
            SampleSet.grid([np.arange(4) * 0.1], [-0.1])

    @pytest.mark.parametrize("n_times", [1, 3])
    def test_matches_count_and_spacing_matrix(self, n_times):
        # the scenario's own samples give the matrix the counts and spacings
        # gave, bit for bit, on the shipped geometry (domain_lo = 0)
        cfg, op, sources = shipped_scenario(n_times=n_times)
        L = cfg.domain_hi[0] - cfg.domain_lo[0]
        tau = float(op.samples.ts[0])
        A = baseline_matrix(op.samples, sources)
        old = baseline_matrix_counts(cfg.n_sensors, n_times, cfg.grid_size, tau, L / cfg.grid_size, L / cfg.n_sensors)
        np.testing.assert_array_equal(A.entries, old.entries)
        np.testing.assert_array_equal(A.points, old.points)

    @pytest.mark.parametrize("n_times", [1, 3])
    def test_shifted_domain_agrees_with_count_and_spacing_matrix(self, n_times):
        # at domain_lo != 0 the differences are taken in absolute coordinates,
        # not from 0, so only the last bits may move (8.6 ulp measured at lo = 1)
        cfg, op, sources = shipped_scenario(n_times=n_times, domain_lo=[1.0], domain_hi=[1.0 + 2 * math.pi])
        L = cfg.domain_hi[0] - cfg.domain_lo[0]
        tau = float(op.samples.ts[0])
        A = baseline_matrix(op.samples, sources)
        old = baseline_matrix_counts(cfg.n_sensors, n_times, cfg.grid_size, tau, L / cfg.grid_size, L / cfg.n_sensors)
        np.testing.assert_allclose(A.entries, old.entries, rtol=16 * np.finfo(float).eps, atol=0)
        np.testing.assert_array_equal(A.points, old.points + 1.0)


class TestBaselineEstimate:
    def test_positions_are_source_grid_points(self):
        cfg, op, sources = shipped_scenario()
        truth = bench.build_truth(cfg)
        b = add_noise(measure(op, truth), cfg.snr_db, cfg.noise_seed)
        est = baseline_estimate(op.samples, sources, b, cfg.s)
        assert est.n_atoms == cfg.s
        assert np.all(np.isin(est.positions[:, 0], sources))
        assert np.all(np.diff(est.positions[:, 0]) > 0)  # in grid order


class TestSl0Solve:
    def test_zero_data_fixed_point(self):
        rng = np.random.default_rng(0)
        A = rng.standard_normal((10, 30))
        np.testing.assert_array_equal(sl0_solve(A, np.zeros(10)), np.zeros(30))

    def test_recovers_sparse_signal_on_well_conditioned_matrix(self, monkeypatch):
        # a floor two decades below the default: at the default, the worst
        # error is 9.7e-5, too close to the 1e-4 bound to tell anything
        monkeypatch.setattr(baseline, "SIGMA_MIN_RATIO", 1e-6)
        for trial in range(5):
            rng = np.random.default_rng(10 + trial)
            A = rng.standard_normal((20, 40))
            x0 = np.zeros(40)
            idx = rng.choice(40, 2, replace=False)
            x0[idx] = rng.choice([-1.0, 1.0], 2) * rng.uniform(0.5, 2.0, 2)
            b = A @ x0
            x = sl0_solve(A, b)
            xlp = min_l1_equality_lp(A, b)
            assert set(np.nonzero(np.abs(x) > 1e-3)[0]) == set(idx)
            assert np.max(np.abs(x - x0)) < 1e-4
            assert np.max(np.abs(xlp - x0)) < 1e-8  # oracle agrees on this instance

    def test_feasibility_maintained_after_projections(self):
        rng = np.random.default_rng(3)
        A = rng.standard_normal((15, 45))
        x0 = np.zeros(45)
        x0[[3, 30]] = [1.0, -2.0]
        b = A @ x0
        x, history = sl0_solve_with_history(A, b)
        assert np.linalg.norm(A @ x - b) <= 1e-8 * np.linalg.norm(b)

    def test_surrogate_progress_within_each_stage(self):
        rng = np.random.default_rng(4)
        A = rng.standard_normal((20, 60))
        x0 = np.zeros(60)
        x0[[5, 25, 50]] = [1.0, 0.5, -1.5]
        b = A @ x0
        _, history = sl0_solve_with_history(A, b)
        assert history  # at least one annealing stage ran
        for stage in history:
            assert stage.surrogate_end <= stage.surrogate_start + 1e-10

    def test_support_agreement_with_l1_on_orthonormal_rows(self):
        rng = np.random.default_rng(5)
        Q, _ = np.linalg.qr(rng.standard_normal((30, 12)))
        A = Q.T  # orthonormal rows, 12 x 30
        x0 = np.zeros(30)
        x0[7] = 1.3
        b = A @ x0
        x = sl0_solve(A, b)
        xlp = min_l1_equality_lp(A, b)
        assert np.argmax(np.abs(x)) == np.argmax(np.abs(xlp)) == 7

    def test_rejects_tall_matrix(self):
        with pytest.raises(ValueError):
            sl0_solve(np.ones((5, 3)), np.ones(5))

    def test_rejects_zero_matrix(self):
        with pytest.raises(ValueError):
            sl0_solve(np.zeros((3, 5)), np.ones(3))

    def test_ill_conditioned_noisy_instance_fails_catastrophically(self):
        # the reference failure mode: a rho violating the validity bounds
        # makes the fixed-grid inversion blow up under mild noise
        L = 2 * math.pi
        n_sensors, P = 16, 128
        rho = 5 * rho_bounds(n_sensors, 1).midpoint
        delta2 = L / n_sensors
        tau = rho * delta2 * delta2
        truth = SparseMeasure.from_1d([24 * L / P, 60 * L / P, 100 * L / P], [1.0, 1.0, 1.0])
        op = MeasurementOperator(SampleSet.grid([np.arange(n_sensors) * (L / n_sensors)], [tau]))
        b = add_noise(measure(op, truth), 40.0, 1)
        A = baseline_matrix(op.samples, np.arange(P) * (L / P))
        x = sl0_solve(A, b)
        cell = L / P
        top = np.argsort(-np.abs(x))[:3]
        overshoot = np.max(np.abs(x))
        pos_err = max(
            min(abs(A.points[j, 0] - p) for j in top) for p in truth.positions.ravel()
        )
        assert overshoot >= 1e3 or pos_err > 10 * cell


class TestValidateRho:
    def test_reference_cases(self):
        bounds = rho_bounds(16, 1)
        assert 1.8125 in bounds
        assert 5 * 1.8125 not in bounds

    def test_boundary_is_excluded(self):
        bounds = rho_bounds(16, 1)
        assert bounds.rho_min not in bounds
        assert bounds.rho_max not in bounds


class TestRhoBounds:
    def test_reference_values(self):
        rb = rho_bounds(16, 1)
        assert rb.rho_min == 0.5
        assert rb.rho_max == pytest.approx(3.125)
        assert rb.midpoint == pytest.approx(1.8125)
        assert rb.valid

    def test_degenerate_interval_flagged(self):
        rb = rho_bounds(2, 1)
        assert rb.rho_min == 0.5 and rb.rho_max == pytest.approx(1 / 72)
        assert not rb.valid

    def test_rejects_single_sensor(self):
        with pytest.raises(ValueError):
            rho_bounds(1, 1)
