import math

import numpy as np
import pytest

from heatloc.baseline import Sl0Config, sl0_solve, sl0_solve_with_history, validate_rho
from heatloc.field import SparseMeasure, add_noise
from heatloc.operators import (
    MeasurementOperator,
    SampleSet,
    baseline_matrix,
    measure,
    rho_bounds,
)

from oracles import min_l1_equality_lp


class TestSl0Solve:
    def test_zero_data_fixed_point(self):
        rng = np.random.default_rng(0)
        A = rng.standard_normal((10, 30))
        np.testing.assert_array_equal(sl0_solve(A, np.zeros(10)), np.zeros(30))

    def test_recovers_sparse_signal_on_well_conditioned_matrix(self):
        for trial in range(5):
            rng = np.random.default_rng(10 + trial)
            A = rng.standard_normal((20, 40))
            x0 = np.zeros(40)
            idx = rng.choice(40, 2, replace=False)
            x0[idx] = rng.choice([-1.0, 1.0], 2) * rng.uniform(0.5, 2.0, 2)
            b = A @ x0
            x = sl0_solve(A, b, Sl0Config(sigma_min=1e-6 * 2 * np.max(np.abs(x0))))
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
        cfg = Sl0Config(inner_iters=3)
        x, history = sl0_solve_with_history(A, b, cfg)
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

    def test_config_validation(self):
        with pytest.raises(ValueError):
            Sl0Config(sigma_decrease=1.0)
        with pytest.raises(ValueError):
            Sl0Config(inner_iters=0)

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
        A = baseline_matrix(n_sensors, 1, P, tau, L / P, delta2)
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
        assert validate_rho(1.8125, bounds)
        assert not validate_rho(5 * 1.8125, bounds)

    def test_boundary_is_excluded(self):
        bounds = rho_bounds(16, 1)
        assert not validate_rho(bounds.rho_min, bounds)
        assert not validate_rho(bounds.rho_max, bounds)
