import math

import numpy as np
import pytest

from heatloc.field import SparseMeasure, green_kernel, KernelParams, tv_norm
from heatloc.operators import (
    DualCertificate,
    MeasurementOperator,
    SampleSet,
    baseline_matrix,
    build_dictionary,
    certificate_eval,
    certificate_gradient,
    measure,
    rho_bounds,
)


def make_op_1d(n_sensors=16, length=2 * math.pi, t=0.28):
    return MeasurementOperator(SampleSet.uniform_1d(n_sensors, length, [t]))


class TestSampleSet:
    def test_rejects_nonpositive_time(self):
        with pytest.raises(ValueError):
            SampleSet(np.zeros((1, 1)), np.array([0.0]))

    def test_time_major_stacking(self):
        ss = SampleSet.uniform_1d(3, 3.0, [0.1, 0.2])
        np.testing.assert_allclose(ss.ts, [0.1, 0.1, 0.1, 0.2, 0.2, 0.2])
        np.testing.assert_allclose(ss.xs.ravel(), [0, 1, 2, 0, 1, 2])

    def test_grid_constructor(self):
        ax = np.array([0.0, 0.5, 1.0])
        ss = SampleSet.grid((ax, ax), 0.3)
        assert ss.d == 9 and ss.dim == 2
        assert ss.grid_axes is not None


class TestMeasure:
    def test_single_atom_at_sensor(self):
        op = make_op_1d()
        x0 = float(op.samples.xs[3, 0])
        mu = SparseMeasure.from_1d([x0], [1.0])
        b = measure(op, mu)
        assert b[3] == pytest.approx(green_kernel(0.0, 0.28, KernelParams(1)))

    def test_zero_measure(self):
        op = make_op_1d()
        np.testing.assert_array_equal(measure(op, SparseMeasure.empty(1)), np.zeros(op.d))

    def test_matches_dictionary_product_for_on_grid_sources(self):
        # the sampled field of an on-grid measure equals the dictionary
        # matrix-vector product with its coefficient vector
        L = 2 * math.pi
        op = make_op_1d(16, L, 1.8125 * (L / 16) ** 2)
        grid = (np.arange(128) * L / 128).reshape(-1, 1)
        A = build_dictionary(op, grid)
        c = np.zeros(128)
        c[[24, 60, 100]] = 1.0
        mu = SparseMeasure(grid[[24, 60, 100]], np.ones(3))
        np.testing.assert_allclose(A.entries @ c, measure(op, mu), atol=1e-12)


class TestCertificate:
    def test_unit_weight_reduces_to_kernel(self):
        op = make_op_1d()
        lam = np.zeros(op.d)
        lam[5] = 1.0
        x = 1.234
        expected = green_kernel(x - op.samples.xs[5, 0], float(op.samples.ts[5]), KernelParams(1))
        assert certificate_eval(op, lam, x) == pytest.approx(expected, rel=1e-14)

    def test_weight_length_checked(self):
        op = make_op_1d()
        with pytest.raises(ValueError):
            certificate_eval(op, np.ones(op.d + 1), 0.0)

    def test_wrong_point_dimension_rejected(self):
        op = make_op_1d()
        with pytest.raises(ValueError):
            certificate_eval(op, np.ones(op.d), np.zeros((5, 2)))
        with pytest.raises(ValueError):
            build_dictionary(op, np.zeros((5, 2)))

    def test_adjoint_identity(self):
        # <M mu, lam> equals sum_i c_i nu(p_i) for the induced certificate
        rng = np.random.default_rng(3)
        op = make_op_1d()
        for _ in range(200):
            k = int(rng.integers(1, 6))
            mu = SparseMeasure.from_1d(np.cumsum(rng.uniform(0.2, 1.0, k)), rng.standard_normal(k))
            lam = rng.standard_normal(op.d)
            lhs = float(measure(op, mu) @ lam)
            rhs = float(np.sum(mu.amplitudes * certificate_eval(op, lam, mu.positions)))
            scale = np.linalg.norm(lam) * tv_norm(mu)
            assert abs(lhs - rhs) <= 1e-12 * max(scale, 1.0)

    def test_gradient_against_finite_differences(self):
        rng = np.random.default_rng(4)
        ax = np.linspace(-1.0, 1.0, 9)
        op = MeasurementOperator(SampleSet.grid((ax, ax), 0.125))
        lam = rng.standard_normal(op.d)
        h = 1e-6
        for _ in range(20):
            x = rng.uniform(-1, 1, 2)
            g = certificate_gradient(op, lam, x)
            fd = np.empty(2)
            for j in range(2):
                e = np.zeros(2)
                e[j] = h
                fd[j] = (certificate_eval(op, lam, x + e) - certificate_eval(op, lam, x - e)) / (2 * h)
            assert np.max(np.abs(g - fd)) <= 1e-5 * max(1.0, np.max(np.abs(fd)))

    def test_mesh_evaluation_matches_direct(self):
        rng = np.random.default_rng(5)
        ax = np.linspace(-1.0, 1.0, 7)
        op = MeasurementOperator(SampleSet.grid((ax, ax), 0.2))
        cert = DualCertificate(op, rng.standard_normal(op.d))
        mx = np.linspace(-1.2, 1.2, 11)
        my = np.linspace(-0.9, 0.9, 13)
        mesh_vals = cert.on_mesh((mx, my))
        xx, yy = np.meshgrid(mx, my, indexing="ij")
        direct = cert(np.stack([xx.ravel(), yy.ravel()], axis=-1)).reshape(11, 13)
        np.testing.assert_allclose(mesh_vals, direct, rtol=1e-12, atol=1e-14)


class TestDictionary:
    def test_single_column(self):
        op = make_op_1d()
        q = np.array([[1.7]])
        A = build_dictionary(op, q)
        np.testing.assert_allclose(A.entries[:, 0], measure(op, SparseMeasure(q, [1.0])))

    def test_shape_for_reference_scenario(self):
        L = 2 * math.pi
        op = make_op_1d(16, L, 0.28)
        grid = (np.arange(128) * L / 128).reshape(-1, 1)
        assert build_dictionary(op, grid).shape == (16, 128)

    def test_columns_match_unit_atoms(self):
        rng = np.random.default_rng(6)
        op = make_op_1d(8, 5.0, 0.4)
        pts = rng.uniform(0, 5, size=(11, 1))
        A = build_dictionary(op, pts)
        for j in range(11):
            e = np.zeros(11)
            e[j] = 1.0
            np.testing.assert_array_equal(A.entries @ e, A.entries[:, j])
            np.testing.assert_allclose(
                A.entries[:, j], measure(op, SparseMeasure(pts[j : j + 1], [1.0])), atol=0
            )

    def test_positive_entries_and_norm_bound(self):
        op = make_op_1d(8, 5.0, 0.4)
        pts = np.linspace(0, 5, 17).reshape(-1, 1)
        A = build_dictionary(op, pts)
        assert np.all(A.entries > 0)
        bound = op.d * (4 * math.pi * 0.4) ** -0.5
        assert np.all(np.linalg.norm(A.entries, axis=0) <= bound)

    def test_adjacent_column_coherence_grows_as_grid_refines(self):
        lam = 0.05
        coh = []
        for m in (4, 8, 16):
            ax = np.arange(-m, m + 1) / m
            op = MeasurementOperator(SampleSet.grid((ax,), 2 * lam))
            grid = (np.arange(-2 * m, 2 * m + 1) / (2 * m)).reshape(-1, 1)
            A = build_dictionary(op, grid)
            cols = A.entries / np.linalg.norm(A.entries, axis=0)
            mid = cols.shape[1] // 2
            coh.append(float(cols[:, mid] @ cols[:, mid + 1]))
        assert coh[0] < coh[1] < coh[2] < 1.0


class TestBaselineMatrix:
    def test_zero_displacement_entry(self):
        A = baseline_matrix(4, 1, 4, tau=0.3, delta1=0.5, delta2=0.5)
        assert A.entries[0, 0] == pytest.approx((4 * math.pi * 0.3) ** -0.5)

    def test_stacked_shape(self):
        A = baseline_matrix(16, 3, 128, tau=0.2, delta1=0.1, delta2=0.4)
        assert A.shape == (48, 128)

    def test_symmetric_toeplitz_when_grids_match(self):
        A = baseline_matrix(6, 1, 6, tau=0.7, delta1=0.3, delta2=0.3).entries
        for k in range(6):
            diag = np.diagonal(A, offset=k)
            assert np.ptp(diag) == 0.0
            np.testing.assert_array_equal(diag, np.diagonal(A, offset=-k))

    def test_rejects_bad_arguments(self):
        with pytest.raises(ValueError):
            baseline_matrix(0, 1, 4, 0.1, 0.1, 0.1)
        with pytest.raises(ValueError):
            baseline_matrix(4, 1, 4, -0.1, 0.1, 0.1)


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
