import math

import numpy as np
import pytest

from heatloc.field import SparseMeasure, tensor_points
from heatloc.operators import (
    DualCertificate,
    MeasurementOperator,
    SampleSet,
    build_dictionary,
    certificate_eval,
    certificate_gradient,
    measure,
)


def make_op_1d(n_sensors=16, length=2 * math.pi, t=0.28):
    return MeasurementOperator(SampleSet.grid([np.arange(n_sensors) * (length / n_sensors)], [t]))


class TestSampleSet:
    def test_rejects_nonpositive_time(self):
        with pytest.raises(ValueError):
            SampleSet(np.zeros((1, 1)), np.array([0.0]))

    def test_time_major_stacking(self):
        ss = SampleSet.grid([[0.0, 1.0, 2.0]], [0.1, 0.2])
        np.testing.assert_allclose(ss.ts, [0.1, 0.1, 0.1, 0.2, 0.2, 0.2])
        np.testing.assert_allclose(ss.xs.ravel(), [0, 1, 2, 0, 1, 2])

    def test_grid_constructor(self):
        ax = np.array([0.0, 0.5, 1.0])
        ss = SampleSet.grid((ax, ax), 0.3)
        assert ss.d == 9 and ss.dim == 2
        assert len(ss.grid_axes) == 2
        for derived in ss.grid_axes:
            np.testing.assert_array_equal(derived, ax)

    def test_rejects_non_finite_samples(self):
        for xs, ts in (([[np.nan]], [0.1]), ([[np.inf]], [0.1]), ([[0.0]], [np.nan]), ([[0.0]], [np.inf])):
            with pytest.raises(ValueError, match="finite"):
                SampleSet(np.array(xs), np.array(ts))

    def test_tensor_structure_derived_without_grid(self):
        axes = (np.array([-1.0, 0.5, 2.0]), np.array([0.0, 0.25]))
        ss = SampleSet(tensor_points(axes), np.full(6, 0.3))
        assert len(ss.grid_axes) == 2
        for derived, ax in zip(ss.grid_axes, axes):
            np.testing.assert_array_equal(derived, ax)

    def test_no_tensor_structure(self):
        axes = (np.array([-1.0, 0.5, 2.0]), np.array([0.0, 0.25]))
        pts = tensor_points(axes)
        permuted = SampleSet(pts[[1, 0, 2, 3, 4, 5]], np.full(6, 0.3))
        unsorted = SampleSet(np.array([[0.5], [-1.0], [2.0]]), np.full(3, 0.3))
        two_times = SampleSet.grid([axes[0]], [0.3, 0.6])
        scattered = SampleSet(pts[:5], np.full(5, 0.3))  # a mesh with one node missing
        for ss in (permuted, unsorted, two_times, scattered):
            assert ss.grid_axes is None


class TestMeasure:
    def test_single_atom_at_sensor(self):
        op = make_op_1d()
        x0 = float(op.samples.xs[3, 0])
        mu = SparseMeasure.from_1d([x0], [1.0])
        b = measure(op, mu)
        assert b[3] == pytest.approx((4 * math.pi * 0.28) ** -0.5, rel=1e-15)

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
        r, t = x - op.samples.xs[5, 0], float(op.samples.ts[5])
        expected = (4 * math.pi * t) ** -0.5 * math.exp(-r * r / (2 * t))
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
            scale = np.linalg.norm(lam) * mu.tv_norm()
            assert abs(lhs - rhs) <= 1e-12 * max(scale, 1.0)

    @pytest.mark.parametrize("layout", ["grid_1d", "tensor_2d", "two_times_1d"])
    def test_derivatives_against_finite_differences(self, layout):
        # the closed-form gradient and Hessian, mixed term included, against
        # central differences of the value; the two-time set has per-sample t_i
        ax = np.linspace(-1.0, 1.0, 9)
        samples = {
            "grid_1d": SampleSet.grid([ax], 0.125),
            "tensor_2d": SampleSet.grid((ax, ax), 0.125),
            "two_times_1d": SampleSet.grid([ax], [0.05, 0.3]),
        }[layout]
        op = MeasurementOperator(samples)
        rng = np.random.default_rng(4)
        lam = rng.standard_normal(op.d)
        x = rng.uniform(-1, 1, (20, op.dim))
        value, grad, hess = DualCertificate(op, lam).derivatives(x)
        np.testing.assert_allclose(value, certificate_eval(op, lam, x), rtol=1e-13, atol=1e-13)
        np.testing.assert_array_equal(certificate_gradient(op, lam, x), grad)
        np.testing.assert_array_equal(hess, np.swapaxes(hess, 1, 2))

        def nu(*steps):
            return certificate_eval(op, lam, x + sum(steps))

        h = 1e-4
        e = h * np.eye(op.dim)
        for j in range(op.dim):
            fd = (nu(e[j]) - nu(-e[j])) / (2 * h)
            assert np.max(np.abs(grad[:, j] - fd)) <= 1e-6 * np.max(np.abs(grad))
            for k in range(op.dim):
                fd = (nu(e[j], e[k]) - nu(e[j], -e[k]) - nu(-e[j], e[k]) + nu(-e[j], -e[k])) / (4 * h * h)
                assert np.max(np.abs(hess[:, j, k] - fd)) <= 1e-5 * np.max(np.abs(hess))

    @pytest.mark.parametrize("dim", [1, 2])
    def test_mesh_evaluation_matches_direct(self, dim):
        rng = np.random.default_rng(5)
        ax = np.linspace(-1.0, 1.0, 7)
        op = MeasurementOperator(SampleSet.grid((ax,) * dim, 0.2))
        cert = DualCertificate(op, rng.standard_normal(op.d))
        mesh = [np.linspace(-1.2, 1.2, 11), np.linspace(-0.9, 0.9, 13)][:dim]
        mesh_vals = cert.on_mesh(mesh)
        direct = cert(tensor_points(mesh)).reshape([m.size for m in mesh])
        np.testing.assert_allclose(mesh_vals, direct, rtol=1e-12, atol=1e-14)

    @pytest.mark.parametrize("layout", ["tensor_2d_from_points", "two_times_1d", "unsorted_1d"])
    def test_mesh_evaluation_on_any_sample_set(self, layout):
        # separable on a derived tensor grid, point by point otherwise
        if layout == "tensor_2d_from_points":
            samples = SampleSet(tensor_points([np.linspace(-1.0, 1.0, 5), [-0.5, 0.5]]), np.full(10, 0.2))
        elif layout == "two_times_1d":
            samples = SampleSet.grid([np.linspace(-1.0, 1.0, 7)], [0.2, 0.5])
        else:
            samples = SampleSet(np.array([[0.3], [-0.8], [0.9], [-0.1]]), np.full(4, 0.2))
        assert (samples.grid_axes is not None) == (layout == "tensor_2d_from_points")
        rng = np.random.default_rng(7)
        cert = DualCertificate(MeasurementOperator(samples), rng.standard_normal(samples.d))
        mesh = [np.linspace(-1.2, 1.2, 11), np.linspace(-0.9, 0.9, 13)][: samples.dim]
        direct = cert(tensor_points(mesh)).reshape([m.size for m in mesh])
        np.testing.assert_allclose(cert.on_mesh(mesh), direct, rtol=1e-12, atol=1e-14)

    @pytest.mark.parametrize("dim", [1, 2])
    def test_gradient_bound_holds_on_dense_mesh(self, dim):
        rng = np.random.default_rng(6)
        ax = np.linspace(-1.0, 1.0, 9)
        op = MeasurementOperator(SampleSet.grid((ax,) * dim, 0.05))
        mesh = tensor_points([np.linspace(-1.5, 1.5, 2001 if dim == 1 else 241)] * dim)
        one = np.zeros(op.d)
        one[op.d // 2] = -2.5
        for weights in (rng.standard_normal(op.d), one):
            cert = DualCertificate(op, weights)
            grad = certificate_gradient(op, weights, mesh)
            observed = float(np.max(np.linalg.norm(grad, axis=1)))
            assert observed <= cert.gradient_bound()
        # one kernel reaches its bound on the circle |x - x_k| = sqrt(t)
        assert observed == pytest.approx(cert.gradient_bound(), rel=1e-3)


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
