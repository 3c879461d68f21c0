import math

import numpy as np
import pytest

from heatloc.certificates import (
    CertConfig,
    _bump,
    noisy_recovery_radius,
    recovery_radius,
    verify_soft_conditions,
    verify_soft_stable_inequality,
)
from heatloc.field import (
    SparseMeasure,
    add_noise,
    evaluate_field,
    kernel_matrix,
    kernel_peak,
    tensor_points,
)

from oracles import kernel_matrix_temporaries


def green(x, t):
    """G(x, t) at displacement(s) ``x`` of shape (n, dim), through the one kernel evaluator."""
    x = np.asarray(x, dtype=float)
    return kernel_matrix(x, t, np.zeros((1, x.shape[1])))[:, 0]


class TestGreenKernel:
    def test_zero_displacement_2d(self):
        assert green([[0.0, 0.0]], 0.5)[0] == pytest.approx(1 / (2 * math.pi), rel=1e-15)
        assert kernel_peak(0.5, 2) == pytest.approx(1 / (2 * math.pi), rel=1e-15)

    def test_zero_displacement_1d(self):
        assert green([[0.0]], 1.0)[0] == pytest.approx((4 * math.pi) ** -0.5, rel=1e-15)
        assert kernel_peak(1.0, 1) == pytest.approx((4 * math.pi) ** -0.5, rel=1e-15)

    def test_unit_exponent_1d(self):
        expected = (4 * math.pi) ** -0.5 * math.exp(-1.0)
        assert green([[math.sqrt(2.0)]], 1.0)[0] == pytest.approx(expected, rel=1e-12)

    def test_rejects_nonpositive_time(self):
        # the kernel itself does not check its time; the field synthesis does
        mu = SparseMeasure.from_1d([0.0], [1.0])
        with pytest.raises(ValueError):
            evaluate_field(mu, 0.0, 0.0)
        with pytest.raises(ValueError):
            evaluate_field(mu, 0.0, -1.0)

    def test_positive_and_symmetric(self):
        rng = np.random.default_rng(0)
        for dim in (1, 2):
            for _ in range(50):
                x = rng.standard_normal((1, dim)) * 3
                t = float(rng.uniform(0.05, 4.0))
                v = green(x, t)[0]
                assert 0 < v <= kernel_peak(t, dim)
                assert v == green(-x, t)[0]

    def test_peak_is_the_kernel_at_zero(self):
        # kernel_matrix's prefactor is kernel_peak's value, bit for bit, for
        # one time and for one time per row
        ts = np.array([0.05, 0.28, 1.0, 3.7])
        for dim in (1, 2):
            zero = np.zeros((ts.size, dim))
            np.testing.assert_array_equal(kernel_matrix(zero, ts, zero[:1])[:, 0], kernel_peak(ts, dim))
            for t in ts:
                assert green(zero[:1], float(t))[0] == kernel_peak(float(t), dim)

    @pytest.mark.parametrize("dim", [1, 2])
    def test_one_buffer_matches_fresh_temporaries(self, dim):
        # the in-place kernel runs the same operations in the same order, so
        # its bits are those of the expression of fresh temporaries
        rng = np.random.default_rng(5)
        xs = rng.uniform(-1.0, 1.0, (33, dim))
        for sensors in (xs, xs[:0]):
            for pts in (rng.uniform(-1.5, 1.5, (257, dim)), np.empty((0, dim))):
                for ts in (1 / 32, rng.uniform(0.01, 0.5, len(sensors))):
                    got = kernel_matrix(sensors, ts, pts)
                    want = kernel_matrix_temporaries(sensors, ts, pts)
                    assert got.shape == want.shape == (len(sensors), len(pts))
                    assert got.tobytes() == want.tobytes()

    def test_mass_matches_convention(self):
        # with the 2t exponent convention the total mass is 2**(-dim/2), not 1
        for dim, t in [(1, 0.7), (2, 0.3)]:
            half = 10.0 * math.sqrt(t)
            n = 4001
            axis = np.linspace(-half, half, n)
            w = np.gradient(axis)
            if dim == 1:
                integral = float(green(axis.reshape(-1, 1), t) @ w)
            else:
                vals = green(tensor_points([axis, axis]), t).reshape(n, n)
                integral = float(w @ vals @ w)
            assert integral == pytest.approx(2.0 ** (-dim / 2), abs=1e-8)


class TestSparseMeasure:
    def test_rejects_duplicate_positions(self):
        with pytest.raises(ValueError):
            SparseMeasure.from_1d([1.0, 1.0], [1.0, 2.0])

    def test_rejects_non_finite(self):
        with pytest.raises(ValueError):
            SparseMeasure.from_1d([np.inf], [1.0])
        with pytest.raises(ValueError):
            SparseMeasure.from_1d([0.0], [np.nan])

    def test_empty_measure(self):
        mu = SparseMeasure.empty(2)
        assert mu.n_atoms == 0 and mu.dim == 2 and mu.tv_norm() == 0.0


class TestEvaluateField:
    def test_single_atom_at_center(self):
        mu = SparseMeasure.from_1d([0.3], [1.0])
        assert evaluate_field(mu, 0.3, 1.0) == pytest.approx((4 * math.pi) ** -0.5)

    def test_empty_measure_is_zero(self):
        mu = SparseMeasure.empty(1)
        assert evaluate_field(mu, 0.2, 0.5) == 0.0
        assert np.all(evaluate_field(mu, np.linspace(0, 1, 7).reshape(-1, 1), 0.5) == 0.0)

    def test_two_atoms_against_quadrature_oracle(self):
        # smooth the atoms with a narrow Gaussian and convolve with the kernel
        # by a fine Riemann sum; the smoothing bias is far below the tolerance
        positions = [0.0, 2 * math.pi / 3]
        mu = SparseMeasure.from_1d(positions, [1.0, 1.0])
        t = 0.5
        x_eval = math.pi / 3
        eta = 1e-4
        grid = np.arange(-8.0, 8.0 + math.pi, 2e-5)
        density = sum(
            np.exp(-((grid - p) ** 2) / (2 * eta**2)) / (eta * math.sqrt(2 * math.pi))
            for p in positions
        )
        kernel = (4 * math.pi * t) ** -0.5 * np.exp(-((x_eval - grid) ** 2) / (2 * t))
        oracle = float(np.trapezoid(kernel * density, grid))
        value = evaluate_field(mu, x_eval, t)
        assert value == pytest.approx(oracle, rel=1e-6)

    def test_linearity(self):
        rng = np.random.default_rng(1)
        pos = rng.uniform(-2, 2, size=(4, 2))
        a1 = rng.standard_normal(4)
        a2 = rng.standard_normal(4)
        mu1 = SparseMeasure(pos, a1)
        mu2 = SparseMeasure(pos, a2)
        alpha, beta = 0.7, -1.3
        combo = SparseMeasure(pos, alpha * a1 + beta * a2)
        x = rng.uniform(-2, 2, size=(10, 2))
        lhs = evaluate_field(combo, x, 0.4)
        rhs = alpha * evaluate_field(mu1, x, 0.4) + beta * evaluate_field(mu2, x, 0.4)
        np.testing.assert_allclose(lhs, rhs, rtol=0, atol=1e-15)


class TestTvNorm:
    def test_examples(self):
        assert SparseMeasure.from_1d([0, 1, 2], [1.0, -2.0, 3.0]).tv_norm() == 6.0
        assert SparseMeasure.from_1d([0.5], [0.25]).tv_norm() == 0.25
        assert SparseMeasure.from_1d([1.0, 2.0, 3.0], [1.0, 1.0, 1.0]).tv_norm() == 3.0

    def test_norm_properties(self):
        rng = np.random.default_rng(2)
        for _ in range(30):
            n = int(rng.integers(1, 6))
            pos = np.cumsum(rng.uniform(0.1, 1.0, n))
            a1, a2 = rng.standard_normal(n), rng.standard_normal(n)
            mu1, mu2 = SparseMeasure.from_1d(pos, a1), SparseMeasure.from_1d(pos, a2)
            summed = SparseMeasure.from_1d(pos, a1 + a2)
            assert summed.tv_norm() <= mu1.tv_norm() + mu2.tv_norm() + 1e-12
            c = float(rng.standard_normal())
            assert SparseMeasure.from_1d(pos, c * a1).tv_norm() == pytest.approx(abs(c) * mu1.tv_norm())


class TestAutocorrelation:
    def test_examples(self):
        lam = 0.37
        assert _bump(0.0, lam) == 1.0
        assert _bump(4 * lam * math.log(2), lam) == pytest.approx(0.5, rel=1e-15)
        assert _bump(4 * lam, lam) == pytest.approx(math.exp(-1), rel=1e-15)

    def test_monotone_in_radius_and_width(self):
        radii = np.linspace(0.0, 3.0, 20)
        vals = _bump(radii**2, 0.2)
        assert np.all(np.diff(vals) < 0)
        for r in (0.5, 1.0):
            assert _bump(r * r, 0.1) < _bump(r * r, 0.2)

    def test_rejects_bad_width(self):
        # the bump evaluator trusts its width; the lab checks it where it enters
        mu = SparseMeasure(np.array([[0.1, -0.2]]), [1.0])
        for lam in (0.0, -0.1, math.nan, math.inf, True, 10**400):
            with pytest.raises(ValueError):
                CertConfig(lam=lam, m=8, p_jackson=2)
            with pytest.raises(ValueError):
                verify_soft_conditions(None, mu, 0, lam)
            with pytest.raises(ValueError):
                recovery_radius(0.5, 1.0, lam)
            with pytest.raises(ValueError):
                noisy_recovery_radius(0.5, 1.0, lam, 1.0, eps=0.0, rho=1.0)
            with pytest.raises(ValueError):
                verify_soft_stable_inequality(None, np.zeros(3), None, lam, 1.0, 0.0)

    def test_is_the_kernel_at_twice_the_width(self):
        # bump(x) = G(x, 2 lam) / G(0, 2 lam): the identity the certificate lab rests on
        rng = np.random.default_rng(8)
        for dim in (1, 2):
            for lam in (0.002, 1 / 16, 0.37):
                x = rng.standard_normal((40, dim)) * 3 * math.sqrt(lam)
                ratio = green(x, 2 * lam) / kernel_peak(2 * lam, dim)
                np.testing.assert_allclose(_bump(np.sum(x * x, axis=1), lam), ratio, rtol=1e-14, atol=0)


class TestAddNoise:
    def test_infinite_snr_identity(self):
        b = np.array([1.0, -2.0, 0.5])
        np.testing.assert_array_equal(add_noise(b, math.inf, 3), b)

    def test_deterministic(self):
        b = np.linspace(1, 2, 64)
        np.testing.assert_array_equal(add_noise(b, 20.0, 99), add_noise(b, 20.0, 99))
        assert not np.array_equal(add_noise(b, 20.0, 99), add_noise(b, 20.0, 100))

    def test_empirical_snr(self):
        rng = np.random.default_rng(7)
        b = rng.standard_normal(1024)
        sig = float(b @ b)
        noise_energy = 0.0
        for seed in range(100):
            e = add_noise(b, 40.0, seed) - b
            noise_energy += float(e @ e)
        snr_emp = 10 * math.log10(100 * sig / noise_energy)
        assert abs(snr_emp - 40.0) < 1.0

    def test_zero_signal_rejected(self):
        with pytest.raises(ValueError):
            add_noise(np.zeros(8), 10.0, 0)
