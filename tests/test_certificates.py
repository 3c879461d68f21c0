import math
import tracemalloc

import numpy as np
import pytest

from heatloc import certificates
from heatloc.certificates import (
    CertConfig,
    _jackson_multiplier,
    _sup_bump_error,
    build_certificate_g,
    calibrated_certificate,
    jackson_coefficients,
    noisy_recovery_radius,
    recovery_radius,
    smallest_feasible_m,
    verify_soft_conditions,
    verify_soft_stable_inequality,
)
from heatloc.field import SparseMeasure, add_noise, kernel_matrix, kernel_peak, tensor_points
from heatloc.operators import (
    DualCertificate,
    MeasurementOperator,
    SampleSet,
    build_dictionary,
    measure,
)
from heatloc.solvers import l1_ball_least_squares

from oracles import (
    jackson_multiplier_quadrature,
    lasso_coordinate_descent,
    lasso_objective,
    min_l1_equality_lp,
    on_mesh_whole,
    sup_bump_error_whole,
    wave_coeffs_quadrature,
)


def _jackson_from_multipliers(p, x):
    """The Jackson kernel (1/2pi) * sum_n m_p(n) exp(i n x), from the multipliers the code uses."""
    mult = _jackson_multiplier(p)
    n = np.arange(-2 * p, 2 * p + 1)
    return np.cos(np.multiply.outer(x, n)) @ mult / (2.0 * math.pi)


class TestJacksonKernel:
    @pytest.mark.parametrize("p", [4, 8, 16])
    def test_unit_integral(self, p):
        x = np.linspace(-math.pi, math.pi, 20001)
        vals = _jackson_from_multipliers(p, x)
        assert np.min(vals) >= -1e-12
        assert np.trapezoid(vals, x) == pytest.approx(1.0, abs=1e-9)

    def test_even(self):
        mult = _jackson_multiplier(5)
        np.testing.assert_array_equal(mult, mult[::-1])
        x = np.linspace(0.01, math.pi, 57)
        np.testing.assert_array_equal(_jackson_from_multipliers(5, x), _jackson_from_multipliers(5, -x))

    def test_continuous_extension_at_zero(self):
        # (sin(p x/2) / sin(x/2))**4 / (2 pi a0) tends to p**4 / (2 pi a0) at x = 0,
        # with a0 = p (2 p**2 + 1) / 3 its constant Fourier coefficient
        p = 6
        a0 = p * (2 * p * p + 1) / 3.0
        assert _jackson_from_multipliers(p, 0.0) == pytest.approx(p**4 / (2 * math.pi * a0), rel=1e-13)
        x = 0.3
        closed = (math.sin(p * x / 2) / math.sin(x / 2)) ** 4 / (2 * math.pi * a0)
        assert _jackson_from_multipliers(p, x) == pytest.approx(closed, rel=1e-12)

    def test_first_moment_decays(self):
        x = np.linspace(-math.pi, math.pi, 32769)
        m8 = np.trapezoid(np.abs(x) * _jackson_from_multipliers(8, x), x)
        m16 = np.trapezoid(np.abs(x) * _jackson_from_multipliers(16, x), x)
        assert m16 <= 0.6 * m8


class TestJacksonCoefficients:
    def test_zero_shift_is_identity(self):
        c = jackson_coefficients([0.0, 0.0], 4)
        dense = c.dense()
        center = dense[8, 8]
        assert abs(center - 1.0) <= 1e-10
        rest = np.abs(dense)
        rest[8, 8] = 0.0
        assert rest.max() <= 1e-10

    def test_norm_never_exceeds_one(self):
        rng = np.random.default_rng(0)
        for _ in range(20):
            delta = rng.uniform(-0.5, 0.5, 2)
            assert jackson_coefficients(delta, 8).norm <= 1.0 + 1e-8

    def test_plane_wave_error_halves_with_order(self):
        delta = (0.3, -0.2)

        def sup_err(p):
            co = jackson_coefficients(delta, p)
            om = np.linspace(-math.pi / 2, math.pi / 2, 801)
            E = np.exp(1j * np.outer(om, co.offsets))
            approx = np.outer(E @ co.axes[0], E @ co.axes[1])
            target = np.outer(np.exp(1j * delta[0] * om), np.exp(1j * delta[1] * om))
            return float(np.max(np.abs(approx - target)))

        assert sup_err(16) <= 0.7 * sup_err(8)

    def test_rejects_out_of_range_shift(self):
        with pytest.raises(ValueError):
            jackson_coefficients([0.6, 0.0], 4)

    @pytest.mark.parametrize("p", [1, 2, 4, 8, 16])
    def test_matches_quadrature_oracle(self, p):
        # closed-form multipliers and wave coefficients against a 2**16-node
        # quadrature of the kernel and of the bridged wave; the oracle's
        # imaginary parts vanish, so taking real coefficients drops nothing
        n_nodes = 2**16
        mult = jackson_multiplier_quadrature(p, n_nodes)
        assert np.max(np.abs(mult.imag)) <= 1e-12
        offsets = np.arange(-2 * p, 2 * p + 1)
        full_mult = mult.real[np.abs(offsets)]
        np.testing.assert_allclose(_jackson_multiplier(p), full_mult, rtol=0, atol=1e-13)
        for delta in (-0.5, -0.37, -0.1, 0.0, 0.05, 0.23, 0.5):
            wave = wave_coeffs_quadrature(delta, p, n_nodes)
            assert np.max(np.abs(wave.imag)) <= 1e-12
            co = jackson_coefficients([delta], p)
            np.testing.assert_array_equal(co.offsets, offsets)
            np.testing.assert_allclose(co.axes[0], wave.real * full_mult, rtol=0, atol=1e-9)


class TestBuildCertificate:
    def test_on_node_center_value(self):
        cfg = CertConfig(lam=1 / 16, m=16, p_jackson=4, dim=2, mesh_points=512)
        p0 = np.array([4 / 16, -3 / 16])  # a grid node
        approx = build_certificate_g(cfg, p0)
        g_p0 = approx.certificate(p0)
        assert abs(g_p0 - 1.0) <= 2 * approx.sup_error + 1e-12

    def test_sup_error_drops_when_grid_refines(self):
        lam = 1 / 16
        delta = np.array([0.3, -0.2])
        errs = {}
        for m in (8, 16, 32):
            cfg = CertConfig(lam=lam, m=m, p_jackson=m // 4, dim=2, mesh_points=1024)
            errs[m] = build_certificate_g(cfg, delta / m).sup_error
        assert errs[16] <= 0.7 * errs[8]
        assert errs[32] <= 0.7 * errs[16]

    def test_inverse_density_rate_law(self):
        # the sup-error obeys err <= C/m across the sweep with the constant
        # fixed at the coarsest level (the measured decay is faster than 1/m,
        # which the one-over-density law allows)
        lam = 1 / 16
        delta = np.array([0.3])
        errs = {}
        for m in (8, 16, 32):
            cfg = CertConfig(lam=lam, m=m, p_jackson=m // 4, dim=1, mesh_points=4096)
            errs[m] = build_certificate_g(cfg, delta / m).sup_error
        c_coarse = 8 * errs[8]
        for m in (8, 16, 32):
            assert m * errs[m] <= 2.0 * c_coarse

    def test_real_valued_certificate(self):
        cfg = CertConfig(lam=1 / 16, m=16, p_jackson=4, dim=2, mesh_points=512)
        approx = build_certificate_g(cfg, np.array([0.21, -0.13]))
        assert approx.certificate.weights.dtype == np.float64
        values = approx.certificate(np.array([[0.1, 0.2], [0.3, -0.4]]))
        assert np.asarray(values).dtype == np.float64

    def test_rejects_p0_outside_center_box(self):
        cfg = CertConfig(lam=1 / 16, m=16, p_jackson=4, dim=2)
        with pytest.raises(ValueError):
            build_certificate_g(cfg, np.array([0.7, 0.0]))

    def test_rejects_missing_translates(self):
        cfg = CertConfig(lam=1 / 16, m=8, p_jackson=4, dim=1)  # needs m >= 16 at the edge
        with pytest.raises(ValueError):
            build_certificate_g(cfg, np.array([0.5]))

    def test_coefficient_norm_reported(self):
        cfg = CertConfig(lam=1 / 16, m=16, p_jackson=4, dim=1, mesh_points=512)
        approx = build_certificate_g(cfg, np.array([0.21]))
        assert 0.5 < approx.coeff_norm <= 1.0 + 1e-8


def exact_bump(p0, lam) -> DualCertificate:
    """The similarity bump itself: one sensor at p0, at time 2*lam, weighted by 1 / kernel peak."""
    p0 = np.atleast_1d(np.asarray(p0, dtype=float))
    op = MeasurementOperator(SampleSet(p0[None, :], [2 * lam]))
    return DualCertificate(op, np.array([1.0 / kernel_peak(2 * lam, p0.size)]))


class TestVerifySoftConditions:
    def test_exact_bump_reaches_unit_levels(self):
        lam = 0.02
        mu = SparseMeasure(np.array([[0.1, -0.2]]), [1.0])
        report = verify_soft_conditions(exact_bump(mu.positions[0], lam), mu, 0, lam, mesh_points=512)
        assert report.sigma == pytest.approx(1.0, abs=1e-12)
        assert report.tau_mesh == pytest.approx(1.0, abs=1e-10)  # zero mesh sup-error
        assert report.tau == pytest.approx(1.0 - report.mesh_margin - report.tail_bound, abs=1e-12)
        assert report.feasible

    def test_single_source_regime_reaches_half_level(self):
        lam = 1 / 16
        mu = SparseMeasure(np.array([[0.21, -0.13]]), [1.0])
        found = smallest_feasible_m(lam, mu, 0, [4, 8, 16, 32], mesh_points=1024)
        assert found is not None
        m, report = found
        assert report.feasible
        assert report.tau / report.sigma >= 0.5

    def test_smallest_feasible_m_verifies_on_the_given_mesh(self, monkeypatch):
        seen = []
        real = certificates.verify_soft_conditions

        def record(*args, **kwargs):
            seen.append(kwargs.get("mesh_points"))
            return real(*args, **kwargs)

        monkeypatch.setattr(certificates, "verify_soft_conditions", record)
        mu = SparseMeasure(np.array([[0.21, -0.13]]), [1.0])
        assert smallest_feasible_m(1 / 16, mu, 0, [4, 8], mesh_points=256) is not None
        assert seen and set(seen) == {256}

    def test_three_separated_sources(self):
        lam = 0.002  # pairwise separation 0.45 >= 10*sqrt(lam)
        mu = SparseMeasure.from_1d([-0.45, 0.0, 0.45], [1 / 3, 1 / 3, 1 / 3])
        cfg = CertConfig(lam=lam, m=48, p_jackson=12, dim=1)
        approx = calibrated_certificate(cfg, mu, 0)
        report = verify_soft_conditions(
            approx.certificate, mu, 0, lam, coeff_norm=approx.coeff_norm
        )
        assert report.feasible
        assert report.tau / report.sigma >= 1 / 6 - report.mesh_margin

    def test_requires_normalized_measure(self):
        lam = 0.01
        mu = SparseMeasure(np.array([[0.0, 0.0]]), [2.0])
        with pytest.raises(ValueError):
            verify_soft_conditions(exact_bump(mu.positions[0], lam), mu, 0, lam)

    @staticmethod
    def _two_source_certificate():
        lam = 1 / 16
        mu = SparseMeasure.from_1d([-0.22, 0.31], [0.5, 0.5])
        cfg = CertConfig(lam=lam, m=16, p_jackson=4, dim=1, mesh_points=1024)
        return lam, mu, calibrated_certificate(cfg, mu, 0)

    @pytest.mark.parametrize("i0", [-1, 2, 1.0, True])
    def test_atom_index_out_of_range_rejected(self, i0):
        lam, mu, approx = self._two_source_certificate()
        cfg = CertConfig(lam=lam, m=16, p_jackson=4, dim=1, mesh_points=1024)
        with pytest.raises(ValueError, match="i0"):
            calibrated_certificate(cfg, mu, i0)
        with pytest.raises(ValueError, match="i0"):
            verify_soft_conditions(approx.certificate, mu, i0, lam, mesh_points=1024)

    def test_rho_below_one_rejected(self):
        lam, mu, approx = self._two_source_certificate()
        with pytest.raises(ValueError, match="rho"):
            verify_soft_conditions(approx.certificate, mu, 0, lam, rho=0.5, mesh_points=1024)

    @pytest.mark.parametrize(
        "kw",
        [
            {"eps": math.nan}, {"eps": math.inf}, {"eps": "0.1"}, {"eps": 10**400},
            {"rho": math.nan}, {"rho": math.inf}, {"rho": True}, {"rho": 10**400},
            {"mesh_points": 1}, {"mesh_points": 0}, {"mesh_points": 2.5}, {"mesh_points": True},
        ],
    )
    def test_bad_numbers_rejected(self, kw):
        lam, mu, approx = self._two_source_certificate()
        args = {"lam": lam, "mesh_points": 1024, **kw}
        with pytest.raises(ValueError):
            verify_soft_conditions(approx.certificate, mu, 0, **args)

    def test_noisy_bound_is_noisy_recovery_radius(self):
        lam, mu, approx = self._two_source_certificate()
        rep = verify_soft_conditions(
            approx.certificate, mu, 0, lam, eps=1e-3, rho=1.05, mesh_points=1024
        )
        assert rep.feasible
        expected = noisy_recovery_radius(rep.tau, rep.sigma, lam, rep.weight_norm, 1e-3, 1.05)
        assert rep.bound_noisy == expected
        vacuous = verify_soft_conditions(
            approx.certificate, mu, 0, lam, eps=100.0, rho=1.05, mesh_points=1024
        )
        assert math.isnan(vacuous.bound_noisy)
        assert not math.isnan(vacuous.bound_noiseless)

    def test_mesh_refinement_monotonicity(self):
        lam = 1 / 16
        mu = SparseMeasure(np.array([[0.21, -0.13]]), [1.0])
        cfg = CertConfig(lam=lam, m=16, p_jackson=4, dim=2)
        approx = calibrated_certificate(cfg, mu, 0)
        taus = {}
        reports = {}
        for n in (256, 512, 1024):
            reports[n] = verify_soft_conditions(approx.certificate, mu, 0, lam, mesh_points=n)
            taus[n] = reports[n].tau
        # a finer mesh can only reveal a larger sup, but the margin accounts for it
        assert taus[512] <= taus[256] + reports[256].mesh_margin
        assert taus[1024] <= taus[512] + reports[512].mesh_margin


def _assert_close_to_whole(g: DualCertificate, axes) -> None:
    """Blocked mesh values equal the whole-mesh evaluation up to the reordered sums
    of a matrix product over a block: at most d terms' rounding."""
    whole = on_mesh_whole(g, axes)
    atol = g.op.d * np.finfo(float).eps * float(np.max(np.abs(whole)))
    np.testing.assert_allclose(g.on_mesh(axes), whole, rtol=0, atol=atol)


class TestStreamedSupNorm:
    """The sup-norms stream the mesh in row blocks and equal the whole-mesh expression."""

    @staticmethod
    def _certificate(dim):
        p0 = np.array([0.21, -0.13])[:dim]
        cfg = CertConfig(lam=1 / 64, m=16, p_jackson=4, dim=dim)
        g = build_certificate_g(cfg, p0).certificate
        return DualCertificate(g.op, 1.3 * g.weights), p0, cfg.lam

    @pytest.mark.parametrize("shape", [(2048,), (100_003,), (1024, 1024), (1000, 777)])
    def test_tensor_samples_match_whole_mesh(self, shape):
        # (100003,) and 1000 x 777 end in a partial block
        g, p0, lam = self._certificate(len(shape))
        axes = [np.linspace(-1.4, 1.3, n) for n in shape]
        if math.prod(shape) > 1 << 16:
            assert len(list(g.mesh_blocks(axes))) > 1
        _assert_close_to_whole(g, axes)
        corner = np.array([a[-1] for a in axes])  # puts the sup in the last block
        for c, x in ((1.3, p0), (-0.7, p0), (5.0, corner)):
            assert _sup_bump_error(g, axes, x, lam, c) == sup_bump_error_whole(g, axes, x, lam, c)

    @pytest.mark.parametrize("weights", ["jackson", "zeroed_lines", "zero"])
    @pytest.mark.parametrize("shape", [(100_003,), (300, 257)])
    def test_nonzero_weight_sensors_match_all_sensors(self, shape, weights):
        # the separable factors span only the sensors that carry a weight; the
        # same product over all 33 sensors per axis adds only exact zeros, so
        # the two differ by the reordered sums of the products at most
        g, _, _ = self._certificate(len(shape))
        n = g.op.samples.grid_axes[0].size
        rng = np.random.default_rng(13)
        if weights == "zeroed_lines":
            W = rng.standard_normal((n,) * len(shape))
            W[rng.choice(n, 9, replace=False)] = 0.0
            if len(shape) == 2:
                W[:, rng.choice(n, 7, replace=False)] = 0.0
            g = DualCertificate(g.op, W.ravel())
        elif weights == "zero":
            g = DualCertificate(g.op, np.zeros(g.op.d))
        else:
            # p = 4: the 4p + 1 translates of p0, less the two zero multipliers at each end
            assert np.count_nonzero(g.weights) == 13 ** len(shape)
        axes = [np.linspace(-1.4, 1.3, k) for k in shape]
        assert len(list(g.mesh_blocks(axes))) > 1
        vals = g.on_mesh(axes)
        if weights == "zero":
            assert vals.shape == shape and not np.any(vals)
            return
        t = float(g.op.samples.ts[0])
        F = [kernel_matrix(ga.reshape(-1, 1), t, ax.reshape(-1, 1)) for ga, ax in zip(g.op.samples.grid_axes, axes)]
        W = g.weights.reshape((n,) * len(shape))
        dense = F[0].T @ W if len(shape) == 1 else F[0].T @ W @ F[1]
        atol = g.op.d * np.finfo(float).eps * float(np.max(np.abs(dense)))
        np.testing.assert_allclose(vals, dense, rtol=0, atol=atol)

    @pytest.mark.parametrize("layout", ["two_times_1d", "unsorted_1d", "unsorted_2d"])
    def test_point_by_point_matches_whole_mesh(self, layout):
        rng = np.random.default_rng(11)
        ax = np.linspace(-1.0, 1.0, 9)
        if layout == "two_times_1d":
            samples, shape = SampleSet.grid([ax], [1 / 32, 1 / 16]), (20_000,)
        elif layout == "unsorted_1d":
            samples, shape = SampleSet(rng.permutation(ax).reshape(-1, 1), np.full(9, 1 / 32)), (20_000,)
        else:
            xs = rng.permutation(tensor_points([ax[::2], ax[1::2]]))
            samples, shape = SampleSet(xs, np.full(len(xs), 1 / 32)), (300, 257)
        assert samples.grid_axes is None
        g = DualCertificate(MeasurementOperator(samples), rng.standard_normal(samples.d))
        axes = [np.linspace(-1.4, 1.3, n) for n in shape]
        assert len(list(g.mesh_blocks(axes))) > 1
        _assert_close_to_whole(g, axes)
        corner = np.array([a[-1] for a in axes])
        for c, x in ((0.9, np.array([0.21, -0.13])[: samples.dim]), (5.0, corner)):
            assert _sup_bump_error(g, axes, x, 1 / 64, c) == sup_bump_error_whole(g, axes, x, 1 / 64, c)

    @pytest.mark.parametrize("layout", ["tensor_1d", "tensor_2d", "two_times_1d", "unsorted_1d"])
    def test_refinement_sized_mesh_is_unchanged(self, layout):
        # continuum-gap meshes are one block, evaluated as before the mesh was streamed
        rng = np.random.default_rng(12)
        ax = np.linspace(0.0, 1.0, 16, endpoint=False)
        samples = {
            "tensor_1d": SampleSet.grid([ax], 0.01),
            "tensor_2d": SampleSet.grid([ax[:12], ax[:12]], 0.01),
            "two_times_1d": SampleSet.grid([ax], [0.01, 0.02, 0.03]),
            "unsorted_1d": SampleSet(rng.permutation(ax).reshape(-1, 1), np.full(16, 0.01)),
        }[layout]
        g = DualCertificate(MeasurementOperator(samples), rng.standard_normal(samples.d))
        axes = [np.linspace(-0.1, 1.1, 49)] if samples.dim == 1 else [np.linspace(-0.1, 1.1, 47)] * 2
        assert len(list(g.mesh_blocks(axes))) == 1
        np.testing.assert_array_equal(g.on_mesh(axes), on_mesh_whole(g, axes))

    def test_memory_stays_bounded(self):
        # a whole-mesh evaluation holds four 8 MiB float64 meshes here, 33 MiB at its peak
        mu = SparseMeasure(np.array([[0.21, -0.13]]), [1.0])
        cfg = CertConfig(lam=1 / 64, m=16, p_jackson=4, dim=2, mesh_points=1024)
        tracemalloc.start()
        try:
            approx = calibrated_certificate(cfg, mu, 0)
            verify_soft_conditions(approx.certificate, mu, 0, cfg.lam, mesh_points=1024)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 8 * 2**20

    def test_1d_memory_stays_bounded(self):
        # configs/certify_1d.json's measure on 2**18 points: building the whole
        # (33, 2**18) kernel matrix peaks at 268 MiB, 2**16-column slices of all
        # 33 sensors at 70 MiB, slices of the 13 weighted ones in one buffer at 12 MiB
        mu = SparseMeasure(np.array([[-0.22], [0.31]]), [0.5, 0.5])
        cfg = CertConfig(lam=0.0625, m=16, p_jackson=4, dim=1)
        approx = calibrated_certificate(cfg, mu, 0)
        tracemalloc.start()
        try:
            verify_soft_conditions(approx.certificate, mu, 0, cfg.lam, mesh_points=2**18)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 24 * 2**20


class TestRecoveryRadii:
    def test_equal_levels_give_zero_radius(self):
        assert recovery_radius(0.8, 0.8, 0.05) == 0.0

    def test_half_level_value(self):
        assert recovery_radius(0.5, 1.0, 0.01) == pytest.approx(
            math.sqrt(0.04 * math.log(2)), rel=1e-12
        )
        assert recovery_radius(0.5, 1.0, 0.01) == pytest.approx(0.16651, abs=5e-6)

    def test_third_amplitude_noiseless_form(self):
        # anchor amplitude 1/3 at proof level tau/sigma = c/2 = 1/6
        lam = 0.03
        assert recovery_radius(1 / 6, 1.0, lam) == pytest.approx(
            math.sqrt(4 * lam * math.log(6)), rel=1e-12
        )

    def test_rejects_vacuous_arguments(self):
        with pytest.raises(ValueError):
            recovery_radius(1.1, 1.0, 0.05)
        with pytest.raises(ValueError):
            recovery_radius(0.0, 1.0, 0.05)

    def test_noisy_reduces_to_noiseless(self):
        assert noisy_recovery_radius(0.6, 1.2, 0.04, 1.0, eps=0.0, rho=1.0) == pytest.approx(
            recovery_radius(0.6, 1.2, 0.04), rel=1e-12
        )

    def test_noisy_radius_increases_with_noise(self):
        radii = [noisy_recovery_radius(0.9, 1.2, 0.04, 1.0, eps, 1.05) for eps in (0.0, 0.01, 0.1)]
        assert radii[0] < radii[1] < radii[2]

    @pytest.mark.parametrize(
        "eps, rho", [(math.nan, 1.0), (0.0, math.nan), (math.inf, 1.0), (0.0, math.inf), (10**400, 1.0)]
    )
    def test_noisy_bad_numbers_rejected(self, eps, rho):
        with pytest.raises(ValueError, match="finite"):
            noisy_recovery_radius(0.5, 1.0, 0.04, 1.0, eps=eps, rho=rho)

    def test_noisy_vacuous_level_rejected(self):
        with pytest.raises(ValueError):
            noisy_recovery_radius(0.5, 1.0, 0.04, 1.0, eps=10.0, rho=1.0)

    def test_unit_weight_norm_level_bound(self):
        # with |lambda|_2 <= 1, tau/sigma >= c/2, sigma >= 8/6, the effective
        # level dominates c/2 - 6*(2*eps + (rho-1))/(8*rho)
        c = 1 / 3
        sigma = 1.5
        tau = (c / 2 + 0.01) * sigma
        for eps, rho in [(0.0, 1.0), (0.01, 1.0), (0.0, 1.05), (0.02, 1.1)]:
            level = tau / sigma - (2 * 1.0 * eps + (rho - 1)) / (rho * sigma)
            floor = c / 2 - 6 * (2 * eps + (rho - 1)) / (8 * rho)
            assert level >= floor


class TestL1BallLeastSquares:
    """min |A x - b| s.t. |x|_1 <= rho, stopped on the LASSO path at |x|_1 = rho."""

    def test_binding_radius_matches_lasso_oracle(self):
        for trial in range(20):
            rng = np.random.default_rng(300 + trial)
            A = rng.standard_normal((12, 40))
            b = rng.standard_normal(12)
            # below the least l1 norm of an interpolant, the ball binds
            rho = rng.uniform(0.2, 0.9) * float(np.sum(np.abs(min_l1_equality_lp(A, b))))
            x, solved = l1_ball_least_squares(A, b, rho)
            assert solved
            assert abs(float(np.sum(np.abs(x))) - rho) <= 1e-9
            # x is the LASSO minimizer at the penalty its residual correlations set
            lam_star = float(np.max(np.abs(A.T @ (b - A @ x))))
            xcd = lasso_coordinate_descent(A, b, lam_star)
            f_path = lasso_objective(A, b, lam_star, x)
            f_cd = lasso_objective(A, b, lam_star, xcd)
            assert abs(f_path - f_cd) / f_cd < 1e-7
            supp = np.abs(x) > 1e-6 * np.max(np.abs(x))
            np.testing.assert_array_equal(np.sign(x[supp]), np.sign(xcd[supp]))

    def test_inactive_radius_returns_path_end(self):
        rng = np.random.default_rng(320)
        A = rng.standard_normal((12, 40))
        b = rng.standard_normal(12)
        rho = 2.0 * float(np.sum(np.abs(min_l1_equality_lp(A, b))))
        x, solved = l1_ball_least_squares(A, b, rho)
        assert solved
        assert float(np.sum(np.abs(x))) < rho
        assert np.linalg.norm(A @ x - b) <= 1e-8 * np.linalg.norm(b)

    def test_step_cap_reports_unsolved(self):
        rng = np.random.default_rng(321)
        A = rng.standard_normal((12, 40))
        b = rng.standard_normal(12)
        rho = 0.5 * float(np.sum(np.abs(min_l1_equality_lp(A, b))))
        _, solved = l1_ball_least_squares(A, b, rho, max_iters=2)
        assert not solved


class TestSoftStableInequality:
    def _instance(self, lam, noise_eps, seed=0):
        mu = SparseMeasure.from_1d([-0.22, 0.31], [0.5, 0.5])
        cfg = CertConfig(lam=lam, m=16, p_jackson=4, dim=1)
        approx = calibrated_certificate(cfg, mu, 0)
        report = verify_soft_conditions(approx.certificate, mu, 0, lam, coeff_norm=approx.coeff_norm)
        op = approx.certificate.op
        b = measure(op, mu)
        if noise_eps > 0:
            noisy = add_noise(b, 10 * math.log10(float(b @ b) / noise_eps**2), seed)
            eps = float(np.linalg.norm(noisy - b))
            b = noisy
        else:
            eps = 0.0
        grid = np.linspace(-1, 1, 257).reshape(-1, 1)
        A = build_dictionary(op, grid)
        return A, b, report, eps

    def test_noiseless_specialization_holds(self):
        lam = 1 / 16
        A, b, report, eps = self._instance(lam, 0.0)
        assert report.feasible
        assert verify_soft_stable_inequality(A, b, report, lam, rho=1.0, eps=0.0) is True

    def test_noisy_two_atom_instance_holds(self):
        lam = 1 / 16
        A, b, report, eps = self._instance(lam, 1e-3)
        assert verify_soft_stable_inequality(A, b, report, lam, rho=1.05, eps=eps) is True

    def test_vacuous_bound_trivially_holds(self):
        lam = 1 / 16
        A, b, report, eps = self._instance(lam, 0.0)
        assert verify_soft_stable_inequality(A, b, report, lam, rho=1.0, eps=100.0) is True

    @pytest.mark.parametrize(
        "kw",
        [{"rho": math.nan}, {"eps": math.nan}, {"rho": math.inf}, {"eps": math.inf}],
    )
    def test_bad_numbers_rejected(self, kw):
        # a NaN noise level or budget gives no verdict, not False
        lam = 1 / 16
        A, b, report, eps = self._instance(lam, 1e-3)
        args = {"lam": lam, "rho": 1.05, "eps": eps, **kw}
        with pytest.raises(ValueError):
            verify_soft_stable_inequality(A, b, report, **args)

    def test_step_cap_gives_no_verdict(self):
        lam = 1 / 16
        A, b, report, eps = self._instance(lam, 1e-3)
        assert verify_soft_stable_inequality(A, b, report, lam, rho=1.05, eps=eps, max_iters=2) is None
