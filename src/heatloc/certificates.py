"""Certificate lab: explicit soft-recovery certificates and their guarantees.

The construction approximates a Gaussian similarity bump centered at an
arbitrary point by a combination of equally wide Gaussians centered on a
uniform sample grid.  The combination coefficients come from approximating a
plane wave by a trigonometric polynomial via convolution with a Jackson
kernel; their l2 norm never exceeds 1, and the uniform approximation error
decays like one over the grid half-density.  The Jackson multipliers and the
wave's Fourier coefficients are computed in closed form, and both are real,
so the weights, the certificate and its meshes are real too.

With such a certificate in hand, the three soft-recovery conditions (anchor
value at least 1, point bound sigma, off-support bound 1 - tau) are checked
on a dense evaluation mesh, and the resulting localization radii for the
noiseless and noisy programs are evaluated.  Both sup-norms on the mesh, the
construction's error and the off-support bound, are taken a block of mesh
rows at a time (``DualCertificate.mesh_blocks``), so no array the size of
the mesh is built.  The noisy conclusion is also checked on a finite grid,
by solving the TV-ball program min |A x - b| s.t. |x|_1 <= rho exactly as a
point of the LASSO path.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .field import SparseMeasure, _is_count, _is_real, kernel_peak
from .operators import (
    DictionaryMatrix,
    DualCertificate,
    MeasurementOperator,
    SampleSet,
)
from .solvers import l1_ball_least_squares

__all__ = [
    "CertConfig",
    "JacksonCoefficients",
    "CertificateApproximation",
    "CertificateReport",
    "jackson_coefficients",
    "grid_sample_set",
    "build_certificate_g",
    "calibrated_certificate",
    "verify_soft_conditions",
    "recovery_radius",
    "noisy_recovery_radius",
    "verify_soft_stable_inequality",
    "smallest_feasible_m",
]


def _is_finite(v) -> bool:
    """True for a real number, not a bool, that is finite as a float."""
    try:
        return _is_real(v) and math.isfinite(v)
    except OverflowError:  # an integer beyond the float range
        return False


class _GridTooCoarse(ValueError):
    """The sample grid of spacing 1/m cannot carry the certificate: a larger m may."""


def _check_width(lam) -> None:
    if not (_is_finite(lam) and lam > 0):
        raise ValueError(f"width parameter lam must be a positive finite number, got {lam!r}")


def _check_mesh_points(mesh_points) -> None:
    if not (_is_count(mesh_points) and mesh_points >= 2):
        raise ValueError(f"mesh_points must be an integer >= 2, got {mesh_points!r}")


def _check_noise(eps, rho) -> None:
    """eps and rho are finite numbers, the noise level eps >= 0 and the TV budget rho >= 1."""
    if not (_is_finite(eps) and _is_finite(rho)):
        raise ValueError(f"eps and rho must be finite numbers, got {eps!r} and {rho!r}")
    if rho < 1.0:
        raise ValueError("rho must be >= 1")
    if eps < 0.0:
        raise ValueError("eps must be >= 0")


@dataclass(frozen=True)
class CertConfig:
    """Certificate construction parameters.

    ``lam`` is the width of the similarity bump; samples live on a uniform
    grid of spacing 1/m over [-1, 1]^dim, all taken at time t = 2*lam so the
    sampled kernels have exactly the bump's width.  The kernel order
    ``p_jackson`` defaults to max(1, m // 4), the largest whose translates fit
    inside the grid.
    """

    lam: float
    m: int
    p_jackson: int | None = None
    dim: int = 2
    mesh_points: int = 2048

    def __post_init__(self) -> None:
        if not _is_count(self.m):
            raise ValueError(f"m must be an integer, got {self.m!r}")
        if self.p_jackson is None:
            object.__setattr__(self, "p_jackson", max(1, self.m // 4))
        if not (_is_count(self.p_jackson) and _is_count(self.dim)):
            raise ValueError("p_jackson and dim must be integers")
        _check_mesh_points(self.mesh_points)
        _check_width(self.lam)
        if self.m < 1 or self.p_jackson < 1:
            raise ValueError("m and p_jackson must be positive")
        if self.dim not in (1, 2):
            raise ValueError("dim must be 1 or 2")

    @property
    def t(self) -> float:
        return 2.0 * self.lam


def _jackson_multiplier(p: int) -> np.ndarray:
    """Fourier multipliers m_p(n) = int J_p(x) exp(-i n x) dx for n = -2p..2p.

    (sin(p x/2) / sin(x/2))**2 is the Fejer sum of (p - |k|) exp(i k x) over
    |k| < p, so the fourth power has the triangle's autoconvolution a_n as
    its coefficients, and m_p(n) = a_n / a_0 (zero for |n| = 2p - 1 and 2p).
    """
    tri = p - np.abs(np.arange(1 - p, p))
    a = np.pad(np.convolve(tri, tri), 2)
    return a / float(a[2 * p])


def _wave_coeffs(delta: float, p: int) -> np.ndarray:
    """Fourier coefficients, n = -2p..2p, of the prolonged plane wave.

    The wave is exp(i*delta*theta) on [-pi/2, pi/2], linearly bridged to its
    periodic continuation on [pi/2, 3pi/2]: 2*pi periodic, Lipschitz, and
    w(-theta) = conj w(theta), so its coefficients are real.  With
    c = cos(pi*delta/2) and s = sin(pi*delta/2), the wave part contributes
    pi*sinc((delta - n)/2) and the bridge pi*c at n = 0,
    (-1)**(n/2) * 2s/n at even n and (-1)**((n-1)/2) * (4s/(pi n**2) - 2c/n)
    at odd n; the sum is divided by 2*pi.
    """
    n = np.arange(-2 * p, 2 * p + 1)
    c, s = math.cos(0.5 * math.pi * delta), math.sin(0.5 * math.pi * delta)
    nz = np.where(n == 0, 1, n)
    bridge = np.where(n % 2 == 0, 2.0 * s / nz, 4.0 * s / (math.pi * nz**2) - 2.0 * c / nz)
    bridge *= 1 - 2 * ((n // 2) % 2)
    bridge[n == 0] = math.pi * c
    return (math.pi * np.sinc(0.5 * (delta - n)) + bridge) / (2.0 * math.pi)


@dataclass(frozen=True)
class JacksonCoefficients:
    """Per-axis combination coefficients c_n, |n| <= 2p, with l2 norm <= 1."""

    axes: tuple[np.ndarray, ...]
    offsets: np.ndarray

    @property
    def norm(self) -> float:
        return math.prod(float(np.linalg.norm(a)) for a in self.axes)

    def dense(self) -> np.ndarray:
        if len(self.axes) == 1:
            return self.axes[0]
        return np.outer(self.axes[0], self.axes[1])


def jackson_coefficients(delta, p: int) -> JacksonCoefficients:
    """Coefficients approximating exp(i*delta.omega) by sum c_n exp(i*n.omega).

    ``delta`` must lie in [-1/2, 1/2] per coordinate.  The approximation is
    uniform over [-pi/2, pi/2] per axis with error O(1/p), and the coefficient
    vector always satisfies |c|_2 <= 1 (up to round-off).
    """
    if p < 1:
        raise ValueError("kernel order p must be >= 1")
    d = np.atleast_1d(np.asarray(delta, dtype=float))
    if np.any(np.abs(d) > 0.5):
        raise ValueError(f"delta must lie in [-1/2, 1/2] per coordinate, got {d}")
    mult = _jackson_multiplier(p)
    axes = tuple(_wave_coeffs(dj, p) * mult for dj in d)
    coeffs = JacksonCoefficients(axes, np.arange(-2 * p, 2 * p + 1))
    if coeffs.norm > 1.0 + 1e-8:
        raise RuntimeError(f"coefficient norm {coeffs.norm} exceeds 1")
    return coeffs


def grid_sample_set(cfg: CertConfig) -> SampleSet:
    """Uniform sensor grid of spacing 1/m over [-1, 1]^dim, all at time 2*lam."""
    axis = np.arange(-cfg.m, cfg.m + 1) / cfg.m
    return SampleSet.grid((axis,) * cfg.dim, cfg.t)


@dataclass(frozen=True)
class CertificateApproximation:
    """A grid certificate, its sup-error against the multiple of the bump it
    approximates and the l2 norm of its Jackson coefficients."""

    certificate: DualCertificate
    sup_error: float
    coeff_norm: float


def _bump(r2, lam: float):
    """Similarity bump exp(-r2 / (4*lam)) at squared distance ``r2``.

    It is the kernel at t = 2*lam divided by its peak, G(x, 2*lam) / G(0, 2*lam),
    and 1 at r2 = 0.
    """
    return np.exp(-r2 / (4.0 * lam))


def _sup_bump_error(g: DualCertificate, axes, p0: np.ndarray, lam: float, c: float) -> float:
    """max |g - c * bump(x - p0)| over the tensor mesh of ``axes``.

    The bump is a product of per-axis factors, built once; the sup is taken
    over :meth:`DualCertificate.mesh_blocks`, so no array the size of the
    mesh is built.
    """
    factors = [_bump((ax - x) ** 2, lam) for ax, x in zip(axes, p0)]
    sups = []
    for rows, vals in g.mesh_blocks(axes):
        bump = factors[0][rows] if len(factors) == 1 else np.outer(factors[0][rows], factors[1])
        vals -= c * bump
        sups.append(np.max(np.abs(vals, out=vals)))
    return float(np.max(sups))


def build_certificate_g(cfg: CertConfig, p0) -> CertificateApproximation:
    """Grid-sample weights whose induced function approximates bump(x - p0).

    ``p0`` must lie in [-1/2, 1/2]^dim.  The weights place one combination
    coefficient on the sample nearest each translate of p0; the reported
    sup-error is measured on a dense mesh wide enough that the analytic tail
    beyond it is at most 1e-13.
    """
    p0 = np.atleast_1d(np.asarray(p0, dtype=float))
    if p0.shape != (cfg.dim,):
        raise ValueError(f"p0 must be a point of dimension {cfg.dim}")
    if np.any(np.abs(p0) > 0.5):
        raise ValueError("p0 must lie in [-1/2, 1/2] per coordinate")
    samples = grid_sample_set(cfg)
    op = MeasurementOperator(samples)

    n0 = np.rint(p0 * cfg.m).astype(int)
    delta = p0 * cfg.m - n0
    coeffs = jackson_coefficients(delta, cfg.p_jackson)
    idx_axes = [n0[j] + coeffs.offsets + cfg.m for j in range(cfg.dim)]
    for idx in idx_axes:
        if idx.min() < 0 or idx.max() > 2 * cfg.m:
            raise _GridTooCoarse(
                "candidate grid does not contain the required translates; "
                "need m >= 4*p_jackson (plus room for p0 away from the center)"
            )
    peak = kernel_peak(cfg.t, cfg.dim)
    w = np.zeros((2 * cfg.m + 1,) * cfg.dim)
    w[np.ix_(*idx_axes)] = coeffs.dense() / peak
    cert = DualCertificate(op, w.ravel())

    lam1 = float(np.sum(np.abs(cert.weights)))
    amp = lam1 * peak + 1.0
    pad = math.sqrt(4.0 * cfg.lam * math.log(amp * 1e13))
    mesh = np.linspace(-1.0 - pad, 1.0 + pad, cfg.mesh_points)
    sup_error = _sup_bump_error(cert, (mesh,) * cfg.dim, p0, cfg.lam, 1.0)
    return CertificateApproximation(cert, sup_error, coeffs.norm)


def calibrated_certificate(cfg: CertConfig, mu0: SparseMeasure, i0: int) -> CertificateApproximation:
    """Certificate at atom i0 of mu0, scaled so the anchor condition holds with equality."""
    _check_measure(mu0, i0)
    base = build_certificate_g(cfg, mu0.positions[i0])
    anchor = float(np.sum(mu0.amplitudes * np.atleast_1d(base.certificate(mu0.positions))))
    if anchor <= 0:
        raise _GridTooCoarse("unit-scale certificate has non-positive anchor; grid too coarse")
    factor = 1.0 / anchor
    cert = DualCertificate(base.certificate.op, base.certificate.weights * factor)
    return CertificateApproximation(cert, base.sup_error * factor, base.coeff_norm)


@dataclass(frozen=True)
class CertificateReport:
    """Tightest soft-recovery parameters of a certificate, mesh margins included."""

    sigma: float
    tau: float
    feasible: bool
    sup_error: float
    coeff_norm: float
    weight_norm: float
    anchor: float
    tau_mesh: float
    mesh_margin: float
    tail_bound: float
    bound_noiseless: float
    bound_noisy: float
    p0: np.ndarray


def _check_measure(mu0: SparseMeasure, i0) -> None:
    if mu0.n_atoms == 0:
        raise ValueError("measure must have at least one atom")
    if not (_is_count(i0) and 0 <= i0 < mu0.n_atoms):
        raise ValueError(f"i0 must be an atom index in 0..{mu0.n_atoms - 1}, got {i0!r}")
    if np.any(mu0.amplitudes <= 0):
        raise ValueError("soft-recovery conditions assume positive amplitudes")
    if abs(float(np.sum(mu0.amplitudes)) - 1.0) > 1e-9:
        raise ValueError("soft-recovery conditions assume amplitudes summing to 1")


def verify_soft_conditions(
    g: DualCertificate,
    mu0: SparseMeasure,
    i0: int,
    lam: float,
    *,
    coeff_norm: float = math.nan,
    eps: float = 0.0,
    rho: float = 1.0,
    mesh_points: int = 2048,
) -> CertificateReport:
    """Evaluate the three soft-recovery conditions of ``g`` for atom ``i0``.

    Returns the tightest (sigma, tau) the certificate supports: sigma is the
    certificate modulus at the anchor atom, and tau is one minus the measured
    sup of |g - bump * g(p0)| over a dense mesh, shrunk by an off-mesh
    Lipschitz margin (from ``g.gradient_bound()``) and a Gaussian tail bound
    for the region beyond the mesh.  The noisy radius is that of
    :func:`noisy_recovery_radius` (so ``rho >= 1`` and ``eps >= 0``), NaN
    when its level is not positive.
    """
    _check_measure(mu0, i0)
    _check_width(lam)
    _check_noise(eps, rho)
    _check_mesh_points(mesh_points)
    p0 = mu0.positions[i0]

    at_atoms = np.atleast_1d(g(mu0.positions))
    anchor = float(np.sum(mu0.amplitudes * at_atoms))
    g0 = float(np.asarray(g(p0)).item())
    sigma = abs(g0)

    samples = g.op.samples
    base_lo = np.minimum(np.min(mu0.positions, axis=0), np.minimum(p0, np.min(samples.xs, axis=0)))
    base_hi = np.maximum(np.max(mu0.positions, axis=0), np.maximum(p0, np.max(samples.xs, axis=0)))
    t_min = float(np.min(samples.ts))
    amp = sigma + 1.0 + float(np.sum(np.abs(g.weights))) * kernel_peak(t_min, mu0.dim)
    pad = math.sqrt(4.0 * lam * math.log(amp * 1e13))
    lo, hi = base_lo - pad, base_hi + pad
    tail = amp * float(_bump(pad * pad, lam))

    axes = [np.linspace(lo[j], hi[j], mesh_points) for j in range(mu0.dim)]
    sup_mesh = _sup_bump_error(g, axes, p0, lam, g0)

    h = max(float(a[1] - a[0]) for a in axes)
    lip_bump = sigma * math.exp(-0.5) / math.sqrt(2.0 * lam)
    lip_g = float(g.gradient_bound())
    margin = (lip_g + lip_bump) * 0.5 * h * math.sqrt(mu0.dim)

    tau_mesh = 1.0 - sup_mesh
    tau = tau_mesh - margin - tail
    feasible = anchor >= 1.0 - 1e-9 and 0.0 < tau <= 1.0

    weight_norm = float(np.linalg.norm(g.weights))
    bound_noiseless = math.nan
    bound_noisy = math.nan
    if feasible and tau <= sigma * (1.0 + 1e-12):
        bound_noiseless = recovery_radius(tau, sigma, lam)
        try:
            bound_noisy = noisy_recovery_radius(tau, sigma, lam, weight_norm, eps, rho)
        except ValueError:
            pass  # the noisy level is not positive: no noisy bound

    return CertificateReport(
        sigma=sigma,
        tau=tau,
        feasible=feasible,
        sup_error=sup_mesh,
        coeff_norm=coeff_norm,
        weight_norm=weight_norm,
        anchor=anchor,
        tau_mesh=tau_mesh,
        mesh_margin=margin,
        tail_bound=tail,
        bound_noiseless=bound_noiseless,
        bound_noisy=bound_noisy,
        p0=p0,
    )


def recovery_radius(tau: float, sigma: float, lam: float) -> float:
    """Localization radius sqrt(4*lam*log(sigma/tau)) guaranteed by a certificate."""
    if not 0.0 < tau <= sigma * (1.0 + 1e-12):
        raise ValueError(f"need 0 < tau <= sigma, got tau={tau}, sigma={sigma}")
    _check_width(lam)
    return math.sqrt(4.0 * lam * math.log(max(sigma / tau, 1.0)))


def noisy_recovery_radius(
    tau: float, sigma: float, lam: float, lambda_norm: float, eps: float, rho: float
) -> float:
    """Localization radius under noise level eps and TV budget rho >= 1.

    The effective certificate level drops to
    tau/sigma - (2*|lambda|_2*eps + (rho - 1)) / (rho*sigma);
    the bound is vacuous (raises) when that level is not positive.
    """
    _check_width(lam)
    _check_noise(eps, rho)
    if not 0.0 < tau <= sigma * (1.0 + 1e-12):
        raise ValueError(f"need 0 < tau <= sigma, got tau={tau}, sigma={sigma}")
    level = tau / sigma - (2.0 * lambda_norm * eps + (rho - 1.0)) / (rho * sigma)
    if level <= 0.0:
        raise ValueError(f"noise level makes the bound vacuous (level={level})")
    return math.sqrt(4.0 * lam * math.log(1.0 / min(level, 1.0)))


def verify_soft_stable_inequality(
    A: DictionaryMatrix,
    b: np.ndarray,
    report: CertificateReport,
    lam: float,
    rho: float,
    eps: float,
    *,
    max_iters: int = 200_000,
) -> bool | None:
    """Check the noisy soft-recovery conclusion on a finite grid instance.

    Solves min |A x - b| subject to |x|_1 <= rho exactly, by following the
    LASSO path until |x|_1 reaches rho, and tests whether some support atom
    x_j of the minimizer satisfies
    bump(x_j - p0) >= (rho*tau - 2*|lambda|_2*eps + 1 - rho) / (rho*sigma).
    ``max_iters`` caps the path steps; returns None when the cap is hit
    before the path reaches the ball's boundary or its end.
    """
    _check_width(lam)
    _check_noise(eps, rho)
    b = np.asarray(b, dtype=float)
    x, ok = l1_ball_least_squares(A, b, rho, max_iters=max_iters)
    if not ok:
        return None
    rhs = (rho * report.tau - 2.0 * report.weight_norm * eps + 1.0 - rho) / (rho * report.sigma)
    xmax = float(np.max(np.abs(x))) if x.size else 0.0
    if xmax == 0.0:
        return rhs <= 0.0
    supp = np.abs(x) > 1e-6 * xmax
    diffs = A.points[supp] - report.p0[None, :]
    overlaps = _bump(np.einsum("nd,nd->n", diffs, diffs), lam)
    return bool(np.max(overlaps) >= rhs - 1e-9)


def smallest_feasible_m(
    lam: float,
    mu0: SparseMeasure,
    i0: int,
    m_values,
    **cert_kwargs,
) -> tuple[int, CertificateReport] | None:
    """First m in ``m_values`` whose calibrated certificate is feasible.

    The kernel order is ``CertConfig``'s default, max(1, m // 4), and the
    conditions are verified on its ``mesh_points`` per axis.  An m whose
    grid is too coarse for the certificate is skipped; a bad argument raises.
    """
    _check_width(lam)
    _check_measure(mu0, i0)
    _check_mesh_points(cert_kwargs.get("mesh_points", CertConfig.mesh_points))
    for m in sorted(m_values):
        cfg = CertConfig(lam=lam, m=int(m), dim=mu0.dim, **cert_kwargs)
        try:
            approx = calibrated_certificate(cfg, mu0, i0)
        except _GridTooCoarse:
            continue
        report = verify_soft_conditions(
            approx.certificate, mu0, i0, lam, coeff_norm=approx.coeff_norm, mesh_points=cfg.mesh_points
        )
        if report.feasible:
            return int(m), report
    return None
