"""Measurement operator, dual-certificate evaluation, and dictionary matrices.

A measurement is a sample of the diffused field at a spacetime point (x, t).
The adjoint of the sampling map sends a weight vector to the continuous
function nu(x) = sum_{(x_s,t)} lambda_{x_s,t} * G(x - x_s, t) -- the dual
certificate -- which is evaluable anywhere together with its spatial gradient.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .field import KernelParams, SparseMeasure, _as_points, kernel_matrix

__all__ = [
    "SampleSet",
    "MeasurementOperator",
    "DictionaryMatrix",
    "DualCertificate",
    "RhoBounds",
    "measure",
    "certificate_eval",
    "certificate_gradient",
    "build_dictionary",
    "baseline_matrix",
    "rho_bounds",
]


@dataclass(frozen=True)
class SampleSet:
    """Spatiotemporal sample points: positions ``(d, dim)`` and times ``(d,)``.

    ``grid_axes`` is set when the samples form a tensor grid at a single
    time; certificate evaluation then uses a separable fast path.
    """

    xs: np.ndarray
    ts: np.ndarray
    grid_axes: tuple[np.ndarray, ...] | None = None

    def __post_init__(self) -> None:
        xs = np.atleast_2d(np.asarray(self.xs, dtype=float))
        ts = np.atleast_1d(np.asarray(self.ts, dtype=float))
        if xs.ndim != 2 or xs.shape[0] != ts.shape[0]:
            raise ValueError("xs must be (d, dim) with one time per sample")
        if xs.shape[0] < 1:
            raise ValueError("sample set must be non-empty")
        if np.any(ts <= 0):
            raise ValueError("all sample times must be positive")
        xs.setflags(write=False)
        ts.setflags(write=False)
        object.__setattr__(self, "xs", xs)
        object.__setattr__(self, "ts", ts)
        if self.grid_axes is not None:
            axes = tuple(np.asarray(a, dtype=float) for a in self.grid_axes)
            if len(axes) != xs.shape[1]:
                raise ValueError("grid_axes must have one axis per dimension")
            if np.prod([a.size for a in axes]) != xs.shape[0]:
                raise ValueError("grid_axes do not match the number of samples")
            if np.ptp(ts) != 0.0:
                raise ValueError("tensor-grid samples must share a single time")
            for a in axes:
                a.setflags(write=False)
            object.__setattr__(self, "grid_axes", axes)

    @classmethod
    def uniform_1d(cls, n_sensors: int, length: float, times) -> "SampleSet":
        """Sensors at n*length/n_sensors, n = 0..n_sensors-1, stacked time-major."""
        if n_sensors < 1:
            raise ValueError("need at least one sensor")
        sensors = np.arange(n_sensors) * (length / n_sensors)
        times = np.atleast_1d(np.asarray(times, dtype=float))
        xs = np.tile(sensors, times.size).reshape(-1, 1)
        ts = np.repeat(times, n_sensors)
        if times.size == 1:
            return cls(xs, ts, grid_axes=(sensors,))
        return cls(xs, ts)

    @classmethod
    def grid(cls, axes, t: float) -> "SampleSet":
        """Tensor product of per-axis sensor coordinates at a single time."""
        axes = tuple(np.asarray(a, dtype=float) for a in axes)
        mesh = np.meshgrid(*axes, indexing="ij")
        xs = np.stack([m.ravel() for m in mesh], axis=-1)
        ts = np.full(xs.shape[0], float(t))
        return cls(xs, ts, grid_axes=axes)

    @property
    def d(self) -> int:
        return self.xs.shape[0]

    @property
    def dim(self) -> int:
        return self.xs.shape[1]


@dataclass(frozen=True)
class MeasurementOperator:
    """Sampling of the diffused field on a fixed sample set."""

    samples: SampleSet

    @property
    def dim(self) -> int:
        return self.samples.dim

    @property
    def d(self) -> int:
        return self.samples.d

    @property
    def kernel(self) -> KernelParams:
        return KernelParams(self.dim)


def measure(op: MeasurementOperator, mu: SparseMeasure) -> np.ndarray:
    """Sample the field of ``mu`` at every point of the operator's sample set."""
    if mu.dim != op.dim:
        raise ValueError(f"measure dim {mu.dim} does not match operator dim {op.dim}")
    if mu.n_atoms == 0:
        return np.zeros(op.d)
    K = kernel_matrix(op.samples.xs, op.samples.ts, mu.positions)
    return K @ mu.amplitudes


def certificate_eval(op: MeasurementOperator, lam: np.ndarray, x):
    """Certificate value nu(x) = sum_i lam_i * G(x - x_i, t_i) at point(s) x."""
    lam = np.asarray(lam)
    if lam.shape != (op.d,):
        raise ValueError(f"weight vector has length {lam.shape}, expected ({op.d},)")
    pts, single = _as_points(x, op.dim)
    K = kernel_matrix(op.samples.xs, op.samples.ts, pts)
    vals = K.T @ lam
    return vals[0] if single else vals


def certificate_gradient(op: MeasurementOperator, lam: np.ndarray, x):
    """Spatial gradient of the certificate: sum_i lam_i * G * (x_i - x) / t_i."""
    lam = np.asarray(lam)
    if lam.shape != (op.d,):
        raise ValueError(f"weight vector has length {lam.shape}, expected ({op.d},)")
    pts, single = _as_points(x, op.dim)
    xs, ts = op.samples.xs, op.samples.ts
    K = kernel_matrix(xs, ts, pts)
    pull = (xs[:, None, :] - pts[None, :, :]) / ts[:, None, None]
    grad = np.einsum("i,ip,ipd->pd", lam, K, pull)
    return grad[0] if single else grad


@dataclass(frozen=True)
class DualCertificate:
    """Dual weight vector plus the continuous function it induces."""

    op: MeasurementOperator
    weights: np.ndarray

    def __post_init__(self) -> None:
        w = np.asarray(self.weights)
        if w.shape != (self.op.d,):
            raise ValueError(f"weights have shape {w.shape}, expected ({self.op.d},)")
        w.setflags(write=False)
        object.__setattr__(self, "weights", w)

    def __call__(self, x):
        return certificate_eval(self.op, self.weights, x)

    def gradient(self, x):
        return certificate_gradient(self.op, self.weights, x)

    def gradient_bound(self) -> float:
        """Upper bound on |grad nu| over all of space (sum of per-term maxima)."""
        ts = self.op.samples.ts
        pref = (4.0 * math.pi * ts) ** (-self.op.dim / 2.0)
        per_term = pref * math.exp(-0.5) / np.sqrt(ts)
        return float(np.abs(self.weights) @ per_term)

    def on_mesh(self, axes) -> np.ndarray:
        """Values on a tensor evaluation mesh, one 1D coordinate array per axis.

        Requires the sample set to be a tensor grid at a single time; the
        evaluation then factorizes into per-axis kernel matrices.
        """
        grid_axes = self.op.samples.grid_axes
        if grid_axes is None:
            raise ValueError("on_mesh requires tensor-grid samples")
        axes = [np.asarray(a, dtype=float) for a in axes]
        if len(axes) != len(grid_axes):
            raise ValueError("mesh must have one axis per dimension")
        t = float(self.op.samples.ts[0])
        pref = (4.0 * math.pi * t) ** (-self.op.dim / 2.0)
        factors = [
            np.exp(-((ax[None, :] - ga[:, None]) ** 2) / (2.0 * t))
            for ax, ga in zip(axes, grid_axes)
        ]
        if len(axes) == 1:
            return pref * (factors[0].T @ self.weights)
        W = self.weights.reshape(grid_axes[0].size, grid_axes[1].size)
        return pref * (factors[0].T @ W @ factors[1])


@dataclass(frozen=True)
class DictionaryMatrix:
    """Discretized sampling operator: entries ``(d, P)``, one column per candidate."""

    entries: np.ndarray
    points: np.ndarray

    def __post_init__(self) -> None:
        entries = np.asarray(self.entries, dtype=float)
        points = np.atleast_2d(np.asarray(self.points, dtype=float))
        if entries.ndim != 2 or entries.shape[1] != points.shape[0]:
            raise ValueError("entries must be (d, P) with one column per point")
        entries.setflags(write=False)
        points.setflags(write=False)
        object.__setattr__(self, "entries", entries)
        object.__setattr__(self, "points", points)

    @property
    def shape(self) -> tuple[int, int]:
        return self.entries.shape


def build_dictionary(op: MeasurementOperator, grid) -> DictionaryMatrix:
    """Dictionary over candidate positions: column j samples a unit atom at q_j."""
    pts, _ = _as_points(getattr(grid, "points", grid), op.dim)
    if pts.shape[0] == 0:
        raise ValueError("candidate grid must be non-empty")
    entries = kernel_matrix(op.samples.xs, op.samples.ts, pts)
    return DictionaryMatrix(entries, pts)


def baseline_matrix(
    n_sensors: int,
    n_times: int,
    grid_size: int,
    tau: float,
    delta1: float,
    delta2: float,
) -> DictionaryMatrix:
    """Fixed-grid discrete sensing matrix of the comparison method.

    Sub-matrix for time index l has entries
    (4*pi*l*tau)**(-1/2) * exp(-(n*delta2 - m*delta1)**2 / (4*l*tau)),
    l = 1..n_times, stacked time-major.  Note the exponent denominator is
    ``4*l*tau`` here, unlike the ``2*t`` convention of the continuous model;
    the two conventions are deliberately kept distinct.
    """
    if n_sensors < 1 or n_times < 1 or grid_size < 1:
        raise ValueError("all counts must be >= 1")
    if tau <= 0 or delta1 <= 0 or delta2 <= 0:
        raise ValueError("tau, delta1, delta2 must be positive")
    sensors = np.arange(n_sensors) * delta2
    sources = np.arange(grid_size) * delta1
    diff2 = (sensors[:, None] - sources[None, :]) ** 2
    blocks = []
    for ell in range(1, n_times + 1):
        t = ell * tau
        blocks.append((4.0 * math.pi * t) ** -0.5 * np.exp(-diff2 / (4.0 * t)))
    return DictionaryMatrix(np.vstack(blocks), sources.reshape(-1, 1))


@dataclass(frozen=True)
class RhoBounds:
    """Sampling-density interval inside which the baseline matrix is claimed usable."""

    rho_min: float
    rho_max: float

    @property
    def valid(self) -> bool:
        return self.rho_min < self.rho_max

    @property
    def midpoint(self) -> float:
        return 0.5 * (self.rho_min + self.rho_max)


def rho_bounds(n_sensors: int, n_times: int) -> RhoBounds:
    """Bounds (1/(2*N_t), (N_s-1)**2/(72*N_t)) on rho = tau / delta2**2."""
    if n_sensors < 2:
        raise ValueError("need at least two sensors for a non-degenerate upper bound")
    if n_times < 1:
        raise ValueError("need at least one time sample")
    return RhoBounds(1.0 / (2.0 * n_times), (n_sensors - 1) ** 2 / (72.0 * n_times))
