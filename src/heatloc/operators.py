"""Measurement operator, dual-certificate evaluation, and dictionary matrices.

A measurement is a sample of the diffused field at a spacetime point (x, t).
The adjoint of the sampling map sends a weight vector to the continuous
function nu(x) = sum_{(x_s,t)} lambda_{x_s,t} * G(x - x_s, t) -- the dual
certificate -- evaluable anywhere together with its gradient and Hessian.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .field import SparseMeasure, _as_points, kernel_matrix, kernel_peak, tensor_points

__all__ = [
    "SampleSet",
    "MeasurementOperator",
    "DictionaryMatrix",
    "DualCertificate",
    "measure",
    "certificate_eval",
    "certificate_gradient",
    "build_dictionary",
]

# Most values in a block of DualCertificate.mesh_blocks: 2**16 float64, 512 KiB,
# so a dense mesh is never whole.  A 1D block on tensor samples builds one
# kernel column per value over the nonzero-weight sensors, at most d * 2**16
# entries.
_MESH_BLOCK = 1 << 16


@dataclass(frozen=True)
class SampleSet:
    """Spatiotemporal sample points: positions ``(d, dim)`` and times ``(d,)``.

    ``grid_axes`` is derived: the sorted coordinates per axis when ``xs`` is
    their :func:`tensor_points` mesh at one time, else None (see ``on_mesh``).
    """

    xs: np.ndarray
    ts: np.ndarray

    def __post_init__(self) -> None:
        xs = np.atleast_2d(np.asarray(self.xs, dtype=float))
        ts = np.atleast_1d(np.asarray(self.ts, dtype=float))
        if xs.ndim != 2 or xs.shape[0] != ts.shape[0]:
            raise ValueError("xs must be (d, dim) with one time per sample")
        if xs.shape[0] < 1:
            raise ValueError("sample set must be non-empty")
        if not (np.all(np.isfinite(xs)) and np.all(np.isfinite(ts))):
            raise ValueError("sample positions and times must be finite")
        if np.any(ts <= 0):
            raise ValueError("all sample times must be positive")
        xs.setflags(write=False)
        ts.setflags(write=False)
        object.__setattr__(self, "xs", xs)
        object.__setattr__(self, "ts", ts)

    @classmethod
    def grid(cls, axes, times) -> "SampleSet":
        """The tensor mesh of per-axis sensor coordinates at each of ``times``, time-major."""
        pts = tensor_points([np.asarray(a, dtype=float) for a in axes])
        times = np.atleast_1d(np.asarray(times, dtype=float))
        return cls(np.tile(pts, (times.size, 1)), np.repeat(times, pts.shape[0]))

    @functools.cached_property
    def grid_axes(self) -> tuple[np.ndarray, ...] | None:
        axes = tuple(np.unique(coords) for coords in self.xs.T)
        if np.any(self.ts != self.ts[0]) or math.prod(map(len, axes)) != self.d:
            return None
        return axes if np.array_equal(tensor_points(axes), self.xs) else None

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
    return DualCertificate(op, np.array(lam)).derivatives(x)[1]  # a copy: the certificate freezes it


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

    def derivatives(self, x):
        """nu, grad nu and the Hessian of nu at point(s) x: (n,), (n, dim) and (n, dim, dim) arrays.

        All three in closed form from one kernel matrix K and one (d, n)
        difference D = x_i - x per axis: grad nu = sum_i w_i K D / t_i and
        hess nu = sum_i w_i K (D D^T / t_i - I) / t_i.  A single point drops
        the first axis.
        """
        pts, single = _as_points(x, self.op.dim)
        xs, ts = self.op.samples.xs, self.op.samples.ts
        K = kernel_matrix(xs, ts, pts)
        w1 = self.weights / ts
        w2 = w1 / ts
        diffs = [np.subtract.outer(c, q) for c, q in zip(xs.T, pts.T)]
        grad = np.empty(pts.shape)
        hess = np.empty(pts.shape + pts.shape[1:])
        for j, D in enumerate(diffs):
            KD = K * D
            grad[:, j] = w1 @ KD
            for k in range(j + 1):
                hess[:, j, k] = hess[:, k, j] = w2 @ (KD * diffs[k])
            hess[:, j, j] -= w1 @ K
        out = self.weights @ K, grad, hess
        return tuple(a[0] for a in out) if single else out

    def gradient_bound(self) -> float:
        """Upper bound on |grad nu| over all of space (sum of per-term maxima)."""
        ts = self.op.samples.ts
        per_term = kernel_peak(ts, self.op.dim) * math.exp(-0.5) / np.sqrt(ts)
        return float(np.abs(self.weights) @ per_term)

    def mesh_blocks(self, axes):
        """Values on a tensor evaluation mesh, a block of rows of its first axis at a time.

        Yields ``(rows, values)``: a slice of the first axis and the values on
        those rows, shape ``(rows, n_2, ...)``, a fresh array the caller may
        overwrite.  A block holds at most ``_MESH_BLOCK`` values, and is one
        row at least.  Separable where the samples are a tensor grid at one
        time (``grid_axes``): the per-axis 1D kernel matrices F_j, whose
        product is the dim-D kernel, give a block as ``F_0[:, rows]^T @ w`` in
        1D, where only those columns of F_0 are built, and as
        ``left[rows] @ F_1`` in 2D, where F_1 and ``left = F_0^T W`` are built
        once.  The factors span only the sensors that carry a nonzero weight:
        in 1D those sensors, in 2D the rows and columns of the weight matrix W
        that hold a nonzero entry (all of them for a dense weight vector), so a
        1D block builds at most ``d * _MESH_BLOCK`` kernel entries.  Point by
        point otherwise, where a block's kernel matrix holds at most
        ``_MESH_BLOCK`` entries.
        """
        axes = [np.asarray(a, dtype=float) for a in axes]
        if len(axes) != self.op.dim:
            raise ValueError("mesh must have one axis per dimension")
        row_shape = tuple(a.size for a in axes[1:])
        grid_axes = self.op.samples.grid_axes
        if grid_axes is not None:
            t = float(self.op.samples.ts[0])
            W = self.weights.reshape([ga.size for ga in grid_axes])
            # a sensor coordinate whose weights are all zero adds nothing
            nz = W != 0
            keep = [nz.any(axis=tuple(k for k in range(nz.ndim) if k != j)) for j in range(nz.ndim)]
            if not all(map(np.all, keep)):
                W = W[np.ix_(*keep)]
                grid_axes = [ga[k] for ga, k in zip(grid_axes, keep)]
            cols = [ga.reshape(-1, 1) for ga in grid_axes]
            if len(axes) == 2:
                F_0, F_1 = (kernel_matrix(c, t, ax.reshape(-1, 1)) for c, ax in zip(cols, axes))
                left = F_0.T @ W
        per_row = math.prod(row_shape) * (1 if grid_axes is not None else self.op.d)
        step = max(1, _MESH_BLOCK // per_row)
        for i in range(0, axes[0].size, step):
            rows = slice(i, i + step)
            if grid_axes is None:
                pts = tensor_points([axes[0][rows], *axes[1:]])
                yield rows, self(pts).reshape(-1, *row_shape)
            elif len(axes) == 1:
                yield rows, kernel_matrix(cols[0], t, axes[0][rows].reshape(-1, 1)).T @ W
            else:
                yield rows, left[rows] @ F_1

    def on_mesh(self, axes) -> np.ndarray:
        """Values on a tensor evaluation mesh, one 1D coordinate array per axis.

        All of :meth:`mesh_blocks`, concatenated, so the result is as large as
        the mesh; a reduction over a dense mesh, such as the certificate lab's
        sup-norms, takes it block by block instead.  A small mesh, such as
        refinement's continuum-gap mesh, is one block.
        """
        return np.concatenate([vals for _, vals in self.mesh_blocks(axes)])


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
