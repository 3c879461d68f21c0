"""Point-source heat fields: diffusion kernel, atomic measures, noise injection.

The diffusion kernel used throughout is

    G(x, t) = (4*pi*t)**(-dim/2) * exp(-|x|**2 / (2*t)),

i.e. peak value ``(4*pi*t)**(-dim/2)`` with exponent denominator ``2*t``.
Its total mass is ``2**(-dim/2)``, not 1; the convention is fixed so that a
kernel at time ``t = 2*lam`` has exactly the shape of the certificate lab's
similarity bump ``exp(-|x|**2 / (4*lam))``.  This module is the only one that
knows the convention: :func:`kernel_matrix` is the one evaluator of G and
:func:`kernel_peak` the one source of its peak value.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "SparseMeasure",
    "kernel_peak",
    "kernel_matrix",
    "tensor_points",
    "evaluate_field",
    "add_noise",
]


def _is_count(v) -> bool:
    """True for an integer value, numpy integers included, but not a bool."""
    return isinstance(v, (int, np.integer)) and not isinstance(v, bool)


def _fits_array(n: int) -> bool:
    """True when ``n`` float64 values fit one numpy array, whose size in bytes must fit an intp."""
    return n <= np.iinfo(np.intp).max // 8


def _is_real(v) -> bool:
    """True for an integer or float value, numpy scalars included, but not a bool."""
    return isinstance(v, (int, float, np.integer, np.floating)) and not isinstance(v, bool)


def _as_points(x, dim: int) -> tuple[np.ndarray, bool]:
    """Coerce scalar / (dim,) / (n,) / (n, dim) input to (n, dim); flag single points."""
    arr = np.asarray(x, dtype=float)
    if arr.ndim == 0:
        if dim != 1:
            raise ValueError(f"scalar point given but dim={dim}")
        return arr.reshape(1, 1), True
    if arr.ndim == 1:
        if dim == 1:
            # one or many 1D points
            return arr.reshape(-1, 1), arr.size == 1
        if arr.size != dim:
            raise ValueError(f"point of length {arr.size} does not match dim={dim}")
        return arr.reshape(1, dim), True
    if arr.ndim == 2 and arr.shape[1] == dim:
        return arr, False
    raise ValueError(f"cannot interpret array of shape {arr.shape} as {dim}-D points")


@dataclass(frozen=True)
class SparseMeasure:
    """Finite atomic signed measure: positions ``(s, dim)`` and amplitudes ``(s,)``."""

    positions: np.ndarray
    amplitudes: np.ndarray

    def __post_init__(self) -> None:
        pos = np.atleast_2d(np.asarray(self.positions, dtype=float))
        amp = np.atleast_1d(np.asarray(self.amplitudes, dtype=float))
        if pos.ndim != 2:
            raise ValueError("positions must be a (s, dim) array")
        if amp.ndim != 1 or amp.shape[0] != pos.shape[0]:
            raise ValueError("amplitudes must be one scalar per position")
        if pos.shape[1] not in (1, 2):
            raise ValueError(f"spatial dimension must be 1 or 2, got {pos.shape[1]}")
        if not np.all(np.isfinite(pos)) or not np.all(np.isfinite(amp)):
            raise ValueError("positions and amplitudes must be finite")
        if pos.shape[0] > 1:
            uniq = np.unique(pos, axis=0)
            if uniq.shape[0] != pos.shape[0]:
                raise ValueError("atom positions must be pairwise distinct")
        pos.setflags(write=False)
        amp.setflags(write=False)
        object.__setattr__(self, "positions", pos)
        object.__setattr__(self, "amplitudes", amp)

    @classmethod
    def from_1d(cls, positions, amplitudes) -> "SparseMeasure":
        pos = np.asarray(positions, dtype=float).reshape(-1, 1)
        return cls(pos, np.asarray(amplitudes, dtype=float))

    @classmethod
    def empty(cls, dim: int) -> "SparseMeasure":
        return cls(np.empty((0, dim)), np.empty(0))

    @property
    def dim(self) -> int:
        return self.positions.shape[1]

    @property
    def n_atoms(self) -> int:
        return self.positions.shape[0]

    def tv_norm(self) -> float:
        return float(np.sum(np.abs(self.amplitudes)))


def kernel_peak(t, dim: int):
    """Peak value G(0, t) = (4*pi*t)**(-dim/2); ``t`` may be one time or an array."""
    return (4.0 * math.pi * t) ** (-dim / 2.0)


def kernel_matrix(xs: np.ndarray, ts, points: np.ndarray) -> np.ndarray:
    """(n, P) matrix of kernel values G(x_i - q_j, t_i).

    ``xs`` is (n, dim), ``points`` is (P, dim) and ``ts`` is one time or one
    time per row of ``xs``.
    """
    dim = xs.shape[1]
    # a single time stays a scalar: numpy's array power can differ from the
    # scalar one in the last bit, and field outputs are byte-stable records
    if np.ndim(ts):
        ts = np.asarray(ts, dtype=float)[:, None]
    # one axis at a time: broadcasting over a trailing axis of length dim is
    # several times slower, and the squared distances come out the same bits
    r2 = 0.0
    for x, q in zip(xs.T, points.T):
        diff = x[:, None] - q[None, :]
        r2 = r2 + diff * diff
    return kernel_peak(ts, dim) * np.exp(-r2 / (2.0 * ts))


def tensor_points(axes) -> np.ndarray:
    """(n_1 * ... * n_dim, dim) points of the tensor mesh of ``axes``, last axis fastest."""
    mesh = np.meshgrid(*axes, indexing="ij")
    return np.stack([m.ravel() for m in mesh], axis=-1)


def evaluate_field(mu: SparseMeasure, x, t: float):
    """Field value sum_i c_i * G(x - p_i, t) at one or many points ``x``."""
    if t <= 0:
        raise ValueError(f"field time must be positive, got {t}")
    pts, single = _as_points(x, mu.dim)
    if mu.n_atoms == 0:
        vals = np.zeros(pts.shape[0])
    else:
        vals = kernel_matrix(pts, t, mu.positions) @ mu.amplitudes
    return float(vals[0]) if single else vals


def _standard_normal(n: int, seed: int) -> np.ndarray:
    """n deterministic N(0,1) draws: Box-Muller over a Philox counter stream."""
    gen = np.random.Generator(np.random.Philox(key=np.uint64(seed)))
    m = (n + 1) // 2
    u1 = gen.random(m)
    u2 = gen.random(m)
    r = np.sqrt(-2.0 * np.log1p(-u1))  # 1 - u1 in (0, 1], no log(0)
    z = np.concatenate([r * np.cos(2.0 * math.pi * u2), r * np.sin(2.0 * math.pi * u2)])
    return z[:n]


def add_noise(b, snr_db: float, seed: int) -> np.ndarray:
    """Add white Gaussian noise at the given SNR (dB); deterministic in ``seed``.

    The per-entry noise variance is ``|b|_2^2 * 10**(-snr_db/10) / len(b)``.
    ``snr_db = inf`` returns ``b`` unchanged.
    """
    b = np.asarray(b, dtype=float)
    if math.isinf(snr_db):
        if snr_db > 0:
            return b.copy()
        raise ValueError("snr_db = -inf is not meaningful")
    energy = float(b @ b)
    if energy == 0.0:
        raise ValueError("SNR is undefined for an all-zero signal")
    var = energy * 10.0 ** (-snr_db / 10.0) / b.size
    return b + math.sqrt(var) * _standard_normal(b.size, seed)
