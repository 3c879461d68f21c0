"""Fixed-grid comparison method: smoothed-l0 recovery with feasibility projections.

Everything the method knows lives here: its discrete sensing matrix over a
source grid, the sampling-density bounds inside which that matrix is claimed
usable, the solver and the top-``s`` pick.  The sensors and sample times are
the scenario's own samples, laid out by ``bench.build_operator``.

The solver maximizes a Gaussian smoothing of the sparsity count subject to
the linear data constraint, annealing the smoothing width geometrically.
Each gradient step is followed by a projection onto the affine constraint
set through a precomputed pseudo-inverse, so every iterate stays feasible
(up to the conditioning of the sensing matrix).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .field import SparseMeasure
from .operators import DictionaryMatrix, SampleSet

__all__ = [
    "RhoBounds",
    "Sl0Stage",
    "baseline_estimate",
    "baseline_matrix",
    "rho_bounds",
    "sl0_solve",
    "sl0_solve_with_history",
]

# The annealing schedule of Mohimani, Babaie-Zadeh & Jutten (2009): the width
# shrinks by SIGMA_DECREASE per stage from twice the largest entry of the
# least-norm solution down to SIGMA_MIN_RATIO times that start, with
# INNER_ITERS gradient steps of size STEP_MU per stage.
SIGMA_DECREASE = 0.7
SIGMA_MIN_RATIO = 1e-4
INNER_ITERS = 3
STEP_MU = 2.0


@dataclass(frozen=True)
class RhoBounds:
    """Sampling-density interval inside which the baseline matrix is claimed usable.

    ``rho in bounds`` is true iff rho lies strictly inside the interval.
    """

    rho_min: float
    rho_max: float

    def __contains__(self, rho: float) -> bool:
        return self.rho_min < rho < self.rho_max

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


def baseline_matrix(samples: SampleSet, sources) -> DictionaryMatrix:
    """Fixed-grid discrete sensing matrix of the comparison method.

    One row per sample of the 1D sample set and one column per source grid
    point, with entries ``(4*pi*t)**(-1/2) * exp(-(x - q)**2 / (4*t))`` for a
    sample at (x, t) and a source at q, built one block of rows per distinct
    time.  Note the exponent denominator is ``4*t`` here, unlike the ``2*t``
    convention of the continuous model; the two conventions are deliberately
    kept distinct.
    """
    xs = samples.xs[:, 0]
    src = np.asarray(sources, dtype=float).reshape(-1)
    entries = np.empty((samples.d, src.size))
    for t in np.unique(samples.ts):
        rows = samples.ts == t
        diff2 = (xs[rows, None] - src[None, :]) ** 2
        entries[rows] = (4.0 * math.pi * t) ** -0.5 * np.exp(-diff2 / (4.0 * t))
    return DictionaryMatrix(entries, src.reshape(-1, 1))


def baseline_estimate(samples: SampleSet, sources, b, s: int) -> SparseMeasure:
    """SL0 estimate on the source grid, cut to its ``s`` largest entries.

    The top-``s`` pick is told the source count: unlike the refinement path,
    the baseline is given how many sources there are.
    """
    A = baseline_matrix(samples, sources)
    x = sl0_solve(A, b)
    keep = np.sort(np.argsort(-np.abs(x))[:s])
    return SparseMeasure(A.points[keep], x[keep])


@dataclass(frozen=True)
class Sl0Stage:
    sigma: float
    surrogate_start: float
    surrogate_end: float


def _surrogate(x: np.ndarray, sigma: float) -> float:
    """Smoothed sparsity count: P - sum_j exp(-x_j^2 / (2 sigma^2))."""
    return float(x.size - np.sum(np.exp(-(x * x) / (2.0 * sigma * sigma))))


def _pinv_full(E: np.ndarray) -> np.ndarray:
    """Untruncated pseudo-inverse; rejects only structural rank deficiency.

    Deliberately lenient: severely ill-conditioned but formally full-row-rank
    matrices are inverted as-is, which is exactly the failure mode the
    comparison is meant to expose.
    """
    d, P = E.shape
    if d > P:
        raise ValueError("sensing matrix must have at least as many columns as rows")
    u, s, vt = np.linalg.svd(E, full_matrices=False)
    if s[0] == 0.0 or s[-1] <= s[0] * 1e-150:
        raise ValueError("sensing matrix is rank deficient")
    return vt.T @ ((u / s).T)


def sl0_solve(A, b) -> np.ndarray:
    """Sparse solution of A x = b by smoothed-l0 annealing."""
    x, _ = sl0_solve_with_history(A, b)
    return x


def sl0_solve_with_history(A, b) -> tuple[np.ndarray, list[Sl0Stage]]:
    """As :func:`sl0_solve`, also returning per-stage surrogate values."""
    E = np.asarray(getattr(A, "entries", A), dtype=float)
    b = np.asarray(b, dtype=float)
    pinv = _pinv_full(E)

    x = pinv @ b
    sigma0 = 2.0 * float(np.max(np.abs(x))) if x.size else 0.0
    history: list[Sl0Stage] = []
    if sigma0 == 0.0:
        return x, history
    sigma_min = SIGMA_MIN_RATIO * sigma0

    sigma = sigma0
    while sigma > sigma_min:
        start = _surrogate(x, sigma)
        for _ in range(INNER_ITERS):
            x = x - STEP_MU * x * np.exp(-(x * x) / (2.0 * sigma * sigma))
            x = x - pinv @ (E @ x - b)
        history.append(Sl0Stage(sigma, start, _surrogate(x, sigma)))
        sigma *= SIGMA_DECREASE
    return x, history
