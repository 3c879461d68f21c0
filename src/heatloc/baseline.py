"""Fixed-grid comparison method: smoothed-l0 recovery with feasibility projections.

The solver maximizes a Gaussian smoothing of the sparsity count subject to
the linear data constraint, annealing the smoothing width geometrically.
Each gradient step is followed by a projection onto the affine constraint
set through a precomputed pseudo-inverse, so every iterate stays feasible
(up to the conditioning of the sensing matrix).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .field import _is_count, _is_real
from .operators import RhoBounds

__all__ = ["Sl0Config", "Sl0Stage", "sl0_solve", "sl0_solve_with_history", "validate_rho"]


@dataclass(frozen=True)
class Sl0Config:
    sigma_decrease: float = 0.7
    sigma_min: float | None = None  # None: 1e-4 times the initial width
    inner_iters: int = 3
    step_mu: float = 2.0

    def __post_init__(self) -> None:
        if not (_is_count(self.inner_iters) and _is_real(self.sigma_decrease) and _is_real(self.step_mu)):
            raise ValueError("inner_iters must be an integer, sigma_decrease and step_mu numbers")
        if self.sigma_min is not None and not (_is_real(self.sigma_min) and self.sigma_min > 0):
            raise ValueError(f"sigma_min must be a positive number or None, got {self.sigma_min!r}")
        if not 0.0 < self.sigma_decrease < 1.0:
            raise ValueError("sigma_decrease must lie in (0, 1)")
        if self.inner_iters < 1:
            raise ValueError("inner_iters must be >= 1")
        if self.step_mu <= 0:
            raise ValueError("step_mu must be positive")


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


def sl0_solve(A, b, cfg: Sl0Config | None = None) -> np.ndarray:
    """Sparse solution of A x = b by smoothed-l0 annealing."""
    x, _ = sl0_solve_with_history(A, b, cfg)
    return x


def sl0_solve_with_history(A, b, cfg: Sl0Config | None = None) -> tuple[np.ndarray, list[Sl0Stage]]:
    """As :func:`sl0_solve`, also returning per-stage surrogate values."""
    cfg = cfg or Sl0Config()
    E = np.asarray(getattr(A, "entries", A), dtype=float)
    b = np.asarray(b, dtype=float)
    pinv = _pinv_full(E)

    x = pinv @ b
    sigma0 = 2.0 * float(np.max(np.abs(x))) if x.size else 0.0
    history: list[Sl0Stage] = []
    if sigma0 == 0.0:
        return x, history
    sigma_min = cfg.sigma_min if cfg.sigma_min is not None else 1e-4 * sigma0

    sigma = sigma0
    while sigma > sigma_min:
        start = _surrogate(x, sigma)
        for _ in range(cfg.inner_iters):
            x = x - cfg.step_mu * x * np.exp(-(x * x) / (2.0 * sigma * sigma))
            x = x - pinv @ (E @ x - b)
        history.append(Sl0Stage(sigma, start, _surrogate(x, sigma)))
        sigma *= cfg.sigma_decrease
    return x, history


def validate_rho(rho: float, bounds: RhoBounds) -> bool:
    """True iff rho lies strictly inside the well-conditioning interval."""
    return bounds.rho_min < rho < bounds.rho_max
