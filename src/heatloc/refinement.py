"""Adaptive grid refinement driven by dual certificates.

One round = solve the discretized dual on the current candidate grid, keep
the grid points where the certificate has near-unit modulus, and insert new
candidates at half the local spacing around them.  After the loop the final
round's primal coefficients are condensed into source positions, in 1D and
2D alike: atoms closer than one kernel width are chained and each chain
becomes its mass-weighted centroid.  Amplitudes are then recovered by a
pseudo-inverse on that support.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .field import SparseMeasure
from .operators import DualCertificate, MeasurementOperator, build_dictionary
from .solvers import SolveOutcome, SolverConfig, solve_l1_equality, solve_lasso

__all__ = [
    "CandidateGrid",
    "RefinementConfig",
    "RoundDiagnostics",
    "RecoveryResult",
    "run_refinement",
    "select_peaks_1d",
    "refine_grid",
    "recover_amplitudes",
]

_KEY_DECIMALS = 9  # grid points closer than 1e-9 are considered identical
_MIN_CHAIN_MASS = 1e-3  # chains lighter than this share of |x|_1 are dropped


def default_peak_threshold(k: int) -> float:
    """Selection threshold for refinement round k (1-based): 1 - 0.5/4**k."""
    return 1.0 - 0.5 / 4.0**k


@dataclass(frozen=True)
class CandidateGrid:
    """Ordered candidate positions with a local resolution attached to each."""

    points: np.ndarray   # (P, dim)
    spacing: np.ndarray  # (P,)
    lo: np.ndarray       # (dim,)
    hi: np.ndarray       # (dim,)

    def __post_init__(self) -> None:
        pts = np.atleast_2d(np.asarray(self.points, dtype=float))
        sp = np.atleast_1d(np.asarray(self.spacing, dtype=float))
        lo = np.atleast_1d(np.asarray(self.lo, dtype=float))
        hi = np.atleast_1d(np.asarray(self.hi, dtype=float))
        if sp.shape[0] != pts.shape[0]:
            raise ValueError("one spacing per point required")
        if np.any(sp <= 0):
            raise ValueError("spacings must be positive")
        for arr in (pts, sp, lo, hi):
            arr.setflags(write=False)
        object.__setattr__(self, "points", pts)
        object.__setattr__(self, "spacing", sp)
        object.__setattr__(self, "lo", lo)
        object.__setattr__(self, "hi", hi)

    @classmethod
    def uniform(cls, lo, hi, n_per_dim: int) -> "CandidateGrid":
        lo = np.atleast_1d(np.asarray(lo, dtype=float))
        hi = np.atleast_1d(np.asarray(hi, dtype=float))
        axes = [l + np.arange(n_per_dim) * (h - l) / n_per_dim for l, h in zip(lo, hi)]
        mesh = np.meshgrid(*axes, indexing="ij")
        pts = np.stack([m.ravel() for m in mesh], axis=-1)
        h0 = float(np.min((hi - lo) / n_per_dim))
        return cls(pts, np.full(pts.shape[0], h0), lo, hi)

    @property
    def size(self) -> int:
        return self.points.shape[0]

    @property
    def dim(self) -> int:
        return self.points.shape[1]


def refine_grid(grid: CandidateGrid, selected) -> CandidateGrid:
    """Insert half-spacing neighbors around each selected point.

    1D adds the two points at +-h/2; 2D adds the 8 surrounding points of a
    3x3 stencil at half spacing.  Out-of-domain candidates are clipped to the
    domain, duplicates are dropped, and the previous grid is kept intact.
    """
    sel = np.atleast_2d(np.asarray(selected, dtype=float))
    if sel.shape[0] == 0:
        return grid
    dim = grid.dim
    if dim == 1:
        offsets = np.array([[-1.0], [1.0]])
    else:
        offs = [(i, j) for i in (-1, 0, 1) for j in (-1, 0, 1) if (i, j) != (0, 0)]
        offsets = np.asarray(offs, dtype=float)

    keys = {tuple(np.round(p, _KEY_DECIMALS)): i for i, p in enumerate(grid.points)}
    new_points = list(grid.points)
    new_spacing = list(grid.spacing)

    for s in sel:
        # the local resolution is that of the nearest existing grid point
        d2 = np.einsum("pd,pd->p", grid.points - s, grid.points - s)
        near = int(np.argmin(d2))
        half = 0.5 * grid.spacing[near]
        new_spacing[near] = min(new_spacing[near], half)
        for off in offsets:
            cand = np.clip(s + half * off, grid.lo, grid.hi)
            key = tuple(np.round(cand, _KEY_DECIMALS))
            if key in keys:
                idx = keys[key]
                new_spacing[idx] = min(new_spacing[idx], half)
                continue
            keys[key] = len(new_points)
            new_points.append(cand)
            new_spacing.append(half)

    return CandidateGrid(np.asarray(new_points), np.asarray(new_spacing), grid.lo, grid.hi)


def select_peaks_1d(positions, coefficients, width: float) -> np.ndarray:
    """Source positions from grid coefficients, one per chain of atoms.

    ``positions`` holds one point per coefficient, as (P,) or (P, dim).  The
    atoms (points with a nonzero coefficient) are chained by single linkage:
    atoms closer than ``width`` share a chain, which in 1D means consecutive
    atoms less than ``width`` apart.  Each chain is replaced by the centroid
    of its atoms weighted by their coefficient magnitudes, and chains holding
    less than ``_MIN_CHAIN_MASS`` of the total l1 mass are dropped.  Returns a
    (k, dim) array, chains ordered by their smallest first coordinate.
    """
    if width <= 0:
        raise ValueError(f"width must be positive, got {width}")
    mass = np.abs(np.asarray(coefficients, dtype=float)).reshape(-1)
    pos = np.asarray(positions, dtype=float)
    if pos.ndim == 1:
        pos = pos[:, None]
    atoms = np.flatnonzero(mass)
    order = atoms[np.argsort(pos[atoms, 0], kind="stable")]
    pos, mass = pos[order], mass[order]
    n = mass.size
    near = np.linalg.norm(pos[:, None, :] - pos[None, :, :], axis=-1) < width
    # each atom takes the smallest index among its neighbours until nothing
    # changes; every chain is then named by its first atom in sorted order
    chain = np.arange(n)
    while True:
        linked = np.where(near, chain, n).min(axis=1, initial=n)
        if np.array_equal(linked, chain):
            break
        chain = linked
    total = float(np.sum(mass))
    peaks = []
    for c in np.unique(chain):
        x, m = pos[chain == c], mass[chain == c]
        if np.sum(m) >= _MIN_CHAIN_MASS * total:
            # a dot product per coordinate: in 1D the plain vector dot, from
            # which a vector-matrix product can differ in the last bit
            peaks.append([m @ col for col in x.T] / np.sum(m))
    return np.asarray(peaks, dtype=float).reshape(-1, pos.shape[1])


# One extractor for every dimension; perfbench/tracing.py still wraps this name.
select_peaks_2d = select_peaks_1d


def recover_amplitudes(op: MeasurementOperator, support, b) -> SparseMeasure:
    """Amplitudes on a fixed support by SVD pseudo-inverse of the restricted dictionary."""
    pts = np.atleast_2d(np.asarray(support, dtype=float))
    if pts.shape[0] == 0:
        raise ValueError("support must be non-empty")
    A = build_dictionary(op, pts)
    if not np.any(A.entries):
        raise ValueError("dictionary restricted to the support is all zero")
    coeffs = np.linalg.pinv(A.entries, rcond=1e-12) @ np.asarray(b, dtype=float)
    return SparseMeasure(pts, coeffs)


@dataclass
class RefinementConfig:
    lo: np.ndarray
    hi: np.ndarray
    initial_points_per_dim: int = 16
    peak_threshold: Callable[[int], float] = default_peak_threshold
    stop_tol: float | None = None          # default 1e-4 noiseless, 1e-6 noisy
    max_rounds: int = 12
    lasso_lambda: float | Callable[[np.ndarray], float] | None = None
    solver: SolverConfig | None = None

    def __post_init__(self) -> None:
        self.lo = np.atleast_1d(np.asarray(self.lo, dtype=float))
        self.hi = np.atleast_1d(np.asarray(self.hi, dtype=float))
        if self.stop_tol is not None and self.stop_tol <= 0:
            raise ValueError("stop_tol must be positive")


@dataclass(frozen=True)
class RoundDiagnostics:
    round: int
    grid_size: int
    threshold: float
    n_selected: int
    dual_objective: float
    duality_gap: float
    solver_iterations: int
    solver_converged: bool


@dataclass(frozen=True)
class RecoveryResult:
    """Refinement output; ``converged`` means the round-level stopping rule fired.

    Inner-solver convergence per round is tracked in ``per_round``; a round
    whose solve hits its step cap is flagged there and the path point it
    reached is still used (``solver_all_converged`` aggregates the flags).
    """

    estimate: SparseMeasure
    final_grid: np.ndarray
    certificate: DualCertificate
    rounds: int
    per_round: list[RoundDiagnostics]
    converged: bool
    stopped_by: str  # objective_stall | empty_selection | max_rounds
    last_outcome: SolveOutcome

    @property
    def solver_all_converged(self) -> bool:
        return all(dg.solver_converged for dg in self.per_round)


def run_refinement(op: MeasurementOperator, b, cfg: RefinementConfig, noisy: bool) -> RecoveryResult:
    """Full certificate-driven refinement loop followed by amplitude recovery.

    Noiseless data is fit with the equality-constrained l1 problem, noisy data
    with the LASSO; the loop stops when the dual objective stalls, the round
    budget is exhausted, or no grid point clears the selection threshold.
    """
    b = np.asarray(b, dtype=float)
    if b.shape != (op.d,):
        raise ValueError(f"data has shape {b.shape}, expected ({op.d},)")
    stop_tol = cfg.stop_tol if cfg.stop_tol is not None else (1e-6 if noisy else 1e-4)
    scfg = cfg.solver or SolverConfig(
        tol_primal=1e-7 if noisy else 1e-9, tol_dual=1e-7 if noisy else 1e-9
    )
    lam = None
    if noisy:
        lam = cfg.lasso_lambda(b) if callable(cfg.lasso_lambda) else cfg.lasso_lambda
        if lam is None:
            raise ValueError("noisy refinement needs lasso_lambda (value or rule)")

    grid = CandidateGrid.uniform(cfg.lo, cfg.hi, cfg.initial_points_per_dim)
    diagnostics: list[RoundDiagnostics] = []
    outcome = None
    prev_obj = None
    stopped_by = "max_rounds"

    for k in range(1, cfg.max_rounds + 1):
        A = build_dictionary(op, grid)
        if noisy:
            outcome = solve_lasso(A, b, lam, scfg)
            # per-unit-penalty dual value: comparable across rounds on the
            # same O(1) scale as the equality dual objective
            stop_obj = outcome.dual_objective / lam
        else:
            outcome = solve_l1_equality(A, b, scfg)
            stop_obj = outcome.dual_objective

        nu = A.entries.T @ outcome.dual
        thr = cfg.peak_threshold(k)
        sel_mask = np.abs(nu) >= thr
        selected = grid.points[sel_mask]
        diagnostics.append(
            RoundDiagnostics(
                round=k,
                grid_size=grid.size,
                threshold=thr,
                n_selected=int(sel_mask.sum()),
                dual_objective=stop_obj,
                duality_gap=outcome.kkt.duality_gap,
                solver_iterations=outcome.iterations,
                solver_converged=outcome.converged,
            )
        )
        if prev_obj is not None and abs(stop_obj - prev_obj) < stop_tol:
            stopped_by = "objective_stall"
            break
        prev_obj = stop_obj
        if selected.shape[0] == 0:
            stopped_by = "empty_selection"
            break
        if k < cfg.max_rounds:
            grid = refine_grid(grid, selected)

    certificate = DualCertificate(op, outcome.dual)

    # the final round's coefficients, chained within one kernel width
    width = math.sqrt(float(np.min(op.samples.ts)))
    support = select_peaks_1d(grid.points, outcome.primal, width)

    if support.shape[0] == 0:
        estimate = SparseMeasure.empty(op.dim)
    else:
        estimate = recover_amplitudes(op, support, b)

    return RecoveryResult(
        estimate=estimate,
        final_grid=grid.points,
        certificate=certificate,
        rounds=len(diagnostics),
        per_round=diagnostics,
        converged=stopped_by in ("objective_stall", "empty_selection"),
        stopped_by=stopped_by,
        last_outcome=outcome,
    )
