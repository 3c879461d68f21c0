"""Adaptive grid refinement driven by dual certificates.

One round = solve the discretized dual on the current candidate grid and
measure the continuum optimality gap ``max_x |nu(x)| - 1`` of its
certificate over the whole domain (the optimality condition of the
continuous TV-norm problem, Duval & Peyre 2015).  The loop stops once the gap
is at most ``_GAP_TOL``.  Otherwise it keeps the grid points where the
certificate has near-unit modulus, inserts new candidates at half the local
spacing around them, and adds the points where the certificate exceeds
``1 + _GAP_TOL`` off the grid (the exchange step of Flinth, de Gournay &
Weiss 2021).  The grid only grows, with old points first, so each round
appends the new points' columns to the last round's dictionary, grown in
place in a buffer with spare columns, and each round's path starts from the
last round's solution.  After the loop
the final round's primal coefficients are condensed into source positions,
in 1D and 2D alike: atoms closer than one kernel width are chained and each
chain becomes its mass-weighted centroid.  Amplitudes are then recovered by
a pseudo-inverse on that support.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import operators
from .field import SparseMeasure, _is_count, _is_real, tensor_points
from .operators import DictionaryMatrix, DualCertificate, MeasurementOperator, build_dictionary
from .solvers import SolveOutcome, SolverConfig, solve_l1_equality, solve_lasso

__all__ = [
    "INITIAL_POINTS_PER_DIM",
    "CandidateGrid",
    "RefinementConfig",
    "RoundDiagnostics",
    "RecoveryResult",
    "run_refinement",
    "select_peaks_1d",
    "refine_grid",
    "exchange_step",
    "continuum_gap",
    "recover_amplitudes",
]

_KEY_DECIMALS = 9  # grid points closer than 1e-9 are considered identical
_MIN_CHAIN_MASS = 1e-3  # chains lighter than this share of |x|_1 are dropped
_GAP_TOL = 1e-4  # refinement stops once max |nu| over the domain is at most 1 + this
_MESH_PER_WIDTH = 4  # gap mesh points per kernel width sqrt(t) along each axis
_NEWTON_STEPS = 2  # Newton steps from each mesh maximum and selected grid point
_START_MARGIN = 0.1  # points where |nu| is below 1 - this start no Newton steps
INITIAL_POINTS_PER_DIM = 16  # points per axis of the uniform start grid


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
        pts = tensor_points(axes)
        h0 = float(np.min((hi - lo) / n_per_dim))
        return cls(pts, np.full(pts.shape[0], h0), lo, hi)

    @property
    def size(self) -> int:
        return self.points.shape[0]

    @property
    def dim(self) -> int:
        return self.points.shape[1]


def refine_grid(grid: CandidateGrid, selected) -> CandidateGrid:
    """Insert half-spacing neighbors around the points picked by a boolean mask.

    ``selected`` is a boolean mask over ``grid.points``.  Each selected point
    with spacing h spawns the 3**dim stencil at offsets of -h/2, 0 and +h/2 per
    axis, clipped to the domain: the two neighbors at +-h/2 in 1D, the 8
    surrounding points in 2D.  Candidates that round to an existing point (or
    to an earlier candidate) merge into it; every point takes the smallest
    spacing among the candidates merged into it, so a selected point's own
    spacing halves.  Existing points keep their order and new points follow
    in order of first appearance.
    """
    mask = np.asarray(selected)
    if mask.dtype != bool or mask.shape != (grid.size,):
        raise ValueError(f"selected must be a boolean mask of shape ({grid.size},)")
    if not mask.any():
        return grid
    half = 0.5 * grid.spacing[mask]
    stencil = tensor_points([[-1.0, 0.0, 1.0]] * grid.dim)
    cand = np.clip(grid.points[mask, None, :] + half[:, None, None] * stencil, grid.lo, grid.hi)
    pts = np.concatenate([grid.points, cand.reshape(-1, grid.dim)])
    spacing = np.concatenate([grid.spacing, np.repeat(half, stencil.shape[0])])
    # equal keys sort next to each other, lowest index first (lexsort is stable)
    keys = np.round(pts, _KEY_DECIMALS)
    perm = np.lexsort(keys.T[::-1])
    keys = keys[perm]
    starts = np.flatnonzero(np.concatenate([[True], np.any(keys[1:] != keys[:-1], axis=1)]))
    first = perm[starts]
    folded = np.minimum.reduceat(spacing[perm], starts)
    order = np.argsort(first)  # distinct keys in order of first appearance
    return CandidateGrid(pts[first[order]], folded[order], grid.lo, grid.hi)


def exchange_step(grid: CandidateGrid, selected, points) -> CandidateGrid:
    """``refine_grid(grid, selected)``, then the points of ``points`` (n, dim) it does not resolve.

    A point farther from its nearest point of the refined grid than half
    that point's spacing, which the next refinement around it would not
    reach, is appended after the refined grid at half that spacing.
    """
    refined = refine_grid(grid, selected)
    pts = np.asarray(points, dtype=float).reshape(-1, grid.dim)
    d2 = np.sum((pts[:, None, :] - refined.points[None, :, :]) ** 2, axis=-1)
    near = np.argmin(d2, axis=1)
    half = 0.5 * refined.spacing[near]
    far = d2[np.arange(pts.shape[0]), near] > half**2
    if not far.any():
        return refined
    return CandidateGrid(
        np.concatenate([refined.points, pts[far]]),
        np.concatenate([refined.spacing, half[far]]),
        grid.lo, grid.hi,
    )


def continuum_gap(certificate: DualCertificate, lo, hi, points, values) -> tuple[float, np.ndarray]:
    """``max |nu| - 1`` over the box [lo, hi], and the points where |nu| exceeds ``1 + _GAP_TOL``.

    ``values`` are the certificate's values at ``points`` (n, dim), such as
    the selected grid points.  nu is also evaluated on a tensor mesh of
    ``_MESH_PER_WIDTH`` points per kernel width sqrt(t) (the smallest sample
    time).  The mesh nodes where |nu| is a local maximum over their 3**dim
    block and the given points, if |nu| is at least ``1 - _START_MARGIN``
    there, start ``_NEWTON_STEPS`` Newton steps toward a maximum of |nu|:
    the highest of them per mesh node they round to.  The Hessian is a
    forward difference of ``certificate_gradient`` over 1e-5 kernel widths.
    Where it is not definite with the sign opposite to nu's, the step is
    t * grad nu / nu instead, which lands on the peak of a single Gaussian
    bump; every step is cut to one mesh spacing and clipped to the box.  The
    gap is the largest |nu| seen, minus 1.  The returned points are the
    endpoints above ``1 + _GAP_TOL``, highest first, less those within half
    a mesh spacing of a higher one.
    """
    op = certificate.op
    lo = np.atleast_1d(np.asarray(lo, dtype=float))
    hi = np.atleast_1d(np.asarray(hi, dtype=float))
    t = float(np.min(op.samples.ts))
    n = np.array([math.ceil((h - l) * _MESH_PER_WIDTH / math.sqrt(t)) + 1 for l, h in zip(lo, hi)])
    spacing = (hi - lo) / (n - 1)
    axes = [l + s * np.arange(m) for l, s, m in zip(lo, spacing, n)]
    mesh = certificate.on_mesh(axes)
    # local maxima of |nu| on the mesh, as flat indices into its zero-padded copy
    padded = np.zeros(n + 2)
    padded[(slice(1, -1),) * op.dim] = np.abs(mesh)
    flat = padded.ravel()
    block = np.ravel_multi_index(tuple(tensor_points([[-1, 0, 1]] * op.dim).astype(int).T + 1), n + 2)
    node = np.flatnonzero(flat >= 1.0 - _START_MARGIN)
    node = node[np.all(flat[node, None] >= flat[node[:, None] + block - block[block.size // 2]], axis=1)]
    node = np.stack(np.unravel_index(node, n + 2), axis=-1) - 1
    keep = np.abs(values) >= 1.0 - _START_MARGIN
    x = np.concatenate([lo + spacing * node, np.asarray(points, dtype=float).reshape(-1, op.dim)[keep]])
    v = np.concatenate([mesh[tuple(node.T)], np.asarray(values, dtype=float)[keep]])
    best = max(float(np.max(flat)), float(np.max(np.abs(values), initial=0.0)))
    # one start per mesh node: the highest point that rounds to it
    order = np.argsort(-np.abs(v), kind="stable")
    cell = np.ravel_multi_index(tuple(np.round((x[order] - lo) / spacing).astype(int).T), n, mode="clip")
    _, first = np.unique(cell, return_index=True)
    x, v = x[order[first]], v[order[first]]
    if x.shape[0] == 0:
        return best - 1.0, x
    eps = 1e-5 * math.sqrt(t)
    probe = eps * np.eye(op.dim + 1, op.dim, -1)  # x, then x + eps along each axis
    for _ in range(_NEWTON_STEPS):
        at = (probe[:, None, :] + x[None, :, :]).reshape(-1, op.dim)
        grads = operators.certificate_gradient(op, certificate.weights, at).reshape(op.dim + 1, -1, op.dim)
        g = grads[0]
        # the Hessian [[a, b], [b, c]] (or [[a]] in 1D) in closed form
        hess = (grads[1:] - g) / eps
        a = hess[0, :, 0]
        if op.dim == 1:
            det, adj = a, g
            ok = np.sign(v) * a < 0.0
        else:
            b, c = 0.5 * (hess[0, :, 1] + hess[1, :, 0]), hess[1, :, 1]
            det = a * c - b * b
            adj = np.stack([c * g[:, 0] - b * g[:, 1], a * g[:, 1] - b * g[:, 0]], axis=-1)
            ok = (np.sign(v) * a < 0.0) & (det > 0.0)
        step = np.where(ok[:, None], -adj / np.where(ok, det, 1.0)[:, None], t * g / v[:, None])
        length = np.linalg.norm(step, axis=1)
        cut = np.min(spacing) / np.maximum(length, np.min(spacing))
        x = np.clip(x + cut[:, None] * step, lo, hi)
    f = np.abs(certificate(x))
    best = max(best, float(np.max(f)))
    order = np.argsort(-f, kind="stable")
    x = x[order[f[order] > 1.0 + _GAP_TOL]]
    near = np.sum((x[:, None, :] - x[None, :, :]) ** 2, axis=-1) <= (0.5 * np.min(spacing)) ** 2
    keep = np.ones(x.shape[0], dtype=bool)
    for i in range(x.shape[0]):
        if keep[i]:
            keep[i + 1:] &= ~near[i, i + 1:]
    return best - 1.0, x[keep]


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
    """Amplitudes on a fixed support by SVD pseudo-inverse of the restricted dictionary.

    ``support`` takes any point shape ``build_dictionary`` takes, (P,) in 1D included.
    """
    A = build_dictionary(op, support)
    if not np.any(A.entries):
        raise ValueError("dictionary restricted to the support is all zero")
    coeffs = np.linalg.pinv(A.entries, rcond=1e-12) @ np.asarray(b, dtype=float)
    return SparseMeasure(A.points, coeffs)


@dataclass
class RefinementConfig:
    lo: np.ndarray
    hi: np.ndarray
    max_rounds: int = 12
    lasso_lambda: float | None = None  # None: the equality solve; a penalty: the LASSO
    solver: SolverConfig | None = None

    def __post_init__(self) -> None:
        self.lo = np.atleast_1d(np.asarray(self.lo, dtype=float))
        self.hi = np.atleast_1d(np.asarray(self.hi, dtype=float))
        if not (_is_count(self.max_rounds) and self.max_rounds >= 1):
            raise ValueError(f"max_rounds must be an integer >= 1, got {self.max_rounds!r}")
        lam = self.lasso_lambda
        if lam is not None and not (_is_real(lam) and lam > 0):
            raise ValueError(f"lasso_lambda must be a positive number or None, got {lam!r}")


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
    continuum_gap: float  # max |nu| - 1 over the domain, see continuum_gap


@dataclass(frozen=True)
class RecoveryResult:
    """Refinement output; ``converged`` means the round-level stopping rule fired.

    ``continuum_gap`` is the last round's ``max |nu| - 1`` over the domain;
    the rule fires (``stopped_by == "certificate_gap"``) once it is at most
    ``_GAP_TOL``.

    Inner-solver convergence per round is tracked in ``per_round``; a round
    whose solve hits its step cap is flagged there and the path point it
    reached is still used (``solver_all_converged`` aggregates the flags).
    """

    estimate: SparseMeasure
    final_grid: np.ndarray
    certificate: DualCertificate
    nu: np.ndarray  # the certificate's values on final_grid, A^T p of the last solve
    rounds: int
    per_round: list[RoundDiagnostics]
    converged: bool
    stopped_by: str  # certificate_gap | empty_selection | max_rounds
    last_outcome: SolveOutcome
    continuum_gap: float

    @property
    def solver_all_converged(self) -> bool:
        return all(dg.solver_converged for dg in self.per_round)


def run_refinement(op: MeasurementOperator, b, cfg: RefinementConfig) -> RecoveryResult:
    """Full certificate-driven refinement loop followed by amplitude recovery.

    Without a penalty (``cfg.lasso_lambda`` None) the data is fit with the
    equality-constrained l1 problem, with one by the LASSO at that penalty;
    the loop stops when the certificate's continuum gap
    ``max |nu| - 1`` is at most ``_GAP_TOL`` (the same rule for both), when
    the round budget is exhausted, or when no grid point clears the selection
    threshold and no off-grid point exceeds ``1 + _GAP_TOL``.
    Each round after the first warm-starts its path, LASSO and equality
    solve alike, from the previous round's primal padded with zeros (see
    :mod:`heatloc.solvers`).
    """
    b = np.asarray(b, dtype=float)
    if b.shape != (op.d,):
        raise ValueError(f"data has shape {b.shape}, expected ({op.d},)")
    lam = cfg.lasso_lambda
    tol = 1e-9 if lam is None else 1e-7
    scfg = cfg.solver or SolverConfig(tol_primal=tol, tol_dual=tol)

    grid = CandidateGrid.uniform(cfg.lo, cfg.hi, INITIAL_POINTS_PER_DIM)
    # the dictionary's columns, grown in place: each round's DictionaryMatrix
    # views the first grid.size columns of this C-order buffer, whose
    # capacity at least doubles when the grid outgrows it
    columns = np.empty((op.d, grid.size))
    built = 0
    diagnostics: list[RoundDiagnostics] = []
    outcome = None
    stopped_by = "max_rounds"

    for k in range(1, cfg.max_rounds + 1):
        # exchange_step keeps the old points first and in order, so the
        # dictionary only gains the columns of the new points
        if grid.size > built:
            if grid.size > columns.shape[1]:
                grown = np.empty((op.d, max(2 * columns.shape[1], grid.size)))
                grown[:, :built] = columns[:, :built]
                columns = grown
            columns[:, built:grid.size] = build_dictionary(op, grid.points[built:]).entries
            built = grid.size
            A = DictionaryMatrix(columns[:, :built], grid.points)
        # resume from the last round's solution, the new points at zero
        start = None if outcome is None else np.pad(outcome.primal, (0, grid.size - outcome.primal.size))
        if lam is not None:
            outcome = solve_lasso(A, b, lam, scfg, start=start)
            # per-unit-penalty dual value: comparable across rounds on the
            # same O(1) scale as the equality dual objective
            dual_obj = outcome.dual_objective / lam
        else:
            outcome = solve_l1_equality(A, b, scfg, start=start)
            dual_obj = outcome.dual_objective

        certificate = DualCertificate(op, outcome.dual)
        nu = A.entries.T @ outcome.dual
        thr = default_peak_threshold(k)
        sel_mask = np.abs(nu) >= thr
        gap, violators = continuum_gap(certificate, cfg.lo, cfg.hi, grid.points[sel_mask], nu[sel_mask])
        diagnostics.append(
            RoundDiagnostics(
                round=k,
                grid_size=grid.size,
                threshold=thr,
                n_selected=int(sel_mask.sum()),
                dual_objective=dual_obj,
                duality_gap=outcome.kkt.duality_gap,
                solver_iterations=outcome.iterations,
                solver_converged=outcome.converged,
                continuum_gap=gap,
            )
        )
        if gap <= _GAP_TOL:
            stopped_by = "certificate_gap"
            break
        if not sel_mask.any() and violators.shape[0] == 0:
            stopped_by = "empty_selection"
            break
        if k < cfg.max_rounds:
            grid = exchange_step(grid, sel_mask, violators)

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
        nu=nu,
        rounds=len(diagnostics),
        per_round=diagnostics,
        converged=stopped_by in ("certificate_gap", "empty_selection"),
        stopped_by=stopped_by,
        last_outcome=outcome,
        continuum_gap=gap,
    )
