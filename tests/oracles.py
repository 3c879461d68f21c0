"""Independent reference solvers used only by the test suite."""

import math

import numpy as np
from scipy.optimize import least_squares, linprog, minimize

from heatloc.field import SparseMeasure
from heatloc.operators import DualCertificate, build_dictionary, measure
from heatloc.refinement import (
    _GAP_TOL,
    _KEY_DECIMALS,
    CandidateGrid,
    continuum_gap,
    default_peak_threshold,
    exchange_step,
    recover_amplitudes,
    select_peaks_1d,
)
from heatloc.solvers import SolverConfig, solve_l1_equality, solve_lasso


def min_l1_equality_lp(A: np.ndarray, b: np.ndarray) -> np.ndarray:
    """min |x|_1 s.t. A x = b via the split-variable linear program."""
    d, P = A.shape
    res = linprog(
        np.ones(2 * P),
        A_eq=np.hstack([A, -A]),
        b_eq=b,
        bounds=[(0, None)] * (2 * P),
        method="highs",
    )
    if not res.success:
        raise RuntimeError(f"LP oracle failed: {res.message}")
    return res.x[:P] - res.x[P:]


def min_norm_certificate(A: np.ndarray, support, signs) -> np.ndarray:
    """Minimal-norm dual certificate: min |p|_2 s.t. A_S^T p = signs, |A^T p|_inf <= 1.

    The quadratic program is solved by SLSQP from the least-norm solution of
    the equality constraints.  The bound is imposed off the support only,
    where it is not implied by the equalities.
    """
    S = np.asarray(support)
    off = np.setdiff1d(np.arange(A.shape[1]), S)
    B = np.vstack([A[:, off].T, -A[:, off].T])
    cons = [
        {"type": "eq", "fun": lambda p: A[:, S].T @ p - signs, "jac": lambda p: A[:, S].T},
        {"type": "ineq", "fun": lambda p: 1.0 - B @ p, "jac": lambda p: -B},
    ]
    start = np.linalg.lstsq(A[:, S].T, signs, rcond=None)[0]
    res = minimize(
        lambda p: p @ p, start, jac=lambda p: 2.0 * p, constraints=cons,
        method="SLSQP", options={"ftol": 1e-15, "maxiter": 1000},
    )
    if not res.success:
        raise RuntimeError(f"certificate oracle failed: {res.message}")
    return res.x


def lasso_coordinate_descent(
    A: np.ndarray, b: np.ndarray, lam: float, max_sweeps: int = 100_000, tol: float = 1e-13
) -> np.ndarray:
    """Cyclic coordinate descent on the LASSO, run to a tight fixed point.

    The correlations c = A^T (b - A x) move with each coordinate update
    through one row of the Gram matrix A^T A, and are recomputed from x at
    the start of every sweep so that rounding does not build up in them.
    """
    n = A.shape[1]
    gram = A.T @ A
    col2 = np.diag(gram).tolist()
    x = [0.0] * n
    for _ in range(max_sweeps):
        c = A.T @ (b - A @ np.array(x))
        delta = 0.0
        for j in range(n):
            old = x[j]
            rho_j = float(c[j]) + col2[j] * old
            new = math.copysign(max(abs(rho_j) - lam, 0.0), rho_j) / col2[j]
            if new != old:
                c -= (new - old) * gram[j]
                x[j] = new
                delta = max(delta, abs(new - old))
        if delta < tol:
            break
    return np.array(x)


def next_breakpoint_where(q, dq, bound, dbound, active, signs, x_act, w, step, banned, tie):
    """Next breakpoint of an active-set path: ``(step, join, leave)``.

    ``solvers._next_breakpoint`` as first written, with ``np.where``
    temporaries and an ``np.errstate`` of its own per call; the faster
    kernel must return the same events.

    Per unit step the correlations ``q`` move at ``dq``, their bound at
    ``dbound``, and the active coefficients ``x_act`` at ``w``; ``signs``
    are the signs of the active correlations.  An inactive column joins when
    |q_j| reaches the bound; only bounds it approaches count, and one that
    rounding already put past the bound joins at once.  The column
    ``banned`` (one that just left) may not re-enter within ``tie``.  An
    active coefficient leaves when it reaches zero moving against its sign;
    one that rounding left on the wrong side leaves at once.  ``step`` is
    the longest step allowed; ``join`` (an index into q) and ``leave`` (a
    position in ``active``) are -1 unless their event comes first.
    """
    join, leave = -1, -1
    with np.errstate(divide="ignore", invalid="ignore"):
        up, down = dq - dbound, -dq - dbound  # rates of approach to +bound and -bound
        upper = np.where(up > 0.0, np.maximum(bound - q, 0.0) / up, np.inf)
        lower = np.where(down > 0.0, np.maximum(bound + q, 0.0) / down, np.inf)
    cands = np.minimum(upper, lower)
    cands[active] = np.inf
    if banned >= 0 and cands[banned] <= tie:
        cands[banned] = np.inf
    j = int(np.argmin(cands))
    if cands[j] < step:
        step, join = float(cands[j]), j
    rate = signs * w
    with np.errstate(divide="ignore", invalid="ignore"):
        cross = np.where(rate < 0.0, np.maximum(signs * x_act, 0.0) / -rate, np.inf)
    if cross.size and np.min(cross) < step:
        leave = int(np.argmin(cross))
        step, join = float(cross[leave]), -1
    return step, join, leave


def lasso_objective(A, b, lam, x) -> float:
    r = A @ x - b
    return 0.5 * float(r @ r) + lam * float(np.sum(np.abs(x)))


def nlls_oracle(op, b: np.ndarray, truth: SparseMeasure) -> SparseMeasure:
    """Nonlinear least-squares fit of (positions, amplitudes) started at the truth.

    It is told the true source count and starts from the true parameters, so
    its errors on a noisy draw are a floor that no estimator which sees only
    the data can be expected to beat on that draw.
    """
    n, dim = truth.positions.shape

    def unpack(theta):
        return SparseMeasure(theta[: n * dim].reshape(n, dim), theta[n * dim :])

    def residual(theta):
        return measure(op, unpack(theta)) - b

    start = np.concatenate([truth.positions.ravel(), truth.amplitudes])
    fit = least_squares(residual, start, xtol=1e-12, ftol=1e-12, gtol=1e-12)
    return unpack(fit.x)


def refine_grid_loop(grid: CandidateGrid, selected) -> CandidateGrid:
    """Grid refinement one selected position at a time, with a key dict.

    ``selected`` holds positions (S, dim).  Each one takes the spacing of its
    nearest grid point, halves it, and tries its 2 (1D) or 8 (2D) half-spacing
    neighbours, clipped to the domain; a neighbour whose rounded key is known
    only lowers that point's spacing, any other is appended.
    """
    sel = np.atleast_2d(np.asarray(selected, dtype=float))
    if sel.shape[0] == 0:
        return grid
    if grid.dim == 1:
        offsets = np.array([[-1.0], [1.0]])
    else:
        offs = [(i, j) for i in (-1, 0, 1) for j in (-1, 0, 1) if (i, j) != (0, 0)]
        offsets = np.asarray(offs, dtype=float)

    keys = {tuple(np.round(p, _KEY_DECIMALS)): i for i, p in enumerate(grid.points)}
    new_points = list(grid.points)
    new_spacing = list(grid.spacing)
    for s in sel:
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


def refinement_cold_loop(op, b, cfg):
    """The refinement loop with a full dictionary rebuild and a cold solve per round.

    Returns ``(per_round, estimate)``: one ``(grid_size, n_selected)`` pair
    per round and the recovered measure.  Same stop rule (the continuum gap
    at most ``_GAP_TOL``), thresholds, exchange step, extraction and
    amplitude recovery as ``run_refinement``.
    """
    b = np.asarray(b, dtype=float)
    lam = cfg.lasso_lambda
    tol = 1e-9 if lam is None else 1e-7
    scfg = cfg.solver or SolverConfig(tol_primal=tol, tol_dual=tol)
    grid = CandidateGrid.uniform(cfg.lo, cfg.hi, cfg.initial_points_per_dim)
    per_round = []
    for k in range(1, cfg.max_rounds + 1):
        A = build_dictionary(op, grid)
        if lam is not None:
            out = solve_lasso(A, b, lam, scfg)
        else:
            out = solve_l1_equality(A, b, scfg)
        nu = A.entries.T @ out.dual
        sel = np.abs(nu) >= default_peak_threshold(k)
        per_round.append((grid.size, int(sel.sum())))
        cert = DualCertificate(op, out.dual)
        gap, violators = continuum_gap(cert, cfg.lo, cfg.hi, grid.points[sel], nu[sel])
        if gap <= _GAP_TOL:
            break
        if not sel.any() and violators.shape[0] == 0:
            break
        if k < cfg.max_rounds:
            grid = exchange_step(grid, sel, violators)
    support = select_peaks_1d(grid.points, out.primal, math.sqrt(float(np.min(op.samples.ts))))
    if support.shape[0] == 0:
        return per_round, SparseMeasure.empty(op.dim)
    return per_round, recover_amplitudes(op, support, b)


def _jackson_quadrature_nodes(p: int, n_nodes: int) -> np.ndarray:
    n = max(n_nodes, 8 * p)
    return -math.pi + 2.0 * math.pi * np.arange(n) / n


def jackson_multiplier_quadrature(p: int, n_nodes: int) -> np.ndarray:
    """Fourier multipliers of the unit-integral Jackson kernel, n = 0..2p, by quadrature.

    The kernel is normalized by its own node mean, and both integrands are
    trigonometric polynomials of degree below the node count, so the
    uniform rule is exact up to round-off.  Returned complex.
    """
    nodes = _jackson_quadrature_nodes(p, n_nodes)
    half = 0.5 * nodes
    s = np.sin(half)
    ratio = np.full_like(half, float(p))
    mask = np.abs(s) >= 1e-14
    ratio[mask] = np.sin(p * half[mask]) / s[mask]
    vals = ratio**4 / (2.0 * math.pi * np.mean(ratio**4))
    n = np.arange(2 * p + 1)
    phase = np.exp(-1j * n[:, None] * nodes[None, :])
    return 2.0 * math.pi * (phase @ vals) / nodes.size


def wave_coeffs_quadrature(delta: float, p: int, n_nodes: int) -> np.ndarray:
    """Fourier coefficients, n = -2p..2p, of the prolonged plane wave by quadrature.

    The wave is exp(i*delta*theta) on [-pi/2, pi/2], linearly bridged to its
    periodic continuation on [pi/2, 3pi/2].  It has kinks at +-pi/2, so the
    uniform rule's error is O(n_nodes**-2).  Returned complex.
    """
    theta = _jackson_quadrature_nodes(p, n_nodes)
    th = np.mod(theta + 0.5 * math.pi, 2.0 * math.pi) - 0.5 * math.pi
    vals = np.empty(th.shape, dtype=complex)
    wave = th <= 0.5 * math.pi
    vals[wave] = np.exp(1j * delta * th[wave])
    left = np.exp(1j * math.pi * delta / 2.0)
    right = np.exp(-1j * math.pi * delta / 2.0)
    vals[~wave] = left + (th[~wave] - 0.5 * math.pi) * (right - left) / math.pi
    n = np.arange(-2 * p, 2 * p + 1)
    phase = np.exp(-1j * n[:, None] * theta[None, :])
    return (phase @ vals) / theta.size
