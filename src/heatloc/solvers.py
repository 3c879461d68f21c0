"""Solvers for the discretized sparse recovery problems.

* equality-constrained l1:   min |x|_1  s.t.  A x = b,
  whose dual is               max <b, p>  s.t.  |A^T p|_inf <= 1,
  solved by a first-order primal-dual saddle-point scheme (alternating a
  proximal ascent in the dual and a proximal descent in the primal, with
  over-relaxation);
* unconstrained LASSO:        min 0.5*|A x - b|^2 + lam*|x|_1,
  whose dual vector is read off as  p = (b - A x) / lam,
  solved exactly by following its piecewise-linear solution path in lam
  (an active-set homotopy; every step is a linear solve of the size of the
  active set, which in general position is at most the number of rows of A).
  The same path follower also stops where |x|_1 reaches a radius, which
  solves the l1-ball least squares  min |A x - b|  s.t.  |x|_1 <= rho
  used by the certificate lab's noisy check.

Outcomes carry the primal iterate, the dual vector in the convention above,
and certified KKT residuals including a duality gap evaluated at a
feasibility-rescaled dual point.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "SolverConfig",
    "KktResiduals",
    "SolveOutcome",
    "solve_l1_equality",
    "solve_lasso",
    "operator_norm_estimate",
]

_STEP_SAFETY = 1.02  # inflate the operator-norm estimate before setting step sizes
_SUPPORT_EPS = 1e-6  # relative threshold defining the support for sign alignment
_TIE_EPS = 1e-12  # homotopy steps below this fraction of the penalty count as ties


@dataclass(frozen=True)
class SolverConfig:
    max_iters: int = 100_000
    tol_primal: float = 1e-9
    tol_dual: float = 1e-9
    step_ratio: float = 1.0
    operator_norm_power_iters: int = 200
    check_every: int = 50

    def __post_init__(self) -> None:
        if self.tol_primal <= 0 or self.tol_dual <= 0:
            raise ValueError("tolerances must be positive")
        if self.max_iters < 1:
            raise ValueError("max_iters must be >= 1")
        if self.step_ratio <= 0:
            raise ValueError("step_ratio must be positive")


@dataclass(frozen=True)
class KktResiduals:
    feasibility: float
    certificate_bound: float
    support_alignment: float
    duality_gap: float


@dataclass(frozen=True)
class SolveOutcome:
    primal: np.ndarray
    dual: np.ndarray
    kkt: KktResiduals
    iterations: int
    converged: bool
    objective: float
    dual_objective: float


def _entries(A) -> np.ndarray:
    return np.asarray(getattr(A, "entries", A), dtype=float)


def operator_norm_estimate(A, n_iters: int | None = None) -> float:
    """Largest singular value of A, via power iteration on A^T A.

    The starting vector is a fixed pseudo-random direction, so the estimate
    is deterministic for a given matrix.
    """
    mat = _entries(A)
    if not np.any(mat):
        raise ValueError("operator norm of a zero matrix is not useful")
    iters = 200 if n_iters is None else max(1, n_iters)
    gen = np.random.Generator(np.random.Philox(key=np.uint64(0x9E3779B9)))
    v = gen.standard_normal(mat.shape[1])
    v /= np.linalg.norm(v)
    est = 0.0
    for _ in range(iters):
        w = mat.T @ (mat @ v)
        nw = np.linalg.norm(w)
        if nw == 0.0:
            break
        v = w / nw
        est = math.sqrt(nw)
    return float(est)


def _soft_threshold(z: np.ndarray, thr: float) -> np.ndarray:
    return np.sign(z) * np.maximum(np.abs(z) - thr, 0.0)


def _support_alignment(x: np.ndarray, atp: np.ndarray) -> float:
    xmax = np.max(np.abs(x)) if x.size else 0.0
    if xmax == 0.0:
        return 0.0
    supp = np.abs(x) > _SUPPORT_EPS * xmax
    if not np.any(supp):
        return 0.0
    return float(np.max(np.abs(np.sign(x[supp]) - atp[supp])))


def _steps(mat: np.ndarray, cfg: SolverConfig) -> tuple[float, float]:
    L = _STEP_SAFETY * operator_norm_estimate(mat, cfg.operator_norm_power_iters)
    if L == 0.0:
        L = 1.0
    return cfg.step_ratio / L, 1.0 / (cfg.step_ratio * L)  # sigma, tau


def solve_l1_equality(A, b, cfg: SolverConfig | None = None, x0=None, dual0=None) -> SolveOutcome:
    """Minimum-l1 solution of A x = b together with a dual certificate vector.

    Parameters
    ----------
    A : DictionaryMatrix or (d, P) array
    b : (d,) array
    cfg : SolverConfig
    x0, dual0 : optional warm starts (primal coefficients / dual vector in the
        max <b,p> convention).

    Returns
    -------
    SolveOutcome with ``dual`` maximizing <b, p> subject to |A^T p|_inf <= 1.
    Convergence requires small feasibility, dual-feasibility and duality-gap
    residuals; sign alignment on the support is reported alongside.
    """
    cfg = cfg or SolverConfig()
    mat = _entries(A)
    b = np.asarray(b, dtype=float)
    d, P = mat.shape
    sigma, tau = _steps(mat, cfg)

    x = np.zeros(P) if x0 is None else np.asarray(x0, dtype=float).copy()
    q = np.zeros(d) if dual0 is None else -np.asarray(dual0, dtype=float)
    xbar = x.copy()

    bscale = max(1.0, float(np.linalg.norm(b)))
    tol = max(cfg.tol_primal, cfg.tol_dual)
    best = None

    it = 0
    while it < cfg.max_iters:
        n_burst = min(cfg.check_every, cfg.max_iters - it)
        for _ in range(n_burst):
            q += sigma * (mat @ xbar - b)
            x_new = _soft_threshold(x - tau * (mat.T @ q), tau)
            xbar = 2.0 * x_new - x
            x = x_new
        it += n_burst

        p = -q
        atp = mat.T @ p
        feas = float(np.linalg.norm(mat @ x - b))
        inf_norm = float(np.max(np.abs(atp))) if P else 0.0
        cert = max(0.0, inf_norm - 1.0)
        p_feas = p / max(1.0, inf_norm)
        obj = float(np.sum(np.abs(x)))
        dual_obj = float(b @ p_feas)
        gap = abs(obj - dual_obj)
        align = _support_alignment(x, atp)
        best = (x.copy(), p.copy(), feas, cert, align, gap, obj, dual_obj, it)
        if (
            feas <= cfg.tol_primal * bscale
            and cert <= cfg.tol_dual
            and gap <= tol * max(1.0, obj)
        ):
            return _outcome(best, converged=True)
    return _outcome(best, converged=False)


def _gram_solve(sub: np.ndarray, rhs: np.ndarray) -> np.ndarray:
    """Solve (sub^T sub) z = rhs, by least squares when the Gram matrix is singular."""
    gram = sub.T @ sub
    try:
        return np.linalg.solve(gram, rhs)
    except np.linalg.LinAlgError:
        return np.linalg.lstsq(gram, rhs, rcond=None)[0]


def _lasso_path(mat: np.ndarray, b: np.ndarray, lam: float, radius: float, max_steps: int):
    """Follow the LASSO solution path from ``max|A^T b|`` down to penalty ``lam``.

    Exact active-set homotopy (Osborne, Presnell & Turlach 2000; the LASSO
    variant of LARS, Efron et al. 2004): the solution is piecewise linear in
    the penalty and zero above ``max|A^T b|``.  Each step moves the penalty to
    the next breakpoint, where a column joins the active set or an active
    coefficient crosses zero and leaves it; in general position the active set
    never exceeds the rank of A, so every step is a small linear solve.

    The path also stops where |x|_1, which never decreases along it, reaches
    ``radius``: inside the last linear segment |x|_1 moves at the rate
    sum(signs * w), so that point is hit exactly.  A penalty below
    ``_TIE_EPS * max|A^T b|`` counts as the end of the path: once the active
    columns span the range of A, every correlation ties at zero penalty and
    rounding alone picks the breakpoints.  Returns ``(x, active, steps,
    done)``: the path point, its active columns, the steps taken, and whether
    a stop was reached within ``max_steps``.
    """
    P = mat.shape[1]
    x = np.zeros(P)
    corr = mat.T @ b
    level = float(np.max(np.abs(corr))) if P else 0.0  # current penalty on the path
    lam = max(lam, _TIE_EPS * level)
    active: list[int] = []
    banned = -1  # a column that just left may not re-enter at the same breakpoint
    if level > lam:
        active.append(int(np.argmax(np.abs(corr))))
    steps = 0
    while level > lam and steps < max_steps:
        steps += 1
        sub = mat[:, active]
        signs = np.sign(corr[active])
        w = _gram_solve(sub, signs)
        u = mat.T @ (sub @ w)  # rate of change of the correlations per unit step
        step, join, leave = level - lam, -1, -1
        # an inactive column joins when its correlation reaches the moving
        # bound level - step; only bounds it approaches count, and one that
        # rounding already put past the bound joins at once
        with np.errstate(divide="ignore", invalid="ignore"):
            upper = np.where(1.0 - u > 0.0, np.maximum(level - corr, 0.0) / (1.0 - u), np.inf)
            lower = np.where(1.0 + u > 0.0, np.maximum(level + corr, 0.0) / (1.0 + u), np.inf)
        cands = np.minimum(upper, lower)
        cands[active] = np.inf
        if banned >= 0 and cands[banned] <= _TIE_EPS * level:
            cands[banned] = np.inf
        j = int(np.argmin(cands))
        if cands[j] < step:
            step, join = float(cands[j]), j
        # an active coefficient leaves when it reaches zero moving against
        # its sign; one that rounding left on the wrong side leaves at once
        rate = signs * w
        with np.errstate(divide="ignore", invalid="ignore"):
            cross = np.where(rate < 0.0, np.maximum(signs * x[active], 0.0) / -rate, np.inf)
        if np.min(cross) < step:
            leave = int(np.argmin(cross))
            step, join = float(cross[leave]), -1
        l1, growth = float(signs @ x[active]), float(np.sum(rate))
        if growth > 0.0 and l1 + step * growth >= radius:
            x[active] += (radius - l1) / growth * w
            return x, active, steps, True
        x[active] += step * w
        level = lam if join < 0 and leave < 0 else level - step
        banned = -1
        if leave >= 0:
            banned = active.pop(leave)
            x[banned] = 0.0
        elif join >= 0:
            active.append(join)
        corr = mat.T @ (b - mat @ x)
    return x, active, steps, level <= lam


def solve_lasso(A, b, lam: float, cfg: SolverConfig | None = None, x0=None, dual0=None) -> SolveOutcome:
    """LASSO solve min 0.5*|A x - b|^2 + lam*|x|_1 with dual p = (b - A x)/lam.

    The solution path is followed exactly from ``max|A^T b|``, where the
    solution is zero, down to ``lam`` (see :func:`_lasso_path`).
    ``cfg.max_iters`` caps the number of path steps; a run that hits the cap
    reports ``converged=False`` with the path point it reached.  The warm
    starts ``x0`` and ``dual0`` are accepted for interface compatibility and
    unused, as the path always starts at zero.

    The reported dual vector solves min |b/lam - p| s.t. |A^T p|_inf <= 1,
    and the duality gap is certified at a feasibility-rescaled copy of it.
    """
    if lam <= 0:
        raise ValueError(f"lasso penalty must be positive, got {lam}")
    cfg = cfg or SolverConfig()
    mat = _entries(A)
    b = np.asarray(b, dtype=float)
    P = mat.shape[1]

    x, active, steps, converged_path = _lasso_path(mat, b, lam, math.inf, cfg.max_iters)
    if converged_path and active:
        # the last breakpoint lands on lam: re-solve the stationarity system
        # there to clear the rounding the path updates accumulated
        sub = mat[:, active]
        xs = _gram_solve(sub, sub.T @ b - lam * np.sign(x[active]))
        if np.all(np.sign(xs) == np.sign(x[active])):
            x[active] = xs

    r = b - mat @ x
    p = r / lam
    atp = mat.T @ p
    feas = float(np.linalg.norm(b - mat @ x - lam * p))  # definitional residual
    inf_norm = float(np.max(np.abs(atp))) if P else 0.0
    cert = max(0.0, inf_norm - 1.0)
    p_feas = p / max(1.0, inf_norm)
    obj = 0.5 * float(r @ r) + lam * float(np.sum(np.abs(x)))
    dual_obj = lam * float(b @ p_feas) - 0.5 * lam * lam * float(p_feas @ p_feas)
    gap = abs(obj - dual_obj)
    align = _support_alignment(x, atp)
    tol = max(cfg.tol_primal, cfg.tol_dual)
    converged = converged_path and cert <= cfg.tol_dual and gap <= tol * max(1.0, obj)
    state = (x, p, feas, cert, align, gap, obj, dual_obj, steps)
    return _outcome(state, converged=converged)


def _outcome(state, converged: bool) -> SolveOutcome:
    x, p, feas, cert, align, gap, obj, dual_obj, it = state
    return SolveOutcome(
        primal=x,
        dual=p,
        kkt=KktResiduals(feas, cert, align, gap),
        iterations=it,
        converged=converged,
        objective=obj,
        dual_objective=dual_obj,
    )
