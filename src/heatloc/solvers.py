"""Solvers for the discretized sparse recovery problems.

All of them run one exact path follower: the LASSO solution is piecewise
linear in the penalty, and an active-set homotopy follows it from zero
downward (every step is a linear solve of the size of the active set, which
in general position is at most the number of rows of A).

* unconstrained LASSO:        min 0.5*|A x - b|^2 + lam*|x|_1,
  whose dual vector is read off as  p = (b - A x) / lam;
  the path is followed down to lam.
* equality-constrained l1:   min |x|_1  s.t.  A x = b,
  whose dual is               max <b, p>  s.t.  |A^T p|_inf <= 1,
  taken as the small-penalty limit of the LASSO: the path is followed down
  to the scale-free penalty  1e-6 * max|A^T b|  and its LASSO dual, feasible
  by construction, is reported.  Where the path's support interpolates b
  exactly without opposing the path's signs, that interpolant is the
  minimum-l1 solution and is returned as the primal.
* l1-ball least squares:      min |A x - b|  s.t.  |x|_1 <= rho,
  used by the certificate lab's noisy check: the same path stopped where
  |x|_1 reaches rho.

The LASSO and equality solves can also start from a nearby solution, such
as the previous refinement round's primal padded with zeros, and follow a
fading linear perturbation from it to the solution at lam (warm-started l1
homotopy, :func:`_warm_path`): about one step per support change instead
of one per breakpoint below max|A^T b|.  When the warm path stops early (at
its step cap, or at the rank guard that keeps its active set within the
rows of A) or its end fails the KKT test, the cold path runs from zero.  On
the two noiseless 1D instances of perfbench (16 rows) warm rounds cut a
refinement run's path steps from 404 to 290 and from 562 to 423; a single
warm path can still run longer than the cold one.  The l1-ball solve
always starts from zero.  Each path sets numpy's error state once: its
breakpoint search divides by every rate and masks the quotients of rates
that do not approach.

Outcomes carry the primal, the dual vector in the convention above, and
KKT residuals including a duality gap evaluated at a feasibility-rescaled
dual point.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .field import _is_count, _is_real

__all__ = [
    "SolverConfig",
    "KktResiduals",
    "SolveOutcome",
    "solve_l1_equality",
    "solve_lasso",
]

_SUPPORT_EPS = 1e-6  # relative threshold defining the support for sign alignment
_TIE_EPS = 1e-12  # homotopy steps below this fraction of the penalty count as ties
_EQUALITY_PENALTY = 1e-6  # equality solves stop the path at this fraction of max|A^T b|
_SIDES = np.array([[1.0], [-1.0]])  # the +bound and -bound rows of a breakpoint search


@dataclass(frozen=True)
class SolverConfig:
    max_iters: int = 100_000  # caps path steps
    tol_primal: float = 1e-9
    tol_dual: float = 1e-9

    def __post_init__(self) -> None:
        if not (_is_count(self.max_iters) and _is_real(self.tol_primal) and _is_real(self.tol_dual)):
            raise ValueError("max_iters must be an integer and the tolerances numbers")
        if self.tol_primal <= 0 or self.tol_dual <= 0:
            raise ValueError("tolerances must be positive")
        if self.max_iters < 1:
            raise ValueError("max_iters must be >= 1")


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


def _support_alignment(x: np.ndarray, atp: np.ndarray) -> float:
    xmax = np.max(np.abs(x)) if x.size else 0.0
    if xmax == 0.0:
        return 0.0
    supp = np.abs(x) > _SUPPORT_EPS * xmax
    if not np.any(supp):
        return 0.0
    return float(np.max(np.abs(np.sign(x[supp]) - atp[supp])))


def _gram_solve(sub: np.ndarray, rhs: np.ndarray) -> np.ndarray:
    """Solve (sub^T sub) z = rhs, by least squares when the Gram matrix is singular."""
    gram = sub.T @ sub
    try:
        return np.linalg.solve(gram, rhs)
    except np.linalg.LinAlgError:
        return np.linalg.lstsq(gram, rhs, rcond=None)[0]


def _next_breakpoint(q, dq, bound, dbound, active, signs, x_act, w, step, banned, tie):
    """Next breakpoint of an active-set path: ``(step, join, leave)``.

    Per unit step the correlations ``q`` move at ``dq``, their bound at
    ``dbound``, and the active coefficients ``x_act`` at ``w``; ``signs``
    are the signs of the active correlations and ``active`` (an intp array)
    their columns.  An inactive column joins when |q_j| reaches the bound;
    only bounds it approaches count, and one that rounding already put past
    the bound joins at once.  The column ``banned`` (one that just left) may
    not re-enter within ``tie``.  An active coefficient leaves when it
    reaches zero moving against its sign; one that rounding left on the
    wrong side leaves at once.  ``step`` is the longest step allowed;
    ``join`` (an index into q) and ``leave`` (a position in ``active``) are
    -1 unless their event comes first.  Quotients by a rate that does not
    approach are overwritten with inf, so the caller holds
    ``np.errstate(divide="ignore", invalid="ignore")``.
    """
    join, leave = -1, -1
    rate = _SIDES * dq
    rate -= dbound  # rows: rates of approach to +bound and to -bound
    cands = _SIDES * q
    np.subtract(bound, cands, out=cands)
    np.maximum(cands, 0.0, out=cands)
    cands /= rate
    cands[~(rate > 0.0)] = np.inf
    cands = np.minimum(cands[0], cands[1])
    cands[active] = np.inf
    if banned >= 0 and cands[banned] <= tie:
        cands[banned] = np.inf
    j = int(cands.argmin())
    if cands[j] < step:
        step, join = float(cands[j]), j
    fall = -signs * w  # rate at which each active coefficient moves toward zero
    cross = np.maximum(signs * x_act, 0.0)
    cross /= fall
    cross[~(fall > 0.0)] = np.inf
    if cross.size:
        i = int(cross.argmin())
        if cross[i] < step:
            step, join, leave = float(cross[i]), -1, i
    return step, join, leave


def _lasso_path(mat: np.ndarray, b: np.ndarray, lam: float, radius: float, max_steps: int):
    """Follow the LASSO solution path from ``max|A^T b|`` down to penalty ``lam``.

    Exact active-set homotopy (Osborne, Presnell & Turlach 2000; the LASSO
    variant of LARS, Efron et al. 2004): the solution is piecewise linear in
    the penalty and zero above ``max|A^T b|``.  Each step moves the penalty to
    the next breakpoint (:func:`_next_breakpoint`), where a column joins the
    active set or an active coefficient crosses zero and leaves it; in
    general position the active set never exceeds the rank of A, so every
    step is a small linear solve.

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
    with np.errstate(divide="ignore", invalid="ignore"):
        while level > lam and steps < max_steps:
            steps += 1
            act = np.array(active, dtype=np.intp)
            sub = mat[:, act]
            signs = np.sign(corr[act])
            w = _gram_solve(sub, signs)
            u = mat.T @ (sub @ w)  # rate of change of the correlations per unit step
            x_act = x[act]
            step, join, leave = _next_breakpoint(
                corr, -u, level, -1.0, act, signs, x_act, w, level - lam, banned, _TIE_EPS * level
            )
            if radius < math.inf:
                l1, growth = float(signs @ x_act), float(np.sum(signs * w))
                if growth > 0.0 and l1 + step * growth >= radius:
                    x[act] = x_act + (radius - l1) / growth * w
                    return x, active, steps, True
            x[act] = x_act + step * w
            level = lam if join < 0 and leave < 0 else level - step
            banned = -1
            if leave >= 0:
                banned = active.pop(leave)
                x[banned] = 0.0
            elif join >= 0:
                active.append(join)
            corr = mat.T @ (b - mat @ x)
    return x, active, steps, level <= lam


def _warm_path(mat: np.ndarray, b: np.ndarray, lam: float, start: np.ndarray, max_steps: int):
    """Follow the LASSO solution at ``lam`` from ``start`` instead of from zero.

    Warm-started l1 homotopy (Garrigues & El Ghaoui 2008; Asif & Romberg
    2014): with c = A^T (b - A x0) and u = lam*z - c, the point x0 solves
    min 0.5*|A x - b|^2 + lam*|x|_1 - (1 - eps) * <u, x> at eps = 0, and the
    perturbation fades out as eps goes from 0 to 1.  z is sign(x0) on the
    support of x0 and c/lam where |c| <= lam; where |c| > lam it is 0, so
    the columns that break the KKT conditions at x0 start strictly inside
    the bound (started on it, at z = +-1, they fill the active set up to the
    rank guard below within a few steps).  On the active set S the effective
    correlations q = A^T (b - A x) + (1 - eps) * u stay at +-lam, so x_S
    moves at w = -G_SS^-1 u_S and q at -A^T A_S w - u per unit of eps; the
    breakpoints follow the same rules as :func:`_lasso_path`.

    Returns ``(x, active, steps, done)`` like :func:`_lasso_path`; ``done``
    is False when the step budget ran out or a join would grow the active
    set past the d rows of A, the general-position bound.
    """
    d = mat.shape[0]
    x = np.array(start, dtype=float)
    active = np.flatnonzero(x).tolist()
    if len(active) > d:
        return x, active, 0, False
    c = mat.T @ (b - mat @ x)
    z = np.where(np.abs(c) <= lam, c / lam, 0.0)
    z[active] = np.sign(x[active])
    u = lam * z - c
    eps, steps, banned = 0.0, 0, -1
    with np.errstate(divide="ignore", invalid="ignore"):
        while eps < 1.0 and steps < max_steps:
            steps += 1
            act = np.array(active, dtype=np.intp)
            q = mat.T @ (b - mat @ x) + (1.0 - eps) * u
            sub = mat[:, act]
            w = -_gram_solve(sub, u[act])
            dq = -(mat.T @ (sub @ w)) - u
            x_act = x[act]
            step, join, leave = _next_breakpoint(
                q, dq, lam, 0.0, act, np.sign(q[act]), x_act, w, 1.0 - eps, banned, _TIE_EPS
            )
            x[act] = x_act + step * w
            eps = 1.0 if join < 0 and leave < 0 else eps + step
            banned = -1
            if leave >= 0:
                banned = active.pop(leave)
                x[banned] = 0.0
            elif join >= 0:
                if len(active) == d:
                    return x, active, steps, False
                active.append(join)
    return x, active, steps, eps >= 1.0


def _lasso_point(mat: np.ndarray, b: np.ndarray, lam: float, cfg: SolverConfig, start=None):
    """LASSO solution at penalty ``lam``: ``(x, active, steps, converged, kkt)``.

    The path runs from ``start`` when one is given (see :func:`_warm_path`),
    and from zero (see :func:`_lasso_path`) when none is given or that path
    stops early or its end fails the KKT test; ``cfg.max_iters`` caps the
    steps of each path and ``steps`` counts both.  Where a path reaches
    ``lam``, the stationarity system of the last segment is re-solved there
    to clear the rounding the path updates accumulated.  ``kkt`` is the
    tuple of :func:`_lasso_kkt` at ``x``.
    """
    if start is not None and np.shape(start) != (mat.shape[1],):
        raise ValueError(f"start has shape {np.shape(start)}, expected ({mat.shape[1]},)")
    steps = 0
    for origin in (None,) if start is None else (start, None):
        if origin is None:
            x, active, n, reached = _lasso_path(mat, b, lam, math.inf, cfg.max_iters)
        else:
            x, active, n, reached = _warm_path(mat, b, lam, origin, cfg.max_iters)
        steps += n
        if reached and active:
            sub = mat[:, active]
            xs = _gram_solve(sub, sub.T @ b - lam * np.sign(x[active]))
            if np.all(np.sign(xs) == np.sign(x[active])):
                x[active] = xs
        kkt = _lasso_kkt(mat, b, lam, x, cfg)
        if reached and kkt[-1]:
            break
    return x, active, steps, reached and kkt[-1], kkt


def _lasso_kkt(mat: np.ndarray, b: np.ndarray, lam: float, x: np.ndarray, cfg: SolverConfig):
    """LASSO dual p = (b - A x)/lam with A^T p, max|A^T p|, and the KKT test.

    The duality gap is certified at the feasibility-rescaled dual
    p / max(1, max|A^T p|); returns ``(p, atp, inf_norm, obj, dual_obj, ok)``.
    """
    r = b - mat @ x
    p = r / lam
    atp = mat.T @ p
    inf_norm = float(np.max(np.abs(atp))) if atp.size else 0.0
    p_feas = p / max(1.0, inf_norm)
    obj = 0.5 * float(r @ r) + lam * float(np.sum(np.abs(x)))
    dual_obj = lam * float(b @ p_feas) - 0.5 * lam * lam * float(p_feas @ p_feas)
    tol = max(cfg.tol_primal, cfg.tol_dual)
    ok = inf_norm - 1.0 <= cfg.tol_dual and abs(obj - dual_obj) <= tol * max(1.0, obj)
    return p, atp, inf_norm, obj, dual_obj, ok


def solve_lasso(A, b, lam: float, cfg: SolverConfig | None = None, start=None) -> SolveOutcome:
    """LASSO solve min 0.5*|A x - b|^2 + lam*|x|_1 with dual p = (b - A x)/lam.

    The solution path is followed exactly from ``max|A^T b|``, where the
    solution is zero, down to ``lam`` (see :func:`_lasso_path`).  Given a
    ``start`` x0, such as the previous refinement round's primal padded with
    zeros, the path instead runs from x0 to the solution (see
    :func:`_warm_path`); when that path stops early or its end fails the KKT
    test, the cold path runs from zero.  ``cfg.max_iters`` caps the steps of
    each path and ``iterations`` counts both; a run that hits the cap
    reports ``converged=False`` with the path point it reached.

    The reported dual vector solves min |b/lam - p| s.t. |A^T p|_inf <= 1,
    and the duality gap is certified at a feasibility-rescaled copy of it.
    """
    if lam <= 0:
        raise ValueError(f"lasso penalty must be positive, got {lam}")
    cfg = cfg or SolverConfig()
    mat = _entries(A)
    b = np.asarray(b, dtype=float)

    x, _, steps, converged, (p, atp, inf_norm, obj, dual_obj, _) = _lasso_point(mat, b, lam, cfg, start)
    feas = float(np.linalg.norm(b - mat @ x - lam * p))  # definitional residual
    kkt = KktResiduals(
        feas, max(0.0, inf_norm - 1.0), _support_alignment(x, atp), abs(obj - dual_obj)
    )
    return SolveOutcome(
        x, p, kkt, iterations=steps, converged=converged, objective=obj, dual_objective=dual_obj
    )


def solve_l1_equality(A, b, cfg: SolverConfig | None = None, start=None) -> SolveOutcome:
    """Minimum-l1 solution of A x = b together with a dual certificate vector.

    The LASSO path is followed down to the scale-free penalty
    ``lam = 1e-6 * max|A^T b|``, from zero or, given a ``start`` x0 such as
    the previous refinement round's primal padded with zeros, from x0 with
    the cold path as fallback (as in :func:`solve_lasso`); ``cfg.max_iters``
    caps the steps of each path and ``iterations`` counts both.  The dual
    is the LASSO dual p = (b - A x_lam)/lam, which satisfies
    |A^T p|_inf <= 1 up to rounding and approaches the minimal-norm
    certificate as lam shrinks.  When the path's support S interpolates b,
    i.e. A_S z = b holds to ``cfg.tol_primal`` and z puts no mass against
    the signs of x_lam, then p certifies z and the primal is z, the
    minimum-l1 interpolant; otherwise the primal is x_lam.

    ``converged`` means a path reached lam within the step cap and the
    LASSO KKT conditions hold there.  The residuals describe the equality
    problem at the returned pair: feasibility |A x - b|, the dual bound
    excess max|A^T p| - 1, sign alignment on the support, and the gap
    between |x|_1 and <b, p> at the feasibility-rescaled dual.
    """
    cfg = cfg or SolverConfig()
    mat = _entries(A)
    b = np.asarray(b, dtype=float)
    d, P = mat.shape
    bscale = max(1.0, float(np.linalg.norm(b)))
    level = float(np.max(np.abs(mat.T @ b))) if P else 0.0

    if level == 0.0:
        # b is orthogonal to the range of A: x = 0 is its least-squares fit
        x, p, steps = np.zeros(P), np.zeros(d), 0
        atp, inf_norm = np.zeros(P), 0.0
        converged = float(np.linalg.norm(b)) <= cfg.tol_primal * bscale
    else:
        lam = _EQUALITY_PENALTY * level
        x, active, steps, converged, (p, atp, inf_norm, _, _, _) = _lasso_point(mat, b, lam, cfg, start)
        if active:
            # |z|_1 - <b, p> is twice the mass z puts against the path's
            # signs (entries the path keeps at O(lam) may interpolate to 0)
            sub = mat[:, active]
            z = np.linalg.lstsq(sub, b, rcond=None)[0]
            against = float(np.abs(z) @ (np.sign(z) != np.sign(x[active])))
            tol = max(cfg.tol_primal, cfg.tol_dual)
            if (
                float(np.linalg.norm(sub @ z - b)) <= cfg.tol_primal * bscale
                and 2.0 * against <= tol * max(1.0, float(np.sum(np.abs(z))))
            ):
                x = np.zeros(P)
                x[active] = z

    feas = float(np.linalg.norm(mat @ x - b))
    obj = float(np.sum(np.abs(x)))
    dual_obj = float(b @ p) / max(1.0, inf_norm)
    kkt = KktResiduals(
        feas, max(0.0, inf_norm - 1.0), _support_alignment(x, atp), abs(obj - dual_obj)
    )
    return SolveOutcome(
        x, p, kkt, iterations=steps, converged=converged, objective=obj, dual_objective=dual_obj
    )
