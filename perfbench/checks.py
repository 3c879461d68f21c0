"""Checks made apart from heatloc: own kernel, own matching, own noise-floor fit.

Nothing here calls into ``heatloc``.  The forward model is the documented
diffusion kernel ``(4*pi*t)**(-dim/2) * exp(-|x|**2 / (2*t))``, evaluated by
this file's own code, and the sensor layout is rebuilt from the scenario's
documented conventions (``N`` sensors per axis at ``lo + n*L/N``, sample time
``t = rho * (L/N)**2`` with ``rho`` the midpoint of ``(1/2, (N-1)**2/72)``).
"""

from __future__ import annotations

import json
import math
import os

import numpy as np
from scipy.optimize import least_squares, linear_sum_assignment, linprog

# Accuracy bounds of the acceptance suite: noiseless off-grid recovery
# (1e-2 * L in position, 2% in amplitude) and noisy recovery (0.05 in
# position and 5% in amplitude above the draw's own noise floor).
NOISELESS_POS_TOL_PER_LENGTH = 1e-2
NOISELESS_AMP_TOL = 0.02
NOISY_POS_ALLOWANCE = 0.05
NOISY_AMP_ALLOWANCE = 0.05
# Relative data residual |A(estimate) - b| / |b| a noiseless estimate must reach.
# On the 16-sensor reference instance, moving one source by the position bound
# leaves 0.047 and a 2% amplitude error 0.011; leaving out one of three
# sources leaves more than 0.3.  Measured estimates leave 1.8e-3 to 4e-3.
NOISELESS_RESIDUAL_TOL = 5e-2
# Summed |amplitude| of estimated atoms left unmatched, as a share of the
# truth's mass, that any estimate may carry.  Passing estimates carry at most
# 0.011.
SPURIOUS_MASS_TOL = 0.05
# Data residual |A(estimate) - b| a noisy estimate may leave, as a multiple of
# the norm of the noise actually added.  Passing estimates leave 0.5 to 1.03.
NOISY_RESIDUAL_FACTOR = 3.0


def kernel(points: np.ndarray, centers: np.ndarray, t: float) -> np.ndarray:
    """(n, k) diffusion kernel values between points (n, dim) and centers (k, dim)."""
    dim = points.shape[1]
    r2 = np.sum((points[:, None, :] - centers[None, :, :]) ** 2, axis=-1)
    return (4.0 * math.pi * t) ** (-dim / 2.0) * np.exp(-r2 / (2.0 * t))


def forward(xs: np.ndarray, t: float, positions: np.ndarray, amplitudes: np.ndarray) -> np.ndarray:
    return kernel(xs, positions, t) @ amplitudes


def sensor_layout(dim: int, n_sensors: int, lo: float, hi: float) -> tuple[np.ndarray, float]:
    """Sensor positions (d, dim) and the single sample time of a scenario."""
    step = (hi - lo) / n_sensors
    rho = 0.5 * (0.5 + (n_sensors - 1) ** 2 / 72.0)
    axis = lo + np.arange(n_sensors) * step
    mesh = np.meshgrid(*([axis] * dim), indexing="ij")
    return np.stack([m.ravel() for m in mesh], axis=-1), rho * step * step


def match(truth: np.ndarray, estimate: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Minimum total-distance assignment of truth rows to estimate rows."""
    dist = np.linalg.norm(truth[:, None, :] - estimate[None, :, :], axis=-1)
    rows, cols = linear_sum_assignment(dist)
    return rows, cols, dist[rows, cols]


def errors(truth_pos, truth_amp, est_pos, est_amp) -> tuple[float, float, float]:
    """Max position and relative amplitude error, inf when a source is unmatched,
    and the summed |amplitude| of unmatched estimated atoms over the truth's mass."""
    if est_pos.shape[0] < truth_pos.shape[0]:
        return math.inf, math.inf, math.inf
    rows, cols, dist = match(truth_pos, est_pos)
    amp = np.abs(est_amp[cols] - truth_amp[rows]) / np.abs(truth_amp[rows])
    spurious = np.sum(np.abs(np.delete(est_amp, cols))) / np.sum(np.abs(truth_amp))
    return float(np.max(dist)), float(np.max(amp)), float(spurious)


def noise_floor(xs, t, b, truth_pos, truth_amp) -> tuple[float, float]:
    """Errors of a least-squares fit of (positions, amplitudes) started at the truth.

    The fit knows the source count and starts from the true parameters, so
    its errors are a floor no estimator that sees only the data can beat on
    this draw.
    """
    n, dim = truth_pos.shape

    def residual(theta):
        return forward(xs, t, theta[: n * dim].reshape(n, dim), theta[n * dim :]) - b

    start = np.concatenate([truth_pos.ravel(), truth_amp])
    fit = least_squares(residual, start, xtol=1e-12, ftol=1e-12, gtol=1e-12)
    return errors(truth_pos, truth_amp, fit.x[: n * dim].reshape(n, dim), fit.x[n * dim :])[:2]


def check_scenario(spec: dict, art, paths: dict) -> list[str]:
    """Problems with one scenario operation's output; an empty list passes.

    ``spec`` holds what the benchmark drew: ``dim``, ``n_sensors``, ``lo``,
    ``hi``, ``positions``, ``amplitudes`` and ``snr_db`` (None: noiseless).
    """
    problems = []
    dim, lo, hi = spec["dim"], spec["lo"], spec["hi"]
    truth_pos = np.asarray(spec["positions"], dtype=float).reshape(-1, dim)
    truth_amp = np.asarray(spec["amplitudes"], dtype=float)
    xs, t = sensor_layout(dim, spec["n_sensors"], lo, hi)
    samples = art.operator.samples
    if samples.xs.shape != xs.shape or not np.allclose(samples.xs, xs, rtol=0, atol=1e-12):
        return ["sensor positions differ from the documented layout"]
    if not np.allclose(samples.ts, t, rtol=1e-12, atol=0):
        return ["sample time differs from the documented rho midpoint"]
    b = np.asarray(art.b, dtype=float)
    clean = forward(xs, t, truth_pos, truth_amp)
    est_pos = np.asarray(art.estimate.positions, dtype=float).reshape(-1, dim)
    est_amp = np.asarray(art.estimate.amplitudes, dtype=float)
    pos_err, amp_err, spurious = errors(truth_pos, truth_amp, est_pos, est_amp)

    resid = float(np.linalg.norm(forward(xs, t, est_pos, est_amp) - b)) if est_amp.size else math.inf
    if spec["snr_db"] is None:
        if np.linalg.norm(b - clean) > 1e-12 * np.linalg.norm(clean):
            problems.append("noiseless data differ from the benchmark's forward model")
        pos_tol = NOISELESS_POS_TOL_PER_LENGTH * (hi - lo)
        amp_tol = NOISELESS_AMP_TOL
        resid /= np.linalg.norm(b)
        if not resid <= NOISELESS_RESIDUAL_TOL:
            problems.append(f"data residual {resid:.2e} > {NOISELESS_RESIDUAL_TOL:g} of |b|")
    else:
        sigma = math.sqrt(float(clean @ clean) * 10.0 ** (-spec["snr_db"] / 10.0) / b.size)
        rms = float(np.sqrt(np.mean((b - clean) ** 2)))
        if not 0.2 * sigma <= rms <= 3.0 * sigma:
            problems.append(f"noise rms {rms:.3g} far from the requested {sigma:.3g}")
        resid /= rms * math.sqrt(b.size)
        if not resid <= NOISY_RESIDUAL_FACTOR:
            problems.append(f"data residual {resid:.2f} x |noise| > {NOISY_RESIDUAL_FACTOR:g}")
        floor_pos, floor_amp = noise_floor(xs, t, b, truth_pos, truth_amp)
        pos_tol = NOISY_POS_ALLOWANCE + floor_pos
        amp_tol = NOISY_AMP_ALLOWANCE + floor_amp
    if not pos_err <= pos_tol:
        problems.append(f"position error {pos_err:.4f} > {pos_tol:.4f}")
    if not amp_err <= amp_tol:
        problems.append(f"amplitude error {amp_err:.4f} > {amp_tol:.4f}")
    if not spurious <= SPURIOUS_MASS_TOL:
        problems.append(f"unmatched atoms carry {spurious:.4f} of the true mass > {SPURIOUS_MASS_TOL:g}")

    with open(paths["record"], "r", encoding="utf-8") as fh:
        record = json.load(fh)
    if record["estimate_positions"] != est_pos.tolist() or record["estimate_amplitudes"] != est_amp.tolist():
        problems.append("record.json disagrees with the returned estimate")
    if not all(os.path.getsize(p) > 0 for p in paths.values()):
        problems.append("an emitted file is empty")
    return problems


# --- certificate lab -------------------------------------------------------

def certificate_values(weights, xs, t, points) -> np.ndarray:
    """nu(x) = sum_i w_i G(x - x_i, t) at each point, by this file's kernel."""
    return np.real(kernel(points, xs, t) @ np.asarray(weights))


def certificate_on_mesh(weights, axis_1d: np.ndarray, t: float, mesh: np.ndarray, dim: int) -> np.ndarray:
    """nu on a tensor mesh when the samples are the tensor grid ``axis_1d**dim``.

    The kernel factorizes per axis, so the 2D values are F^T W F with the
    per-axis factor F; the prefactor is taken once.
    """
    fac = np.exp(-((mesh[None, :] - axis_1d[:, None]) ** 2) / (2.0 * t))
    pref = (4.0 * math.pi * t) ** (-dim / 2.0)
    w = np.real(np.asarray(weights))
    if dim == 1:
        return pref * (fac.T @ w)
    W = w.reshape(axis_1d.size, axis_1d.size)
    return pref * (fac.T @ W @ fac)


def exact_l1_grid(A: np.ndarray, b: np.ndarray) -> np.ndarray:
    """min |x|_1 s.t. A x = b by the split-variable LP (HiGHS)."""
    P = A.shape[1]
    res = linprog(np.ones(2 * P), A_eq=np.hstack([A, -A]), b_eq=b,
                  bounds=[(0, None)] * (2 * P), method="highs")
    if not res.success:
        raise RuntimeError(f"reference LP failed: {res.message}")
    return res.x[:P] - res.x[P:]


def check_certificate(case: dict, out: dict) -> list[str]:
    """Problems with one certificate-lab operation's output; empty passes.

    ``case`` holds the measure (``positions``, ``amplitudes``, ``dim``), the
    certificate parameters (``lam``, sample-grid ``axis``, time ``t``), the
    ``mesh`` of the sup-error recheck and, in 1D, the candidate ``grid`` and
    noiseless data ``b_clean`` of the recovery-radius check.  ``out`` holds
    the program's per-atom ``certificates`` and ``reports`` and, where the
    noisy check ran, its atom ``i0`` and result ``stable``.
    """
    problems = []
    dim, lam, t, axis = case["dim"], case["lam"], case["t"], case["axis"]
    pos = np.asarray(case["positions"], dtype=float).reshape(-1, dim)
    amp = np.asarray(case["amplitudes"], dtype=float)
    mesh = case["mesh"]
    mesh_mgrid = np.meshgrid(*([axis] * dim), indexing="ij")
    xs = np.stack([m.ravel() for m in mesh_mgrid], axis=-1)

    for i0, (approx, report) in enumerate(zip(out["certificates"], out["reports"])):
        w = approx.certificate.weights
        anchor = float(amp @ certificate_values(w, xs, t, pos))
        if abs(anchor - 1.0) > 1e-9 or abs(report.anchor - 1.0) > 1e-9:
            problems.append(f"atom {i0}: anchor {anchor:.12f} (reported {report.anchor:.12f}) is not 1")
        if not approx.coeff_norm <= 1.0 + 1e-8:
            problems.append(f"atom {i0}: Jackson coefficient norm {approx.coeff_norm:.12f} > 1")
        g = certificate_on_mesh(w, axis, t, mesh, dim)
        g0 = float(certificate_values(w, xs, t, pos[i0 : i0 + 1])[0])
        bumps = [np.exp(-((mesh - c) ** 2) / (4.0 * lam)) for c in pos[i0]]
        bump = bumps[0] if dim == 1 else np.outer(bumps[0], bumps[1])
        err = float(np.max(np.abs(g - g0 * bump)))
        if err > report.sup_error + report.mesh_margin + 1e-12:
            problems.append(
                f"atom {i0}: sup error {err:.3e} on the check mesh exceeds the reported "
                f"{report.sup_error:.3e} + margin {report.mesh_margin:.3e}"
            )

    if dim == 1:
        # Soft recovery: for any x with A x = b, sum_j x_j g(q_j) = <lambda, b>
        # = anchor = 1 and |g - sigma*bump| <= 1 - tau give
        # sigma * max_supp bump >= (1 - (1 - tau) |x|_1) / |x|_1.  At |x|_1 <= 1
        # this is the recovery radius sqrt(4 lam log(sigma/tau)).
        grid = case["grid"]
        A = kernel(grid, xs, t).T
        x = exact_l1_grid(A, case["b_clean"])
        mass = float(np.sum(np.abs(x)))
        supp = grid[np.abs(x) > 1e-9 * np.max(np.abs(x)), 0]
        for i0, report in enumerate(out["reports"]):
            if not report.feasible:
                continue
            level = (1.0 - (1.0 - report.tau) * mass) / (mass * report.sigma)
            if level <= 0.0:
                continue
            radius = math.sqrt(4.0 * lam * math.log(max(1.0 / level, 1.0)))
            dist = float(np.min(np.abs(supp - pos[i0, 0])))
            if dist > radius + 1e-12:
                problems.append(f"atom {i0}: noiseless estimate {dist:.4f} away, radius {radius:.4f}")
    if "stable" in out:
        rep = out["reports"][out["i0"]]
        if rep.feasible and not math.isnan(rep.bound_noisy) and out["stable"] is not True:
            problems.append(f"stable inequality returned {out['stable']} on a feasible, non-vacuous instance")
    return problems
