"""Scenario definition, experiment orchestration, metrics, and file output.

A scenario is a fully seeded description of one recovery experiment: ground
truth sources, sensor layout, noise level, and method configuration.  Running
it produces a deterministic metrics record (byte-identical across repeated
runs of the same config; wall-clock timing is kept out of the record and
written to a separate sidecar file).
"""

from __future__ import annotations

import csv
import dataclasses
import itertools
import json
import math
import os
import tempfile
import time
from dataclasses import dataclass, field as dc_field

import numpy as np
from scipy.optimize import linear_sum_assignment

from .baseline import Sl0Config, sl0_solve, validate_rho
from .field import SparseMeasure, add_noise, evaluate_field
from .operators import (
    MeasurementOperator,
    SampleSet,
    baseline_matrix,
    measure,
    rho_bounds,
)
from .refinement import RecoveryResult, RefinementConfig, run_refinement
from .solvers import SolverConfig

__all__ = [
    "SCHEMA_VERSION",
    "ConfigError",
    "ScenarioConfig",
    "MatchResult",
    "MetricsRecord",
    "RunArtifacts",
    "load_config",
    "dump_config",
    "build_truth",
    "build_operator",
    "synthesize",
    "run_scenario",
    "run_sweep",
    "match_sources",
    "emit_results",
    "lasso_lambda_rule",
    "lasso_lambda_universal",
]

SCHEMA_VERSION = 2


class ConfigError(ValueError):
    """Scenario configuration failed validation; message names the field."""


@dataclass
class ScenarioConfig:
    name: str = "scenario"
    dim: int = 1
    domain_lo: list = dc_field(default_factory=lambda: [0.0])
    domain_hi: list = dc_field(default_factory=lambda: [2.0 * math.pi])
    s: int = 3
    source_mode: str = "explicit"  # explicit | on_grid | off_grid
    source_positions: list | None = None
    amplitudes: list | None = None  # None: all ones
    source_seed: int = 0
    min_separation: float = 1.0
    grid_size: int = 128  # source grid P for on_grid placement and the baseline
    n_sensors: int = 16  # per axis
    n_times: int = 1
    rho: float | None = None  # None: midpoint of the validity bounds
    snr_db: float | None = None  # None: noiseless
    noise_seed: int = 0
    method: str = "refinement"  # refinement | baseline
    refinement: dict = dc_field(default_factory=dict)
    sl0: dict = dc_field(default_factory=dict)
    eval_mesh: int = 256
    schema_version: int = SCHEMA_VERSION


def _validate(cfg: ScenarioConfig) -> None:
    errs = []
    if cfg.schema_version != SCHEMA_VERSION:
        errs.append(f"schema_version: expected {SCHEMA_VERSION}, got {cfg.schema_version}")
    if cfg.dim not in (1, 2):
        errs.append(f"dim: must be 1 or 2, got {cfg.dim}")
    if len(cfg.domain_lo) != cfg.dim or len(cfg.domain_hi) != cfg.dim:
        errs.append("domain_lo/domain_hi: need one bound per dimension")
    elif any(h <= l for l, h in zip(cfg.domain_lo, cfg.domain_hi)):
        errs.append("domain_hi: must exceed domain_lo per dimension")
    if cfg.s < 1:
        errs.append(f"s: must be >= 1, got {cfg.s}")
    if cfg.source_mode not in ("explicit", "on_grid", "off_grid"):
        errs.append(f"source_mode: unknown mode {cfg.source_mode!r}")
    if cfg.source_mode == "explicit":
        if cfg.source_positions is None or len(cfg.source_positions) != cfg.s:
            errs.append("source_positions: explicit mode needs exactly s positions")
    if cfg.amplitudes is not None and len(cfg.amplitudes) != cfg.s:
        errs.append("amplitudes: need exactly s values (or null for all ones)")
    if cfg.grid_size < 1:
        errs.append("grid_size: must be >= 1")
    if cfg.n_sensors < 2:
        errs.append("n_sensors: must be >= 2")
    if cfg.n_times < 1:
        errs.append("n_times: must be >= 1")
    if cfg.rho is not None and cfg.rho <= 0:
        errs.append("rho: must be positive")
    if cfg.snr_db is not None and math.isinf(cfg.snr_db) and cfg.snr_db < 0:
        errs.append("snr_db: -inf is not meaningful")
    if cfg.method not in ("refinement", "baseline"):
        errs.append(f"method: unknown method {cfg.method!r}")
    if cfg.method == "baseline" and cfg.dim != 1:
        errs.append("method: the baseline is defined for dim = 1 only")
    if cfg.eval_mesh < 2:
        errs.append("eval_mesh: must be >= 2")
    if errs:
        raise ConfigError("; ".join(errs))


def load_config(path_or_dict) -> ScenarioConfig:
    """Parse and validate a scenario config from a JSON file path or a dict."""
    if isinstance(path_or_dict, dict):
        raw = dict(path_or_dict)
    else:
        with open(path_or_dict, "r", encoding="utf-8") as fh:
            raw = json.load(fh)
    known = {f.name for f in dataclasses.fields(ScenarioConfig)}
    unknown = set(raw) - known
    if unknown:
        raise ConfigError(f"unknown config fields: {sorted(unknown)}")
    cfg = ScenarioConfig(**raw)
    _validate(cfg)
    return cfg


def dump_config(cfg: ScenarioConfig) -> str:
    return json.dumps(dataclasses.asdict(cfg), sort_keys=True, indent=2) + "\n"


def lasso_lambda_rule(snr_db: float, factor: float = 0.35):
    """Penalty rule: factor times the per-sample noise variance implied by the SNR.

    A hand-tuned rule, chosen by ``"noise-variance"``; a noisy config that
    names no rule gets ``"universal"``.  Note it is not scale invariant (the
    penalty tracks the variance while a denoising penalty must scale with the
    noise standard deviation), so it is only appropriate at the signal scale
    it was tuned for; see :func:`lasso_lambda_universal` for a scale-free
    alternative.  On the 1D reference instance (three unit sources, 16
    sensors, rho at the midpoint of its bounds, 40 dB) it gives 4.7e-6 where
    the universal rule gives 7.1e-3, and the LASSO minimizer at that penalty
    fits the noise.
    """

    def rule(b: np.ndarray) -> float:
        b = np.asarray(b, dtype=float)
        return factor * float(b @ b) * 10.0 ** (-snr_db / 10.0) / b.size

    return rule


def lasso_lambda_universal(snr_db: float, op: MeasurementOperator, grid_points, factor: float = 1.0):
    """Scale-free penalty rule: noise std times the universal threshold.

    lambda = factor * sigma_d * max_j |a_j|_2 * sqrt(2 log P), with column
    norms taken over the initial candidate grid.
    """
    from .operators import build_dictionary

    A0 = build_dictionary(op, grid_points)
    colmax = float(np.max(np.linalg.norm(A0.entries, axis=0)))
    P = A0.shape[1]

    def rule(b: np.ndarray) -> float:
        b = np.asarray(b, dtype=float)
        sigma = math.sqrt(float(b @ b) * 10.0 ** (-snr_db / 10.0) / b.size)
        return factor * sigma * colmax * math.sqrt(2.0 * math.log(max(P, 2)))

    return rule


def _rng(seed: int) -> np.random.Generator:
    return np.random.Generator(np.random.Philox(key=np.uint64(seed)))


def build_truth(cfg: ScenarioConfig) -> SparseMeasure:
    """Ground-truth atomic measure per the scenario's source mode and seed."""
    lo = np.asarray(cfg.domain_lo, dtype=float)
    hi = np.asarray(cfg.domain_hi, dtype=float)
    amps = np.ones(cfg.s) if cfg.amplitudes is None else np.asarray(cfg.amplitudes, float)

    if cfg.source_mode == "explicit":
        pos = np.asarray(cfg.source_positions, dtype=float).reshape(cfg.s, cfg.dim)
        return SparseMeasure(pos, amps)

    gen = _rng(cfg.source_seed)
    for _ in range(10_000):
        if cfg.source_mode == "on_grid":
            delta1 = (hi - lo) / cfg.grid_size
            idx = gen.integers(0, cfg.grid_size, size=(cfg.s, cfg.dim))
            pos = lo + idx * delta1
        else:
            pos = lo + gen.random((cfg.s, cfg.dim)) * (hi - lo)
        if cfg.s == 1:
            return SparseMeasure(pos, amps)
        d = np.linalg.norm(pos[:, None, :] - pos[None, :, :], axis=-1)
        np.fill_diagonal(d, np.inf)
        if d.min() >= cfg.min_separation:
            return SparseMeasure(pos, amps)
    raise ConfigError("min_separation: could not place sources with this separation")


def _sample_time(cfg: ScenarioConfig) -> tuple[float, float]:
    """(tau, rho) for the scenario; rho defaults to the bounds midpoint."""
    length = cfg.domain_hi[0] - cfg.domain_lo[0]
    delta2 = length / cfg.n_sensors
    rho = cfg.rho if cfg.rho is not None else rho_bounds(cfg.n_sensors, cfg.n_times).midpoint
    return rho * delta2 * delta2, rho


def build_operator(cfg: ScenarioConfig) -> MeasurementOperator:
    """Sensor layout: uniform per-axis grid, times l*tau for l = 1..n_times."""
    lo = np.asarray(cfg.domain_lo, dtype=float)
    hi = np.asarray(cfg.domain_hi, dtype=float)
    tau, _ = _sample_time(cfg)
    times = tau * np.arange(1, cfg.n_times + 1)
    if cfg.dim == 1:
        samples = SampleSet.uniform_1d(cfg.n_sensors, hi[0] - lo[0], times)
        if lo[0] != 0.0:
            samples = SampleSet(samples.xs + lo[0], samples.ts)
    else:
        if cfg.n_times != 1:
            raise ConfigError("n_times: 2D scenarios use a single time sample")
        axes = tuple(
            lo[j] + np.arange(cfg.n_sensors) * (hi[j] - lo[j]) / cfg.n_sensors
            for j in range(cfg.dim)
        )
        samples = SampleSet.grid(axes, times[0])
    return MeasurementOperator(samples)


def synthesize(cfg: ScenarioConfig) -> tuple[SparseMeasure, MeasurementOperator, np.ndarray]:
    """Ground truth, operator, and (possibly noisy) measurement vector."""
    truth = build_truth(cfg)
    op = build_operator(cfg)
    b = measure(op, truth)
    if cfg.snr_db is not None and not math.isinf(cfg.snr_db):
        b = add_noise(b, cfg.snr_db, cfg.noise_seed)
    return truth, op, b


@dataclass(frozen=True)
class MatchResult:
    pairs: list
    position_errors: list
    amplitude_errors: list
    amplitude_errors_rel: list
    unmatched_truth: list
    unmatched_estimate: list
    total_cost: float


def match_sources(truth: SparseMeasure, estimate: SparseMeasure) -> MatchResult:
    """Optimal assignment between truth and estimated atoms by total distance.

    Exhaustive over injections when both sides have at most 6 atoms, otherwise
    a rectangular linear-sum assignment.
    """
    nt, ne = truth.n_atoms, estimate.n_atoms
    if nt == 0 or ne == 0:
        return MatchResult([], [], [], [], list(range(nt)), list(range(ne)), 0.0)
    diff = truth.positions[:, None, :] - estimate.positions[None, :, :]
    D = np.sqrt(np.einsum("ted,ted->te", diff, diff))
    if max(nt, ne) <= 6:
        r = min(nt, ne)
        best_cost, best_pairs = math.inf, None
        small, large = (range(nt), range(ne)) if nt <= ne else (range(ne), range(nt))
        for combo in itertools.permutations(large, r):
            pairs = list(zip(small, combo)) if nt <= ne else [(j, i) for i, j in zip(small, combo)]
            cost = sum(D[i, j] for i, j in pairs)
            if cost < best_cost:
                best_cost, best_pairs = cost, pairs
        pairs = sorted(best_pairs)
    else:
        rows, cols = linear_sum_assignment(D)
        pairs = sorted(zip(rows.tolist(), cols.tolist()))
        best_cost = float(D[rows, cols].sum())
    pos_err = [float(D[i, j]) for i, j in pairs]
    amp_err = [float(abs(estimate.amplitudes[j] - truth.amplitudes[i])) for i, j in pairs]
    amp_rel = [
        e / abs(truth.amplitudes[i]) if truth.amplitudes[i] != 0 else math.inf
        for (i, _), e in zip(pairs, amp_err)
    ]
    return MatchResult(
        pairs=[list(p) for p in pairs],
        position_errors=pos_err,
        amplitude_errors=amp_err,
        amplitude_errors_rel=amp_rel,
        unmatched_truth=[i for i in range(nt) if i not in {p[0] for p in pairs}],
        unmatched_estimate=[j for j in range(ne) if j not in {p[1] for p in pairs}],
        total_cost=float(best_cost),
    )


@dataclass
class MetricsRecord:
    """Deterministic summary of one scenario run (no wall-clock fields)."""

    schema_version: int
    name: str
    method: str
    dim: int
    rho: float
    rho_valid: bool
    snr_db: float | None
    truth_positions: list
    truth_amplitudes: list
    estimate_positions: list
    estimate_amplitudes: list
    matched_pairs: list
    position_errors: list
    amplitude_errors_rel: list
    mean_position_error: float
    max_position_error: float
    field_rmse: float
    rounds: int
    refinement_stopped: bool
    inner_solves_converged: bool
    kkt_feasibility: float
    kkt_certificate_bound: float
    kkt_support_alignment: float
    kkt_duality_gap: float
    certificate_bound_held: bool
    amplitude_overshoot: float
    n_final_grid: int

    def to_dict(self) -> dict:
        return dataclasses.asdict(self)


@dataclass
class RunArtifacts:
    record: MetricsRecord
    runtime_s: float
    truth: SparseMeasure
    estimate: SparseMeasure
    operator: MeasurementOperator
    b: np.ndarray
    result: RecoveryResult | None  # refinement runs only
    certificate_table: list  # rows (position..., certificate value)
    exit_code: int


def _field_rmse(truth: SparseMeasure, estimate: SparseMeasure, cfg: ScenarioConfig, t: float) -> float:
    lo = np.asarray(cfg.domain_lo, dtype=float)
    hi = np.asarray(cfg.domain_hi, dtype=float)
    n = cfg.eval_mesh if cfg.dim == 1 else min(cfg.eval_mesh, 128)
    axes = [np.linspace(lo[j], hi[j], n) for j in range(cfg.dim)]
    mesh = np.meshgrid(*axes, indexing="ij")
    pts = np.stack([m.ravel() for m in mesh], axis=-1)
    f_true = evaluate_field(truth, pts, t)
    f_est = evaluate_field(estimate, pts, t) if estimate.n_atoms else np.zeros(len(pts))
    return float(np.sqrt(np.mean((f_true - f_est) ** 2)))


def _run_refinement_method(cfg, truth, op, b) -> tuple[SparseMeasure, RecoveryResult]:
    noisy = cfg.snr_db is not None and not math.isinf(cfg.snr_db)
    overrides = dict(cfg.refinement)
    solver_overrides = overrides.pop("solver", None)
    try:
        rcfg = RefinementConfig(
            lo=np.asarray(cfg.domain_lo, dtype=float),
            hi=np.asarray(cfg.domain_hi, dtype=float),
            **overrides,
        )
        solver = SolverConfig(**solver_overrides) if solver_overrides else None
    except TypeError as exc:  # a key the config classes do not have
        raise ConfigError(f"refinement: {exc}") from exc
    if noisy and (rcfg.lasso_lambda is None or isinstance(rcfg.lasso_lambda, str)):
        kind = rcfg.lasso_lambda or "universal"
        if kind == "noise-variance":
            rcfg.lasso_lambda = lasso_lambda_rule(cfg.snr_db)
        elif kind == "universal":
            from .refinement import CandidateGrid

            grid0 = CandidateGrid.uniform(rcfg.lo, rcfg.hi, rcfg.initial_points_per_dim)
            rcfg.lasso_lambda = lasso_lambda_universal(cfg.snr_db, op, grid0.points)
        else:
            raise ConfigError(f"refinement.lasso_lambda: unknown rule {kind!r}")
    rcfg.solver = solver
    result = run_refinement(op, b, rcfg, noisy)
    return result.estimate, result


def _run_baseline_method(cfg, truth, op, b) -> SparseMeasure:
    length = cfg.domain_hi[0] - cfg.domain_lo[0]
    delta1 = length / cfg.grid_size
    delta2 = length / cfg.n_sensors
    tau, _ = _sample_time(cfg)
    A = baseline_matrix(cfg.n_sensors, cfg.n_times, cfg.grid_size, tau, delta1, delta2)
    x = sl0_solve(A, b, Sl0Config(**cfg.sl0))
    top = np.argsort(-np.abs(x))[: cfg.s]
    return SparseMeasure(A.points[np.sort(top)] + cfg.domain_lo[0], x[np.sort(top)])


def run_scenario(cfg: ScenarioConfig, seed_override: int | None = None) -> RunArtifacts:
    """Synthesize, solve, and score one scenario; fully deterministic per config."""
    _validate(cfg)
    if seed_override is not None:
        cfg = dataclasses.replace(cfg, source_seed=seed_override, noise_seed=seed_override)
    start = time.perf_counter()
    truth, op, b = synthesize(cfg)
    tau, rho = _sample_time(cfg)

    result: RecoveryResult | None = None
    if cfg.method == "refinement":
        estimate, result = _run_refinement_method(cfg, truth, op, b)
    else:
        estimate = _run_baseline_method(cfg, truth, op, b)

    match = match_sources(truth, estimate)
    amp_scale = float(np.mean(np.abs(truth.amplitudes)))
    overshoot = (
        float(np.max(np.abs(estimate.amplitudes))) / amp_scale if estimate.n_atoms else 0.0
    )
    if result is not None:
        kkt = result.last_outcome.kkt
        cert_rows = [
            list(p) + [float(v)]
            for p, v in zip(
                result.final_grid,
                np.real(result.certificate(result.final_grid)),
            )
        ]
        stopped, inner_ok = result.converged, result.solver_all_converged
        cert_held = kkt.certificate_bound <= 1e-6
        rounds = result.rounds
    else:
        kkt = None
        cert_rows = []
        stopped, inner_ok = True, True
        cert_held = True
        rounds = 0

    record = MetricsRecord(
        schema_version=SCHEMA_VERSION,
        name=cfg.name,
        method=cfg.method,
        dim=cfg.dim,
        rho=float(rho),
        rho_valid=validate_rho(rho, rho_bounds(cfg.n_sensors, cfg.n_times)),
        snr_db=cfg.snr_db,
        truth_positions=truth.positions.tolist(),
        truth_amplitudes=truth.amplitudes.tolist(),
        estimate_positions=estimate.positions.tolist(),
        estimate_amplitudes=estimate.amplitudes.tolist(),
        matched_pairs=match.pairs,
        position_errors=match.position_errors,
        amplitude_errors_rel=match.amplitude_errors_rel,
        mean_position_error=float(np.mean(match.position_errors)) if match.position_errors else math.inf,
        max_position_error=float(np.max(match.position_errors)) if match.position_errors else math.inf,
        field_rmse=_field_rmse(truth, estimate, cfg, tau),
        rounds=rounds,
        refinement_stopped=stopped,
        inner_solves_converged=inner_ok,
        kkt_feasibility=kkt.feasibility if kkt else math.nan,
        kkt_certificate_bound=kkt.certificate_bound if kkt else math.nan,
        kkt_support_alignment=kkt.support_alignment if kkt else math.nan,
        kkt_duality_gap=kkt.duality_gap if kkt else math.nan,
        certificate_bound_held=cert_held,
        amplitude_overshoot=overshoot,
        n_final_grid=result.final_grid.shape[0] if result is not None else cfg.grid_size,
    )
    runtime = time.perf_counter() - start
    return RunArtifacts(
        record=record,
        runtime_s=runtime,
        truth=truth,
        estimate=estimate,
        operator=op,
        b=b,
        result=result,
        certificate_table=cert_rows,
        exit_code=0 if stopped and inner_ok else 2,
    )


def _atomic_write(path: str, data: str) -> None:
    directory = os.path.dirname(os.path.abspath(path))
    os.makedirs(directory, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".tmp-", text=True)
    try:
        with os.fdopen(fd, "w", encoding="utf-8", newline="") as fh:
            fh.write(data)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _fmt(x) -> str:
    return f"{float(x):.17g}"


def _csv_text(header: list[str], rows) -> str:
    import io

    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    for row in rows:
        writer.writerow([_fmt(v) if isinstance(v, (int, float, np.floating)) else v for v in row])
    return buf.getvalue()


def emit_results(artifacts: RunArtifacts, out_dir: str, cfg: ScenarioConfig | None = None) -> dict:
    """Write the canonical record plus flat tabular files; returns the paths.

    The record file is byte-stable for identical configs; timing lives in a
    separate sidecar so it never perturbs the canonical output.
    """
    paths = {}
    try:
        record_text = json.dumps(artifacts.record.to_dict(), sort_keys=True, indent=2) + "\n"
        paths["record"] = os.path.join(out_dir, "record.json")
        _atomic_write(paths["record"], record_text)

        meta = {"runtime_s": artifacts.runtime_s, "exit_code": artifacts.exit_code}
        paths["meta"] = os.path.join(out_dir, "run_meta.json")
        _atomic_write(paths["meta"], json.dumps(meta, sort_keys=True, indent=2) + "\n")

        if cfg is not None:
            paths["config"] = os.path.join(out_dir, "config.json")
            _atomic_write(paths["config"], dump_config(cfg))

        dim = artifacts.truth.dim
        coord_names = ["x", "y"][:dim]
        if artifacts.certificate_table:
            paths["certificate"] = os.path.join(out_dir, "certificate.csv")
            _atomic_write(
                paths["certificate"],
                _csv_text(coord_names + ["certificate"], artifacts.certificate_table),
            )

        atom_rows = []
        rec = artifacts.record
        for (i, j), err in zip(rec.matched_pairs, rec.position_errors):
            atom_rows.append(
                list(rec.truth_positions[i])
                + [rec.truth_amplitudes[i]]
                + list(rec.estimate_positions[j])
                + [rec.estimate_amplitudes[j], err]
            )
        header = (
            [f"true_{c}" for c in coord_names]
            + ["true_amplitude"]
            + [f"est_{c}" for c in coord_names]
            + ["est_amplitude", "position_error"]
        )
        paths["atoms"] = os.path.join(out_dir, "atoms.csv")
        _atomic_write(paths["atoms"], _csv_text(header, atom_rows))

        t = float(artifacts.operator.samples.ts[0])
        lo = np.asarray(cfg.domain_lo if cfg else np.min(artifacts.operator.samples.xs, axis=0), float)
        hi = np.asarray(cfg.domain_hi if cfg else np.max(artifacts.operator.samples.xs, axis=0), float)
        n = 256 if dim == 1 else 64
        axes = [np.linspace(lo[j], hi[j], n) for j in range(dim)]
        mesh = np.meshgrid(*axes, indexing="ij")
        pts = np.stack([m.ravel() for m in mesh], axis=-1)
        f_true = evaluate_field(artifacts.truth, pts, t)
        f_est = (
            evaluate_field(artifacts.estimate, pts, t)
            if artifacts.estimate.n_atoms
            else np.zeros(len(pts))
        )
        rows = [list(p) + [ft, fe] for p, ft, fe in zip(pts, f_true, f_est)]
        paths["field"] = os.path.join(out_dir, "field.csv")
        _atomic_write(paths["field"], _csv_text(coord_names + ["field_true", "field_est"], rows))
    except OSError as exc:
        raise OSError(f"failed writing results under {out_dir!r}: {exc}") from exc
    return paths


def run_sweep(configs: list[ScenarioConfig], out_dir: str | None = None) -> list[RunArtifacts]:
    """Run independent scenario instances one after another; one output dir each."""
    arts = []
    for cfg in configs:
        art = run_scenario(cfg)
        if out_dir is not None:
            emit_results(art, os.path.join(out_dir, cfg.name), cfg)
        arts.append(art)
    return arts
