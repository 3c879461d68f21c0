"""Scenario definition, experiment orchestration, metrics, and file output.

A scenario is a fully seeded description of one recovery experiment: ground
truth sources, sensor layout, noise level, and method configuration.  Running
it produces a deterministic metrics record (byte-identical across repeated
runs of the same config; wall-clock timing is kept out of the record and
written to a separate sidecar file).
"""

from __future__ import annotations

import dataclasses
import json
import math
import os
import tempfile
import time
from dataclasses import dataclass, field as dc_field

import numpy as np

from .baseline import baseline_estimate, rho_bounds
from .field import SparseMeasure, _fits_array, _is_count, _is_real, _rng, add_noise, kernel_matrix
from .field import evaluate_field  # noqa: F401  perfbench's tracer still wraps this name until ROADMAP item 1
from .operators import MeasurementOperator, SampleSet, build_dictionary, measure
from .refinement import INITIAL_POINTS_PER_DIM, CandidateGrid, RecoveryResult, RefinementConfig, run_refinement
from .solvers import SolverConfig

__all__ = [
    "SCHEMA_VERSION",
    "ConfigError",
    "ScenarioConfig",
    "MatchResult",
    "MetricsRecord",
    "RunArtifacts",
    "load_config",
    "load_configs",
    "dump_config",
    "build_truth",
    "build_operator",
    "synthesize",
    "refinement_config",
    "run_method",
    "exit_code",
    "run_scenario",
    "run_sweep",
    "match_sources",
    "emit_results",
    "lasso_lambda_universal",
]

SCHEMA_VERSION = 4


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


def _validate(cfg: ScenarioConfig) -> None:
    counts = ("dim", "s", "grid_size", "n_sensors", "n_times", "source_seed", "noise_seed")
    not_counts = [k for k in counts if not _is_count(getattr(cfg, k))]
    if not_counts:
        raise ConfigError(f"{', '.join(not_counts)}: must be integers")
    reals = ("rho", "snr_db", "min_separation")
    not_reals = [k for k in reals if getattr(cfg, k) is not None and not _is_real(getattr(cfg, k))]
    if not_reals:
        raise ConfigError(f"{', '.join(not_reals)}: must be numbers")
    numbers = ("domain_lo", "domain_hi", "source_positions", "amplitudes", "rho", "min_separation")
    not_finite = [k for k in numbers if getattr(cfg, k) is not None and not _all_finite(getattr(cfg, k))]
    if not_finite:
        raise ConfigError(f"{', '.join(not_finite)}: must be finite numbers")
    errs = []
    # the name is the scenario's output directory under --out
    if not isinstance(cfg.name, str) or cfg.name in ("", ".", "..") or any(c in cfg.name for c in "/\\\0"):
        errs.append(f"name: must be one plain path component (no /, \\ or NUL; not . or ..), got {cfg.name!r}")
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
    if cfg.min_separation is None or cfg.min_separation < 0:
        errs.append("min_separation: must be a number >= 0")
    if cfg.amplitudes is not None and len(cfg.amplitudes) != cfg.s:
        errs.append("amplitudes: need exactly s values (or null for all ones)")
    if cfg.grid_size < 1:
        errs.append("grid_size: must be >= 1")
    if cfg.n_sensors < 2:
        errs.append("n_sensors: must be >= 2")
    if cfg.n_times < 1:
        errs.append("n_times: must be >= 1")
    if cfg.dim in (1, 2) and not _fits_array(cfg.n_sensors**cfg.dim * cfg.n_times):
        errs.append("n_sensors, n_times: more samples than one array can hold")
    if cfg.rho is not None and cfg.rho <= 0:
        errs.append("rho: must be positive")
    if cfg.snr_db is not None and not cfg.snr_db > -math.inf:
        errs.append(f"snr_db: must be a finite number or +inf, got {cfg.snr_db}")
    if not all(0 <= seed < 2**64 for seed in (cfg.source_seed, cfg.noise_seed)):
        errs.append("source_seed/noise_seed: must be in [0, 2**64)")
    if cfg.method not in ("refinement", "baseline"):
        errs.append(f"method: unknown method {cfg.method!r}")
    if cfg.method == "baseline" and cfg.dim != 1:
        errs.append("method: the baseline is defined for dim = 1 only")
    elif cfg.method == "baseline" and cfg.n_sensors * cfg.n_times > cfg.grid_size:
        errs.append("grid_size: the baseline needs at least n_sensors * n_times source grid points")
    if errs:
        raise ConfigError("; ".join(errs))


def _all_finite(values) -> bool:
    """True when every number in ``values`` (a number or nested lists) is finite."""
    try:
        return bool(np.all(np.isfinite(np.asarray(values, dtype=float))))
    except ValueError as exc:  # a string or a ragged list
        raise TypeError(exc) from exc


def _noisy(cfg: ScenarioConfig) -> bool:
    """True when the scenario adds noise: a finite ``snr_db``."""
    return cfg.snr_db is not None and math.isfinite(cfg.snr_db)


def _json_int(text: str) -> int:
    """A JSON integer literal; one beyond float range is a config error, since numbers are read as floats."""
    if math.isinf(float(text)):
        raise ConfigError(f"integer {text[:12]}... ({len(text)} characters) is too large for a float")
    return int(text)


def _read_json_object(path) -> dict:
    """The JSON object in a file; malformed JSON, an integer too large for a float or
    another top-level type is a config error."""
    with open(path, "r", encoding="utf-8") as fh:
        try:
            raw = json.load(fh, parse_int=_json_int)
        except json.JSONDecodeError as exc:
            raise ConfigError(f"{path}: not valid JSON: {exc}") from exc
    if not isinstance(raw, dict):
        raise ConfigError(f"{path}: expected a JSON object, got {type(raw).__name__}")
    return raw


def load_config(path_or_dict) -> ScenarioConfig:
    """Parse and validate a scenario config from a JSON file path or a dict."""
    raw = dict(path_or_dict) if isinstance(path_or_dict, dict) else _read_json_object(path_or_dict)
    known = {f.name for f in dataclasses.fields(ScenarioConfig)}
    unknown = set(raw) - known
    if unknown:
        raise ConfigError(f"unknown config fields: {sorted(unknown)}")
    cfg = ScenarioConfig(**raw)
    try:
        _validate(cfg)
    except TypeError as exc:  # a value of the wrong type, such as a scalar domain bound
        raise ConfigError(f"wrong value type: {exc}") from exc
    if cfg.method == "refinement":
        _refinement_section(cfg)
    return cfg


def load_configs(path, seed: int | None = None) -> list[ScenarioConfig]:
    """The scenarios of a JSON config file: the file itself, or one per ``sweep`` entry.

    Each ``sweep`` entry overrides fields of the rest of the file, and the
    scenarios' names, their output directories, must differ.  A ``seed``
    replaces every scenario's source and noise seeds.
    """
    raw = _read_json_object(path)
    sweep = raw.pop("sweep", [{}])
    if not (isinstance(sweep, list) and sweep and all(isinstance(o, dict) for o in sweep)):
        raise ConfigError("sweep: must be a non-empty list of objects")
    docs = [raw | override for override in sweep]
    if seed is not None:
        docs = [doc | {"source_seed": seed, "noise_seed": seed} for doc in docs]
    configs = [load_config(doc) for doc in docs]
    names = [cfg.name for cfg in configs]
    repeated = sorted({name for name in names if names.count(name) > 1})
    if repeated:
        raise ConfigError(f"sweep: scenario names must be unique, repeated: {repeated}")
    return configs


def _json_text(doc) -> str:
    """``doc`` in the one JSON format of every file heatloc writes: sorted keys, indent 2, final newline."""
    return json.dumps(doc, sort_keys=True, indent=2) + "\n"


def dump_config(cfg: ScenarioConfig) -> str:
    return _json_text(dataclasses.asdict(cfg))


def lasso_lambda_universal(snr_db: float, op: MeasurementOperator, grid_points, b) -> float:
    """Scale-free penalty for the data ``b``: noise std times the universal threshold.

    lambda = sigma_d * max_j |a_j|_2 * sqrt(2 log P), with sigma_d the noise
    std that ``snr_db`` implies for ``b`` and the column norms taken over
    ``grid_points``, the initial candidate grid.
    """
    A0 = build_dictionary(op, grid_points)
    colmax = float(np.max(np.linalg.norm(A0.entries, axis=0)))
    P = A0.shape[1]
    b = np.asarray(b, dtype=float)
    sigma = math.sqrt(float(b @ b) * 10.0 ** (-snr_db / 10.0) / b.size)
    return sigma * colmax * math.sqrt(2.0 * math.log(max(P, 2)))


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
            pos = _source_grid(cfg, gen.integers(0, cfg.grid_size, size=(cfg.s, cfg.dim)))
        else:
            pos = lo + gen.random((cfg.s, cfg.dim)) * (hi - lo)
        if cfg.s == 1:
            return SparseMeasure(pos, amps)
        d = np.linalg.norm(pos[:, None, :] - pos[None, :, :], axis=-1)
        np.fill_diagonal(d, np.inf)
        if d.min() >= cfg.min_separation:
            return SparseMeasure(pos, amps)
    raise ConfigError("min_separation: could not place sources with this separation")


def _source_grid(cfg: ScenarioConfig, idx) -> np.ndarray:
    """Points ``lo + idx * (hi - lo) / grid_size`` of the source grid, for integer ``idx`` (n, dim)."""
    lo = np.asarray(cfg.domain_lo, dtype=float)
    hi = np.asarray(cfg.domain_hi, dtype=float)
    return lo + idx * ((hi - lo) / cfg.grid_size)


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
    if cfg.dim == 2 and cfg.n_times != 1:
        raise ConfigError("n_times: 2D scenarios use a single time sample")
    n = np.arange(cfg.n_sensors)
    # the 1D and 2D forms differ in the last bit for some sensor counts; records keep each
    if cfg.dim == 1:
        axes = [n * ((hi[0] - lo[0]) / cfg.n_sensors) + lo[0]]
    else:
        axes = [lo[j] + n * (hi[j] - lo[j]) / cfg.n_sensors for j in range(cfg.dim)]
    return MeasurementOperator(SampleSet.grid(axes, times))


def synthesize(cfg: ScenarioConfig) -> tuple[SparseMeasure, MeasurementOperator, np.ndarray]:
    """Ground truth, operator, and (possibly noisy) measurement vector."""
    truth = build_truth(cfg)
    op = build_operator(cfg)
    b = measure(op, truth)
    if _noisy(cfg):
        if not np.any(b):  # all-zero amplitudes, or sources too far from every sensor
            raise ConfigError("snr_db: the sources' field is zero at every sensor, so the SNR is undefined")
        b = add_noise(b, cfg.snr_db, cfg.noise_seed)
    return truth, op, b


@dataclass(frozen=True)
class MatchResult:
    pairs: list
    position_errors: list
    amplitude_errors_rel: list


def match_sources(truth: SparseMeasure, estimate: SparseMeasure) -> MatchResult:
    """Optimal assignment between truth and estimated atoms by total distance.

    A rectangular linear-sum assignment: one pair per atom of the smaller
    measure, each atom used at most once, pairs sorted by truth index.
    """
    # deferred so that importing the package does not load scipy.optimize
    from scipy.optimize import linear_sum_assignment

    if truth.n_atoms == 0 or estimate.n_atoms == 0:
        return MatchResult([], [], [])
    diff = truth.positions[:, None, :] - estimate.positions[None, :, :]
    D = np.sqrt(np.einsum("ted,ted->te", diff, diff))
    rows, cols = linear_sum_assignment(D)
    pairs = sorted(zip(rows.tolist(), cols.tolist()))
    amp_rel = [
        float(abs(estimate.amplitudes[j] - truth.amplitudes[i])) / abs(truth.amplitudes[i])
        if truth.amplitudes[i] != 0 else math.inf
        for i, j in pairs
    ]
    return MatchResult(
        pairs=[list(p) for p in pairs],
        position_errors=[float(D[i, j]) for i, j in pairs],
        amplitude_errors_rel=amp_rel,
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
    per_round: list  # RoundDiagnostics of each refinement round as dicts; [] for the baseline
    refinement_stopped: bool
    stopped_by: str | None  # RecoveryResult.stopped_by; None for the baseline
    continuum_gap: float  # the last round's max |nu| - 1 over the domain; nan for the baseline
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
    exit_code: int


def _field_rmse(truth: SparseMeasure, estimate: SparseMeasure, cfg: ScenarioConfig, t: float) -> float:
    """RMS difference of the two fields at time ``t`` on a uniform mesh of the domain.

    The difference is one field, of the truth's atoms and the estimate's
    with negated amplitudes, and the kernel is separable: per axis, the
    mesh's 1D kernel columns F_j of those atoms give it as F_0 c in 1D and
    (F_0 diag c) F_1^T in 2D, as ``DualCertificate.mesh_blocks`` does.
    """
    n = 256 if cfg.dim == 1 else 128
    pos = np.concatenate([truth.positions, estimate.positions])
    amp = np.concatenate([truth.amplitudes, -estimate.amplitudes])
    F = [
        kernel_matrix(np.linspace(lo, hi, n).reshape(-1, 1), t, pos[:, j : j + 1])
        for j, (lo, hi) in enumerate(zip(cfg.domain_lo, cfg.domain_hi))
    ]
    err = F[0] @ amp if cfg.dim == 1 else (F[0] * amp) @ F[1].T
    return float(np.sqrt(np.mean(err**2)))


def _refinement_section(cfg: ScenarioConfig) -> RefinementConfig:
    """The refinement config built from the scenario's ``refinement`` section.

    A bad key or value is a config error.  ``lasso_lambda`` is the section's
    number, or None where it gives ``"universal"`` or nothing: the penalty
    is resolved by :func:`refinement_config`, as it needs the data.
    """
    overrides = dict(cfg.refinement)
    lam = overrides.get("lasso_lambda")
    if isinstance(lam, str):
        if lam != "universal":
            raise ConfigError(f"refinement.lasso_lambda: unknown rule {lam!r}")
        overrides["lasso_lambda"] = None
    try:
        solver_overrides = overrides.pop("solver", None)
        solver = SolverConfig(**solver_overrides) if solver_overrides else None
        rcfg = RefinementConfig(
            lo=np.asarray(cfg.domain_lo, dtype=float),
            hi=np.asarray(cfg.domain_hi, dtype=float),
            solver=solver,
            **overrides,
        )
    except (TypeError, ValueError) as exc:  # an unknown key or a value out of range
        raise ConfigError(f"refinement: {exc}") from exc
    return rcfg


def refinement_config(cfg: ScenarioConfig, op: MeasurementOperator, b) -> RefinementConfig:
    """The scenario's refinement config, its penalty resolved for the data ``b``.

    ``lasso_lambda`` is None (the equality solve) for a noiseless scenario,
    otherwise the section's number, otherwise the universal rule at ``b``.
    """
    rcfg = _refinement_section(cfg)
    if not _noisy(cfg):
        rcfg.lasso_lambda = None
    elif rcfg.lasso_lambda is None:
        grid0 = CandidateGrid.uniform(rcfg.lo, rcfg.hi, INITIAL_POINTS_PER_DIM)
        rcfg.lasso_lambda = lasso_lambda_universal(cfg.snr_db, op, grid0.points, b)
        if rcfg.lasso_lambda == 0.0:
            raise ConfigError("refinement.lasso_lambda: the universal rule is zero for all-zero measurements")
    return rcfg


def run_method(cfg: ScenarioConfig, op: MeasurementOperator, b) -> tuple[SparseMeasure, RecoveryResult | None]:
    """The scenario method's estimate and refinement result (None for the baseline).

    It reads the config, the operator and the data ``b``, never the ground
    truth (the baseline's top-``s`` pick reads the true count from the config).
    """
    if cfg.method == "baseline":
        sources = _source_grid(cfg, np.arange(cfg.grid_size).reshape(-1, 1))
        return baseline_estimate(op.samples, sources, b, cfg.s), None
    result = run_refinement(op, b, refinement_config(cfg, op, b))
    return result.estimate, result


def exit_code(result: RecoveryResult | None) -> int:
    """2 when the refinement stop rule did not fire or an inner solve did not converge, else 0."""
    return 0 if result is None or (result.converged and result.solver_all_converged) else 2


def run_scenario(cfg: ScenarioConfig) -> RunArtifacts:
    """Synthesize, solve, and score one scenario; fully deterministic per config."""
    _validate(cfg)
    start = time.perf_counter()
    truth, op, b = synthesize(cfg)
    tau, rho = _sample_time(cfg)
    estimate, result = run_method(cfg, op, b)

    match = match_sources(truth, estimate)
    amp_scale = float(np.mean(np.abs(truth.amplitudes)))
    overshoot = (
        float(np.max(np.abs(estimate.amplitudes))) / amp_scale if estimate.n_atoms else 0.0
    )
    kkt = result.last_outcome.kkt if result else None

    record = MetricsRecord(
        schema_version=SCHEMA_VERSION,
        name=cfg.name,
        method=cfg.method,
        dim=cfg.dim,
        rho=float(rho),
        rho_valid=rho in rho_bounds(cfg.n_sensors, cfg.n_times),
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
        rounds=result.rounds if result else 0,
        per_round=[dataclasses.asdict(dg) for dg in result.per_round] if result else [],
        refinement_stopped=result.converged if result else True,
        stopped_by=result.stopped_by if result else None,
        continuum_gap=result.continuum_gap if result else math.nan,
        inner_solves_converged=result.solver_all_converged if result else True,
        kkt_feasibility=kkt.feasibility if kkt else math.nan,
        kkt_certificate_bound=kkt.certificate_bound if kkt else math.nan,
        kkt_support_alignment=kkt.support_alignment if kkt else math.nan,
        kkt_duality_gap=kkt.duality_gap if kkt else math.nan,
        certificate_bound_held=kkt.certificate_bound <= 1e-6 if kkt else True,
        amplitude_overshoot=overshoot,
        n_final_grid=result.final_grid.shape[0] if result else cfg.grid_size,
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
        exit_code=exit_code(result),
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


def _csv_text(header: list[str], table) -> str:
    """A float table as CSV text: one header line, then rows at full precision."""
    a = np.asarray(table, dtype=float)
    row_fmt = ",".join(["%.17g"] * a.shape[1]) + "\n"
    return ",".join(header) + "\n" + (row_fmt * a.shape[0]) % tuple(a.ravel().tolist())


def emit_results(artifacts: RunArtifacts, out_dir: str, cfg: ScenarioConfig) -> dict:
    """Write the canonical record, its timing sidecar, the config and, for a
    refinement run, the final grid's certificate table; returns the paths.

    The record file is byte-stable for identical configs; timing lives in a
    separate sidecar so it never perturbs the canonical output.
    """
    paths = {
        "record": os.path.join(out_dir, "record.json"),
        "meta": os.path.join(out_dir, "run_meta.json"),
        "config": os.path.join(out_dir, "config.json"),
    }
    try:
        _atomic_write(paths["record"], _json_text(artifacts.record.to_dict()))
        meta = {"runtime_s": artifacts.runtime_s, "exit_code": artifacts.exit_code}
        _atomic_write(paths["meta"], _json_text(meta))
        _atomic_write(paths["config"], dump_config(cfg))
        result = artifacts.result
        if result is not None:
            # the last round's certificate values on the final grid: not in the record
            paths["certificate"] = os.path.join(out_dir, "certificate.csv")
            header = ["x", "y"][: cfg.dim] + ["certificate"]
            table = np.column_stack([result.final_grid, result.nu])
            _atomic_write(paths["certificate"], _csv_text(header, table))
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
