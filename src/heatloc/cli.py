"""Command-line entry points: simulate, solve, certify, bench.

Exit codes: 0 on success, 1 on configuration/validation errors, 2 when the
refinement stop rule did not fire or an inner solve did not converge
(best-effort results are still written).
"""

from __future__ import annotations

import argparse
import math
import os
import sys

import numpy as np

from . import bench
from .bench import ConfigError
from .certificates import (
    CertConfig,
    calibrated_certificate,
    verify_soft_conditions,
)
from .field import SparseMeasure, _is_real

__all__ = ["main"]


def _read_measurements(path: str) -> np.ndarray:
    with open(path, "r", encoding="utf-8") as fh:
        header = fh.readline()
        if "value" not in header:
            raise ConfigError(f"{path}: expected a CSV with a 'value' column")
        lines = [line for line in fh if line.strip()]
    try:
        b = np.asarray([float(line.rsplit(",", 1)[-1]) for line in lines])
    except ValueError as exc:
        raise ConfigError(f"{path}: {exc}") from exc
    if not np.all(np.isfinite(b)):
        raise ConfigError(f"{path}: measurements must be finite numbers")
    return b


def _write_measurements(path: str, b: np.ndarray) -> None:
    lines = ["index,value"] + [f"{i},{v:.17g}" for i, v in enumerate(b)]
    bench._atomic_write(path, "\n".join(lines) + "\n")


def _load_one(args) -> bench.ScenarioConfig:
    configs = bench.load_configs(args.config, args.seed)
    if len(configs) != 1:
        raise ConfigError(f"{args.command} runs one scenario; run a sweep with bench")
    return configs[0]


def _cmd_simulate(args) -> int:
    cfg = _load_one(args)
    truth, op, b = bench.synthesize(cfg)
    os.makedirs(args.out, exist_ok=True)
    _write_measurements(os.path.join(args.out, "measurements.csv"), b)
    truth_doc = {
        "positions": truth.positions.tolist(),
        "amplitudes": truth.amplitudes.tolist(),
    }
    bench._atomic_write(os.path.join(args.out, "truth.json"), bench._json_text(truth_doc))
    bench._atomic_write(os.path.join(args.out, "config.json"), bench.dump_config(cfg))
    print(f"wrote {op.d} measurements to {args.out}")
    return 0


def _cmd_solve(args) -> int:
    cfg = _load_one(args)
    b = _read_measurements(args.measurements)
    op = bench.build_operator(cfg)  # the sensors only: solve never builds the truth
    if b.shape[0] != op.d:
        raise ConfigError(
            f"measurements: {b.shape[0]} values do not match the {op.d} sample points"
        )
    estimate, result = bench.run_method(cfg, op, b)
    doc = {
        "positions": estimate.positions.tolist(),
        "amplitudes": estimate.amplitudes.tolist(),
    }
    os.makedirs(args.out, exist_ok=True)
    bench._atomic_write(os.path.join(args.out, "estimate.json"), bench._json_text(doc))
    print(f"recovered {estimate.n_atoms} atoms -> {args.out}/estimate.json")
    return bench.exit_code(result)


_CERTIFY_KEYS = {
    "lam", "m", "p_jackson", "dim", "mesh_points",
    "source_positions", "source_amplitudes", "i0", "eps", "rho",
}


def _cmd_certify(args) -> int:
    raw = bench._read_json_object(args.config)
    unknown = set(raw) - _CERTIFY_KEYS
    if unknown:
        raise ConfigError(f"certify config: unknown fields {sorted(unknown)}")
    optional = {k: raw[k] for k in ("dim", "mesh_points") if k in raw}
    try:
        cert_cfg = CertConfig(
            lam=raw["lam"],
            m=raw["m"],
            p_jackson=raw.get("p_jackson", max(1, raw["m"] // 4)),
            **optional,
        )
        positions = np.asarray(raw["source_positions"], dtype=float)
        amplitudes = np.asarray(raw["source_amplitudes"], dtype=float)
        i0 = raw.get("i0", 0)
        eps, rho = raw.get("eps", 0.0), raw.get("rho", 1.0)
        if not (_is_real(eps) and _is_real(rho) and math.isfinite(eps) and math.isfinite(rho)):
            raise ValueError(f"eps and rho must be finite numbers, got {eps!r} and {rho!r}")
        eps, rho = float(eps), float(rho)
        mu0 = SparseMeasure(positions.reshape(-1, cert_cfg.dim), amplitudes)
        approx = calibrated_certificate(cert_cfg, mu0, i0)
        report = verify_soft_conditions(
            approx.certificate, mu0, i0, cert_cfg.lam,
            coeff_norm=approx.coeff_norm, eps=eps, rho=rho,
            mesh_points=cert_cfg.mesh_points,
        )
    except KeyError as exc:
        raise ConfigError(f"certify config: missing field {exc}") from exc
    except ValueError as exc:  # all inputs come from the config: a value is out of range
        raise ConfigError(f"certify config: {exc}") from exc
    doc = {
        "feasible": report.feasible,
        "sigma": report.sigma,
        "tau": report.tau,
        "tau_mesh": report.tau_mesh,
        "mesh_margin": report.mesh_margin,
        "anchor": report.anchor,
        "sup_error": report.sup_error,
        "approx_sup_error": approx.sup_error,
        "coeff_norm": report.coeff_norm,
        "weight_norm": report.weight_norm,
        "bound_noiseless": _json_float(report.bound_noiseless),
        "bound_noisy": _json_float(report.bound_noisy),
        "eps": eps,
        "rho": rho,
        "m": cert_cfg.m,
        "p_jackson": cert_cfg.p_jackson,
        "lam": cert_cfg.lam,
    }
    os.makedirs(args.out, exist_ok=True)
    bench._atomic_write(os.path.join(args.out, "certificate_report.json"), bench._json_text(doc))
    axis = np.linspace(-1.0, 1.0, 1024)
    if cert_cfg.dim == 1:
        pts = axis.reshape(-1, 1)
    else:
        pts = np.column_stack([axis, np.full_like(axis, float(report.p0[1]))])
    table = np.column_stack([pts, approx.certificate(pts)])
    bench._atomic_write(
        os.path.join(args.out, "certificate.csv"),
        bench._csv_text(["x", "y"][: cert_cfg.dim] + ["certificate"], table),
    )
    print(f"feasible={report.feasible} sigma={report.sigma:.6g} tau={report.tau:.6g}")
    return 0


def _json_float(x: float):
    return None if (x is None or math.isnan(x)) else x


def _cmd_bench(args) -> int:
    configs = bench.load_configs(args.config, args.seed)
    arts = bench.run_sweep(configs, out_dir=args.out)
    code = 0
    for cfg, art in zip(configs, arts):
        rec = art.record
        print(
            f"{cfg.name}: mean position error {rec.mean_position_error:.6g}, "
            f"field rmse {rec.field_rmse:.6g}, runtime {art.runtime_s:.2f}s"
        )
        code = max(code, art.exit_code)
    return code


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="heatloc",
        description="Localize sparse instantaneous heat sources from few samples.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_sim = sub.add_parser("simulate", help="synthesize measurements for a scenario")
    p_solve = sub.add_parser("solve", help="run a method on stored measurements")
    p_cert = sub.add_parser("certify", help="build and verify a soft-recovery certificate")
    p_bench = sub.add_parser("bench", help="run a full scenario or sweep")
    for p in (p_sim, p_solve, p_cert, p_bench):
        p.add_argument("--config", required=True, help="path to a JSON config")
        p.add_argument("--out", required=True, help="output directory")
        if p is not p_cert:
            p.add_argument("--seed", type=int, default=None, help="override all seeds")
    p_solve.add_argument(
        "--measurements", required=True, help="measurements.csv written by simulate"
    )

    args = parser.parse_args(argv)
    handlers = {
        "simulate": _cmd_simulate,
        "solve": _cmd_solve,
        "certify": _cmd_certify,
        "bench": _cmd_bench,
    }
    try:
        return handlers[args.command](args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 1
    except MemoryError as exc:  # every array size comes from the config
        print(f"config error: not enough memory: {exc}", file=sys.stderr)
        return 1
    except FileNotFoundError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
