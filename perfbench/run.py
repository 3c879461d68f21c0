"""Seeded benchmark for heatloc.

Run from the root of a checkout (heatloc is imported from ``src/``):

    python3 perfbench/run.py --workload noisy_1d --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --all --seed 1 --seconds 20   # every workload, both runs, a table
    python3 perfbench/run.py --all --quick                  # one round each, format check

One run draws whole rounds of operations from ``--seed`` and runs them one
at a time until their summed wall time reaches ``--seconds``.  Every round
of a workload holds the same kinds of operation, so timings are taken per
round.  Each output
is checked by ``checks.py`` (outside the timed region).  The last line of
standard output is one JSON object: ``correct``, ``attempted``, ``failed``
and ``metrics``; ``--trace 0`` gives the end-to-end metrics, ``--trace 1``
the per-layer metrics of a separate run with tracing wrappers installed.
See README.md for what each metric means.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))

SETUP_PROBES = 5


def _setup_probe(workload: str) -> None:
    """What a user pays before the first operation: import and config validation."""
    import workloads

    next(workloads.rounds(workload, 0))


def measure_setup(workload: str, probes: int) -> float:
    """Median wall time of fresh processes that import heatloc and validate configs."""
    times = []
    for _ in range(probes):
        start = time.perf_counter()
        subprocess.run(
            [sys.executable, os.path.abspath(__file__), "--setup-probe", "--workload", workload],
            cwd=ROOT, check=True, stdout=subprocess.DEVNULL,
        )
        times.append(time.perf_counter() - start)
    return statistics.median(times)


def run_workload(workload: str, seed: int, seconds: float, trace: bool, max_rounds: int | None):
    """Run whole rounds until the operations' summed wall time reaches ``seconds``.

    Returns the wall time of each operation, grouped by round.
    """
    import workloads

    tracer = None
    if trace:
        from tracing import Tracer

        tracer = Tracer()
        tracer.install()
    out_dir = workloads.output_dir(ROOT, workload)
    round_times, failures, unexpected = [], [], set()
    try:
        for ops in workloads.rounds(workload, seed):
            times = []
            for op in ops:
                start = time.perf_counter()
                output = op.run(out_dir)
                times.append(time.perf_counter() - start)
                problems = op.check(output)
                if problems:
                    failures.append((op.label, problems))
                if bool(problems) != (op.label in workloads.EXPECTED_FAILURES):
                    unexpected.add(op.label)
            round_times.append(times)
            if sum(map(sum, round_times)) >= seconds or len(round_times) == max_rounds:
                break
    finally:
        if tracer is not None:
            tracer.uninstall()
        shutil.rmtree(out_dir, ignore_errors=True)
    return round_times, failures, unexpected, tracer


def _metric(value, unit):
    return {"value": value, "unit": unit}


def op_s_p50(round_times) -> float:
    """Median over rounds of the round's mean operation time.

    A round mixes operations of different cost; its mean is a sample of the
    same quantity in every round, where single operations are not.
    """
    return statistics.median(sum(r) / len(r) for r in round_times)


def end_to_end(round_times, setup_s) -> dict:
    peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    return {
        "setup_s": _metric(setup_s, "s"),
        "op_s_p50": _metric(op_s_p50(round_times), "s"),
        "ops_per_s": _metric(sum(map(len, round_times)) / sum(map(sum, round_times)), "1/s"),
        "peak_rss_mb": _metric(peak_kb / 1024.0, "MB"),
    }


def per_layer(round_times, tracer) -> dict:
    n = sum(map(len, round_times))
    st, c = tracer.self_times(), tracer.counts

    def ratio(num, den):
        return c[num] / c[den] if c[den] else 0.0

    m = {
        "traced.op_s_p50": (op_s_p50(round_times), "s"),
        "solvers.solve_l1_equality.s": (st["solvers.solve_l1_equality"] / n, "s"),
        "solvers.solve_l1_equality.calls": (c["solvers.solve_l1_equality.calls"] / n, "count"),
        "solvers.solve_l1_equality.iterations": (c["solvers.solve_l1_equality.iterations"] / n, "count"),
        "solvers.solve_l1_equality.converged_ratio": (
            ratio("solvers.solve_l1_equality.converged", "solvers.solve_l1_equality.calls"), "ratio"),
        "solvers.solve_lasso.s": (st["solvers.solve_lasso"] / n, "s"),
        "solvers.solve_lasso.calls": (c["solvers.solve_lasso.calls"] / n, "count"),
        "solvers.solve_lasso.steps": (c["solvers.solve_lasso.steps"] / n, "count"),
        "solvers.solve_lasso.converged_ratio": (
            ratio("solvers.solve_lasso.converged", "solvers.solve_lasso.calls"), "ratio"),
        "refinement.refine_grid.s": (st["refinement.refine_grid"] / n, "s"),
        "refinement.rounds": (ratio("refinement.rounds", "refinement.runs"), "count"),
        "refinement.final_grid_points": (ratio("refinement.final_grid_points", "refinement.runs"), "count"),
        "refinement.stop_rule_ratio": (ratio("refinement.stopped_by_rule", "refinement.runs"), "ratio"),
        "refinement.extract.s": (st["refinement.extract"] / n, "s"),
        "refinement.recover_amplitudes.s": (st["refinement.recover_amplitudes"] / n, "s"),
        "refinement.run_refinement.self_s": (st["refinement.run_refinement"] / n, "s"),
        "operators.build_dictionary.s": (st["operators.build_dictionary"] / n, "s"),
        "operators.build_dictionary.calls": (c["operators.build_dictionary.calls"] / n, "count"),
        "operators.build_dictionary.columns": (c["operators.build_dictionary.columns"] / n, "count"),
        "operators.certificate_eval.s": (st["operators.certificate_eval"] / n, "s"),
        "operators.certificate_eval.points": (c["operators.certificate_eval.points"] / n, "count"),
        "operators.certificate_gradient.s": (st["operators.certificate_gradient"] / n, "s"),
        "field.evaluate_field.s": (st["field.evaluate_field"] / n, "s"),
        "bench.synthesize.s": (st["bench.synthesize"] / n, "s"),
        "bench.run_scenario.self_s": (st["bench.run_scenario"] / n, "s"),
        "bench.emit_results.s": (st["bench.emit_results"] / n, "s"),
        "bench.emit_results.bytes": (c["bench.emit_results.bytes"] / n, "bytes"),
        "certificates.calibrated_certificate.s": (st["certificates.calibrated_certificate"] / n, "s"),
        "certificates.verify_soft_conditions.s": (st["certificates.verify_soft_conditions"] / n, "s"),
        "certificates.verify_soft_stable_inequality.s": (
            st["certificates.verify_soft_stable_inequality"] / n, "s"),
        "certificates.stable_solved_ratio": (
            ratio("certificates.verify_soft_stable_inequality.solved",
                  "certificates.verify_soft_stable_inequality.calls"), "ratio"),
    }
    return {k: _metric(v, u) for k, (v, u) in m.items()}


def run_one(args) -> int:
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}", file=sys.stderr)
        return 2
    max_rounds = 1 if args.quick else None
    round_times, failures, unexpected, tracer = run_workload(
        args.workload, args.seed, args.seconds, bool(args.trace), max_rounds)
    # after the operations, so the untraced and traced runs time them alike
    setup_s = None if args.trace else measure_setup(args.workload, 1 if args.quick else SETUP_PROBES)
    for label, problems in failures:
        print(f"FAILED {label}: {'; '.join(problems)}", file=sys.stderr)
    for label in sorted(unexpected):
        print(f"UNEXPECTED {label}: its outcome differs from workloads.EXPECTED_FAILURES", file=sys.stderr)
    metrics = per_layer(round_times, tracer) if args.trace else end_to_end(round_times, setup_s)
    print(json.dumps({
        "correct": not unexpected,
        "attempted": sum(map(len, round_times)),
        "failed": len(failures),
        "metrics": metrics,
    }))
    return 0


def run_all(args) -> int:
    """Every workload, untraced then traced, each in its own process; prints a table."""
    from workloads import WORKLOADS

    ok = True
    for workload in WORKLOADS:
        results = {}
        for trace in (0, 1):
            cmd = [sys.executable, os.path.abspath(__file__), "--workload", workload,
                   "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(trace)]
            if args.quick:
                cmd.append("--quick")
            proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
            if proc.returncode != 0:
                print(proc.stderr, file=sys.stderr)
                return proc.returncode
            results[trace] = json.loads(proc.stdout.strip().splitlines()[-1])
        e2e, layers = results[0], results[1]
        ok &= e2e["correct"] and layers["correct"]
        print(f"== {workload}: correct={e2e['correct']} attempted={e2e['attempted']} "
              f"failed={e2e['failed']} (traced run: attempted={layers['attempted']} "
              f"failed={layers['failed']})")
        for name, m in list(e2e["metrics"].items()) + list(layers["metrics"].items()):
            print(f"  {name:48s} {m['value']:14.6g} {m['unit']}")
        p50, traced = e2e["metrics"]["op_s_p50"]["value"], layers["metrics"]["traced.op_s_p50"]["value"]
        print(f"  {'tracing overhead on op_s_p50':48s} {100.0 * (traced / p50 - 1.0):13.1f}% ")
    return 0 if ok else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--all", action="store_true", help="run every workload and print a table")
    parser.add_argument("--quick", action="store_true", help="one round per workload")
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.setup_probe:
        _setup_probe(args.workload)
        return 0
    if args.all:
        return run_all(args)
    if not args.workload:
        parser.error("--workload is required (or --all)")
    return run_one(args)


if __name__ == "__main__":
    sys.exit(main())
