"""The benchmark's tracer wraps heatloc functions by module and name.

A rename of a traced layer would only surface in a traced benchmark run;
this checks every target of ``perfbench/tracing.py`` resolves, and that the
refinement loop still calls the wrapped names once per round and per new
grid point.
"""

import importlib.util
import math
import pathlib

import heatloc.bench as hb

TRACING = pathlib.Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def load_tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    return tracing


def test_every_trace_target_resolves():
    tracing = load_tracing()
    missing = [
        f"{module.__name__}.{attr}"
        for module, attr, _, _ in tracing.TARGETS
        if not callable(getattr(module, attr, None))
    ]
    assert tracing.TARGETS and not missing


def test_traced_noisy_scenario_counts_rounds_and_columns():
    L = 2 * math.pi
    cfg = hb.load_config(
        dict(
            name="traced", dim=1, domain_lo=[0.0], domain_hi=[L], s=3, source_mode="explicit",
            source_positions=[[24 * L / 128], [60 * L / 128], [100 * L / 128]],
            n_sensors=8, snr_db=30.0, noise_seed=1, refinement={"lasso_lambda": "universal"},
        )
    )
    tracer = load_tracing().Tracer()
    tracer.install()
    try:
        art = hb.run_scenario(cfg)
    finally:
        tracer.uninstall()
    counts, result = tracer.counts, art.result
    assert result.rounds > 1
    assert counts["solvers.solve_lasso.calls"] == result.rounds
    # one column per grid point over all rounds (the dictionary is only
    # appended to), plus one per recovered atom for the amplitude fit
    columns = result.final_grid.shape[0] + art.estimate.n_atoms
    assert counts["operators.build_dictionary.columns"] == columns
