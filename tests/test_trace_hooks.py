"""The benchmark's tracer wraps heatloc functions by module and name.

A rename of a traced layer would only surface in a traced benchmark run;
this checks every target of ``perfbench/tracing.py`` resolves.
"""

import importlib.util
import pathlib

TRACING = pathlib.Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def test_every_trace_target_resolves():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    missing = [
        f"{module.__name__}.{attr}"
        for module, attr, _, _ in tracing.TARGETS
        if not callable(getattr(module, attr, None))
    ]
    assert tracing.TARGETS and not missing
