"""Spans and counts around calls into heatloc's layers, for the traced run.

The wrappers replace module attributes of ``heatloc`` in this process only,
at the names the calling layer looks up (``heatloc.refinement.solve_lasso``
is what ``run_refinement`` calls), and are removed by ``uninstall``.  The
untraced run installs nothing.  Spans are kept in memory; a layer's self
time is its span minus the spans of the calls it made that are traced too.
"""

from __future__ import annotations

import os
import time
from collections import defaultdict

import heatloc.bench as hb
import heatloc.certificates as hc
import heatloc.operators as ho
import heatloc.refinement as hr


def _count_solve(prefix, work):
    def count(counts, args, kwargs, out):
        counts[prefix + ".calls"] += 1
        counts[prefix + "." + work] += out.iterations
        counts[prefix + ".converged"] += bool(out.converged)
    return count


def _count_dictionary(counts, args, kwargs, out):
    counts["operators.build_dictionary.calls"] += 1
    counts["operators.build_dictionary.columns"] += out.shape[1]


def _count_points(counts, args, kwargs, out):
    counts["operators.certificate_eval.points"] += max(1, int(getattr(out, "size", 1)))


def _count_emit(counts, args, kwargs, out):
    counts["bench.emit_results.bytes"] += sum(os.path.getsize(p) for p in out.values())


def _count_stable(counts, args, kwargs, out):
    counts["certificates.verify_soft_stable_inequality.calls"] += 1
    counts["certificates.verify_soft_stable_inequality.solved"] += out is not None


def _count_refinement(counts, args, kwargs, out):
    counts["refinement.runs"] += 1
    counts["refinement.rounds"] += out.rounds
    counts["refinement.final_grid_points"] += out.final_grid.shape[0]
    counts["refinement.stopped_by_rule"] += out.stopped_by != "max_rounds"


# (module, attribute, span name, counter)
TARGETS = [
    (hb, "run_scenario", "bench.run_scenario", None),
    (hb, "emit_results", "bench.emit_results", _count_emit),
    (hb, "synthesize", "bench.synthesize", None),
    (hb, "run_refinement", "refinement.run_refinement", _count_refinement),
    (hb, "evaluate_field", "field.evaluate_field", None),
    (hr, "build_dictionary", "operators.build_dictionary", _count_dictionary),
    (ho, "build_dictionary", "operators.build_dictionary", _count_dictionary),
    (hr, "solve_l1_equality", "solvers.solve_l1_equality",
     _count_solve("solvers.solve_l1_equality", "iterations")),
    (hr, "solve_lasso", "solvers.solve_lasso", _count_solve("solvers.solve_lasso", "steps")),
    (hr, "refine_grid", "refinement.refine_grid", None),
    (hr, "select_peaks_1d", "refinement.extract", None),
    (hr, "select_peaks_2d", "refinement.extract", None),
    (hr, "recover_amplitudes", "refinement.recover_amplitudes", None),
    (ho, "certificate_eval", "operators.certificate_eval", _count_points),
    (ho, "certificate_gradient", "operators.certificate_gradient", None),
    (hc, "calibrated_certificate", "certificates.calibrated_certificate", None),
    (hc, "verify_soft_conditions", "certificates.verify_soft_conditions", None),
    (hc, "verify_soft_stable_inequality", "certificates.verify_soft_stable_inequality", _count_stable),
]


class Tracer:
    """Records (name, start, end, parent) spans and per-layer counts."""

    def __init__(self):
        self.spans: list[list] = []  # [name, start, end, parent index]
        self.counts: dict[str, float] = defaultdict(float)
        self._stack: list[int] = []
        self._saved: list[tuple] = []

    def _wrap(self, name, fn, count):
        def traced(*args, **kwargs):
            idx = len(self.spans)
            parent = self._stack[-1] if self._stack else -1
            self.spans.append([name, time.perf_counter(), 0.0, parent])
            self._stack.append(idx)
            try:
                out = fn(*args, **kwargs)
            finally:
                self._stack.pop()
                self.spans[idx][2] = time.perf_counter()
            if count is not None:
                count(self.counts, args, kwargs, out)
            return out

        return traced

    def install(self) -> None:
        for module, attr, name, count in TARGETS:
            fn = getattr(module, attr)
            self._saved.append((module, attr, fn))
            setattr(module, attr, self._wrap(name, fn, count))

    def uninstall(self) -> None:
        for module, attr, fn in reversed(self._saved):
            setattr(module, attr, fn)
        self._saved.clear()

    def self_times(self) -> dict[str, float]:
        """Total self time per span name: duration minus traced children."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out: dict[str, float] = defaultdict(float)
        for (name, start, end, _), c in zip(self.spans, child):
            out[name] += end - start - c
        return out
