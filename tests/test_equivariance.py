"""The pipeline commutes with the symmetries of the continuous problem.

Shifting the domain and the sources moves the estimate by the same shift.
Scaling the amplitudes scales the estimated amplitudes.  Scaling lengths by
s, with the sample time tau = rho * delta**2 following as s**2, scales the
estimated positions and leaves the amplitudes as they were.  So each
transformed run must take the same discrete path as the original (rounds,
final grid size, stop reason, atom count) and land on the transformed
estimate up to rounding.  The factors are not powers of two, whose scalings
are exact in binary.  ``noisy_1d_40db`` runs with the universal penalty: its
shipped absolute penalty does not scale with the data, which breaks the
amplitude symmetry.
"""

import copy
import functools
import json
import operator
import pathlib

import numpy as np
import pytest

from heatloc.bench import load_config, run_scenario

CONFIGS = pathlib.Path(__file__).resolve().parent.parent / "configs"
SCENARIOS = [
    ("noiseless_1d_on_grid.json", "noiseless_1d_on_grid"),
    ("noiseless_1d_off_grid.json", "noiseless_1d_off_grid"),
    ("noisy_1d_40db.json", "noisy_1d_40db"),
    ("sweep_2d_snr.json", "snr00db"),
    ("sweep_2d_snr.json", "snr20db"),
    ("sweep_2d_snr.json", "snr30db"),
]
TRANSFORMS = [("shift", np.pi), ("shift", -7.3), ("amplitude", 0.37), ("amplitude", 3.0),
              ("length", 0.7), ("length", 3.0)]
RTOL = 1e-7  # positions relative to the domain length, amplitudes relative to themselves


def scenario_doc(file: str, name: str) -> dict:
    raw = json.loads((CONFIGS / file).read_text())
    sweep = raw.pop("sweep", [{}])
    doc = next(raw | override for override in sweep if (raw | override)["name"] == name)
    if file == "noisy_1d_40db.json":
        doc["refinement"] = doc["refinement"] | {"lasso_lambda": "universal"}
    return doc


def transformed(doc: dict, kind: str, c: float) -> dict:
    """The scenario with its domain and sources shifted by c, or amplitudes or lengths scaled by c."""
    doc = copy.deepcopy(doc)
    if kind == "amplitude":
        doc["amplitudes"] = [a * c for a in doc["amplitudes"]]
        return doc
    move = operator.add if kind == "shift" else operator.mul
    doc["domain_lo"] = [move(v, c) for v in doc["domain_lo"]]
    doc["domain_hi"] = [move(v, c) for v in doc["domain_hi"]]
    if "source_positions" in doc:
        doc["source_positions"] = [[move(v, c) for v in p] for p in doc["source_positions"]]
    if kind == "length":
        doc["min_separation"] = doc.get("min_separation", 1.0) * c
    return doc


@functools.cache
def original_run(file: str, name: str):
    return run_scenario(load_config(scenario_doc(file, name)))


def outcome(art) -> tuple:
    """The discrete path of a run: rounds, final grid size, stop reason and atom count."""
    return art.result.rounds, art.result.final_grid.shape[0], art.result.stopped_by, art.estimate.n_atoms


@pytest.mark.parametrize("kind, c", TRANSFORMS)
@pytest.mark.parametrize("file, name", SCENARIOS)
def test_run_commutes_with_transform(file, name, kind, c):
    base = original_run(file, name)
    doc = transformed(scenario_doc(file, name), kind, c)
    art = run_scenario(load_config(doc))
    assert outcome(art) == outcome(base)
    positions, amplitudes = base.estimate.positions, base.estimate.amplitudes
    if kind == "shift":
        positions = positions + c
    elif kind == "length":
        positions = positions * c
    else:
        amplitudes = amplitudes * c
    length = max(h - l for l, h in zip(doc["domain_lo"], doc["domain_hi"]))
    np.testing.assert_allclose(art.estimate.positions, positions, rtol=0, atol=RTOL * length)
    np.testing.assert_allclose(art.estimate.amplitudes, amplitudes, rtol=RTOL)
