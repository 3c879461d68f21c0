"""Format checks of the benchmark's result line, in its quick mode (one round).

Run from the root of a checkout:  python3 -m pytest -q perfbench/test_perfbench.py
"""

import json
import math
import os
import shutil
import subprocess
import sys

import numpy as np
import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
    SPEC = json.load(fh)


def _run(workload: str, trace: int, cwd: str = ROOT):
    return subprocess.run(
        [sys.executable, os.path.join(cwd, "perfbench", "run.py"), "--workload", workload,
         "--seed", "7", "--seconds", "1", "--trace", str(trace), "--quick"],
        cwd=cwd, capture_output=True, text=True, timeout=300,
    )


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_result_line_matches_benchmark_json(workload, trace):
    proc = _run(workload, trace)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert isinstance(result["attempted"], int) and result["attempted"] >= 1
    assert isinstance(result["failed"], int) and 0 <= result["failed"] <= result["attempted"]
    expected = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert list(result["metrics"]) == [m["name"] for m in expected]
    for m in expected:
        got = result["metrics"][m["name"]]
        assert got["unit"] == m["unit"]
        assert isinstance(got["value"], (int, float)) and math.isfinite(got["value"])
        if not trace:
            assert got["value"] > 0


def test_errors_count_unmatched_atoms_as_spurious_mass():
    sys.path.insert(0, HERE)
    from checks import errors

    truth_pos, truth_amp = np.array([[1.0], [3.0]]), np.array([1.0, 1.0])
    est_pos, est_amp = np.array([[3.01], [2.0], [1.0]]), np.array([0.98, -0.2, 1.0])
    pos_err, amp_err, spurious = errors(truth_pos, truth_amp, est_pos, est_amp)
    assert pos_err == pytest.approx(0.01)
    assert amp_err == pytest.approx(0.02)
    assert spurious == pytest.approx(0.1)


def test_expected_failures_name_operations_of_the_workloads():
    sys.path.insert(0, HERE)
    sys.path.insert(0, os.path.join(ROOT, "src"))
    import workloads

    labels = {op.label for name in ("noisy_1d", "noisy_2d") for op in next(workloads.rounds(name, 0))}
    assert workloads.EXPECTED_FAILURES <= labels


def test_fails_without_the_program(tmp_path):
    """A directory holding only the benchmark exits non-zero and prints no result."""
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = _run("noisy_1d", 0, cwd=str(tmp_path))
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
