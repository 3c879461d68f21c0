"""Golden outputs: the shipped configs, rerun through the CLI, against stored files.

``tests/golden/bench/<config>/`` holds every ``heatloc bench`` output of
``configs/<config>.json`` except the ``run_meta.json`` timing sidecar,
``tests/golden/certify/<config>/`` the ``heatloc certify`` outputs, and
``tests/golden/solve/<config>/`` the ``measurements.csv`` of ``heatloc
simulate`` and the ``estimate.json`` that ``heatloc solve`` makes of it.  Strings,
integers, booleans, nulls and the structure of each file must be equal;
floats must agree to ``RTOL`` relative, or ``ATOL`` absolute where both are
below it (round-off of order-one quantities, such as a KKT residual of
1e-15).  The largest difference is printed either way.  After an intended
change of output, ``tests/regenerate_golden.py`` rewrites the directories
named on its command line (see its docstring).
"""

import json
import math
import pathlib

import pytest

from heatloc.cli import main

ROOT = pathlib.Path(__file__).resolve().parent.parent
GOLDEN = ROOT / "tests" / "golden"
RTOL = 1e-9
ATOL = 1e-12


def _float_gap(a: float, b: float) -> float:
    """Relative difference of two floats, 0 where equal or both below ATOL."""
    if a == b or (math.isnan(a) and math.isnan(b)) or abs(a - b) <= ATOL:
        return 0.0
    if not (math.isfinite(a) and math.isfinite(b)):
        return math.inf
    return abs(a - b) / max(abs(a), abs(b))


def _json_gap(gold, new, where: str) -> float:
    """Largest relative float difference of two parsed JSON documents; any other mismatch fails."""
    if isinstance(gold, float) and isinstance(new, float):
        return _float_gap(gold, new)
    assert type(gold) is type(new), f"{where}: {gold!r} became {new!r}"
    if isinstance(gold, dict):
        assert sorted(gold) == sorted(new), f"{where}: keys {sorted(gold)} became {sorted(new)}"
        return max((_json_gap(gold[k], new[k], f"{where}.{k}") for k in gold), default=0.0)
    if isinstance(gold, list):
        assert len(gold) == len(new), f"{where}: length {len(gold)} became {len(new)}"
        return max((_json_gap(g, n, f"{where}[{i}]") for i, (g, n) in enumerate(zip(gold, new))), default=0.0)
    assert gold == new, f"{where}: {gold!r} became {new!r}"
    return 0.0


def _csv_gap(gold: str, new: str, where: str) -> float:
    """Largest relative difference of two float tables; the header and shape must be equal."""
    gold_lines, new_lines = gold.splitlines(), new.splitlines()
    assert gold_lines[0] == new_lines[0], f"{where}: header {gold_lines[0]!r} became {new_lines[0]!r}"
    assert len(gold_lines) == len(new_lines), f"{where}: {len(gold_lines)} lines became {len(new_lines)}"
    gap = 0.0
    for i, (g, n) in enumerate(zip(gold_lines[1:], new_lines[1:]), start=2):
        g_row, n_row = g.split(","), n.split(",")
        assert len(g_row) == len(n_row), f"{where}:{i}: {g!r} became {n!r}"
        gap = max([gap] + [_float_gap(float(a), float(b)) for a, b in zip(g_row, n_row)])
    return gap


def _assert_match(gold_dir: pathlib.Path, new_dir: pathlib.Path, files: list, label: str) -> None:
    """Every file in ``files`` under ``new_dir`` matches its copy under ``gold_dir``."""
    gaps = {}
    for rel in files:
        gold, new = (gold_dir / rel).read_text(), (new_dir / rel).read_text()
        if rel.suffix == ".json":
            gaps[str(rel)] = _json_gap(json.loads(gold), json.loads(new), str(rel))
        else:
            gaps[str(rel)] = _csv_gap(gold, new, str(rel))
    worst = max(gaps, key=gaps.get)
    print(f"{label}: largest relative float difference {gaps[worst]:.3g} in {worst}")
    assert gaps[worst] <= RTOL, f"{worst}: relative float difference {gaps[worst]:.3g} exceeds {RTOL:g}"


@pytest.mark.parametrize(
    "command, config",
    [("bench", p.name) for p in sorted((GOLDEN / "bench").iterdir())]
    + [("certify", p.name) for p in sorted((GOLDEN / "certify").iterdir())],
)
def test_outputs_match_golden(tmp_path, command, config):
    gold_dir = GOLDEN / command / config
    argv = [command, "--config", str(ROOT / "configs" / f"{config}.json"), "--out", str(tmp_path)]
    assert main(argv) == 0
    gold_files = sorted(p.relative_to(gold_dir) for p in gold_dir.rglob("*") if p.is_file())
    new_files = sorted(
        p.relative_to(tmp_path) for p in tmp_path.rglob("*") if p.is_file() and p.name != "run_meta.json"
    )
    assert new_files == gold_files
    _assert_match(gold_dir, tmp_path, gold_files, f"{command} {config}")


@pytest.mark.parametrize("config", [p.name for p in sorted((GOLDEN / "solve").iterdir())])
def test_simulate_then_solve_match_golden(tmp_path, config):
    path = str(ROOT / "configs" / f"{config}.json")
    assert main(["simulate", "--config", path, "--out", str(tmp_path)]) == 0
    measurements = str(tmp_path / "measurements.csv")
    assert main(["solve", "--config", path, "--measurements", measurements, "--out", str(tmp_path)]) == 0
    files = [pathlib.Path("measurements.csv"), pathlib.Path("estimate.json")]
    _assert_match(GOLDEN / "solve" / config, tmp_path, files, f"simulate, solve {config}")
