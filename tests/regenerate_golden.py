"""Rewrite the golden outputs that ``test_golden.py`` compares against.

Usage, from the checkout root::

    PYTHONPATH=src python tests/regenerate_golden.py [COMMAND/CONFIG ...]

Each ``tests/golden/<command>/<config>/`` directory named, such as
``bench/sweep_2d_snr``, or every one when none is named, is replaced by what
the CLI writes for ``configs/<config>.json``: all ``heatloc bench`` or
``heatloc certify`` outputs except the ``run_meta.json`` timing sidecar, and
for ``solve/`` the ``measurements.csv`` of ``heatloc simulate`` and the
``estimate.json`` that ``heatloc solve`` makes of it.  A command that exits
non-zero stops the script before its directory is touched.  A golden file
records an intended output: review ``git diff tests/golden`` before
committing one.
"""

import pathlib
import shutil
import sys
import tempfile

from heatloc.cli import main

ROOT = pathlib.Path(__file__).resolve().parent.parent
GOLDEN = ROOT / "tests" / "golden"


def regenerate(command: str, config: str) -> None:
    """Rerun one golden directory's CLI commands and replace its files with their outputs."""
    path = str(ROOT / "configs" / f"{config}.json")
    with tempfile.TemporaryDirectory() as tmp:
        out = pathlib.Path(tmp)
        if command == "solve":
            measurements = str(out / "measurements.csv")
            runs = [["simulate", "--config", path, "--out", tmp],
                    ["solve", "--config", path, "--measurements", measurements, "--out", tmp]]
        else:
            runs = [[command, "--config", path, "--out", tmp]]
        for argv in runs:
            if main(argv) != 0:
                sys.exit(f"heatloc {' '.join(argv)} exited non-zero; {command}/{config} left as it was")
        if command == "solve":
            files = [out / "measurements.csv", out / "estimate.json"]
        else:
            files = [p for p in out.rglob("*") if p.is_file() and p.name != "run_meta.json"]
        target = GOLDEN / command / config
        shutil.rmtree(target, ignore_errors=True)
        for src in files:
            dest = target / src.relative_to(out)
            dest.parent.mkdir(parents=True, exist_ok=True)
            shutil.copyfile(src, dest)


if __name__ == "__main__":
    names = sys.argv[1:] or [f"{d.parent.name}/{d.name}" for d in sorted(GOLDEN.glob("*/*")) if d.is_dir()]
    for name in names:
        command, config = name.strip("/").split("/")
        regenerate(command, config)
        print(f"rewrote tests/golden/{command}/{config}")
