"""Import hygiene: no SciPy at import time, and every exported name resolves.

Importing the package, its CLI, its certificate lab or its bench leaves SciPy
unloaded.  SciPy is needed only by ``bench.match_sources``, which imports it
on call; loading ``scipy.optimize`` at import time used to be most of the
start-up time of every ``heatloc`` command.
"""

import importlib
import os
import pathlib
import pkgutil
import subprocess
import sys

import pytest

import heatloc

SRC = pathlib.Path(__file__).resolve().parents[1] / "src"


@pytest.mark.parametrize(
    "module", ["heatloc", "heatloc.cli", "heatloc.certificates", "heatloc.bench"]
)
def test_import_does_not_load_scipy(module):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(SRC), env.get("PYTHONPATH")) if p)
    code = (
        f"import sys, {module}\n"
        "loaded = sorted(m for m in sys.modules if m.split('.')[0] == 'scipy')\n"
        "assert not loaded, loaded[:5]\n"
    )
    proc = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=60
    )
    assert proc.returncode == 0, proc.stderr


MODULES = ["heatloc"] + sorted(m.name for m in pkgutil.iter_modules(heatloc.__path__, "heatloc."))


@pytest.mark.parametrize("module", MODULES)
def test_every_exported_name_resolves(module):
    mod = importlib.import_module(module)
    exported = getattr(mod, "__all__", None)
    assert exported is not None, f"{module} has no __all__"
    missing = [name for name in exported if not hasattr(mod, name)]
    assert not missing, f"{module}.__all__ names undefined {missing}"
    assert len(set(exported)) == len(exported), f"{module}.__all__ repeats a name"
