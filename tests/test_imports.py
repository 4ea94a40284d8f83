"""Import hygiene of the package, checked on each module's syntax tree."""

from __future__ import annotations

import ast
import importlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "dqdsim"
MODULES = sorted(path.stem for path in SRC.glob("*.py"))


@pytest.mark.parametrize("name", MODULES)
def test_exports_exist_and_every_import_is_used(name):
    tree = ast.parse((SRC / f"{name}.py").read_text())
    module = importlib.import_module("dqdsim" if name == "__init__" else f"dqdsim.{name}")
    exported = set(getattr(module, "__all__", ()))
    assert not {n for n in exported if not hasattr(module, n)}, "__all__ names a missing name"

    imported = {
        alias.asname or alias.name.split(".")[0]
        for node in ast.walk(tree)
        if isinstance(node, (ast.Import, ast.ImportFrom))
        and getattr(node, "module", None) != "__future__"
        for alias in node.names
    }
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    assert imported - used - exported == set(), "imported but neither used nor re-exported"


@pytest.mark.parametrize("name", MODULES)
def test_runtime_imports_are_the_standard_library_numpy_or_dqdsim(name):
    # numpy is the one runtime dependency; scipy is a test-time oracle only
    tree = ast.parse((SRC / f"{name}.py").read_text())
    absolute = {alias.name for node in ast.walk(tree) if isinstance(node, ast.Import)
                for alias in node.names}
    absolute |= {node.module for node in ast.walk(tree)
                 if isinstance(node, ast.ImportFrom) and node.level == 0}
    allowed = set(sys.stdlib_module_names) | {"numpy", "dqdsim"}
    assert {module.split(".")[0] for module in absolute} - allowed == set()


def test_readout_loads_no_decoherence_code():
    # A fresh interpreter: this test process has long imported every module.
    script = "import sys, dqdsim.readout; assert 'dqdsim.decoherence' not in sys.modules"
    path = os.pathsep.join(filter(None, [str(SRC.parent), os.environ.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-c", script], env={**os.environ, "PYTHONPATH": path},
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr


def test_tau_sweep_loads_no_numpy_ma():
    # np.unique imports numpy.ma on its first call; a sweep's fit needs none of it.
    script = ("import os, sys\nfrom dqdsim import cli\n"
              "assert cli.main(['decohere', '--sweep', 'tau', '--out', os.devnull]) == 0\n"
              "assert 'numpy.ma' not in sys.modules")
    path = os.pathsep.join(filter(None, [str(SRC.parent), os.environ.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-c", script], env={**os.environ, "PYTHONPATH": path},
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
