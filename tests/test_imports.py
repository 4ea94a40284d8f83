"""Import hygiene of the package, checked on each module's syntax tree."""

from __future__ import annotations

import ast
import importlib
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
