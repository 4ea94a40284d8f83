from __future__ import annotations

import ast
import contextlib
import importlib
import io
import re
from pathlib import Path

import dqdsim

README = Path(__file__).resolve().parent.parent / "README.md"


def _quick_start_python() -> str:
    text = README.read_text()
    section = text[text.index("## Quick start"):]
    match = re.search(r"```python\n(.*?)```", section, re.DOTALL)
    assert match, "the quick start has no python block"
    return match.group(1)


def test_quick_start_runs():
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(compile(_quick_start_python(), str(README), "exec"), {})
    # the last line is the swap sequence's distance from the catalog SWAP
    assert float(out.getvalue().split()[-1]) < 1e-12


def test_package_root_exports_exactly_the_quick_start_imports():
    imported = [
        alias.name
        for node in ast.walk(ast.parse(_quick_start_python()))
        if isinstance(node, ast.ImportFrom) and node.module == "dqdsim"
        for alias in node.names
    ]
    assert sorted(dqdsim.__all__) == sorted(imported)
    assert len(set(imported)) == len(imported) == 7


def _readme_names() -> list[tuple[str, str]]:
    """(module, name) of every ``from dqdsim.<module> import <name>`` and of every
    backticked ``<module>.<name>`` whose module is a dqdsim submodule."""
    text = README.read_text()
    modules = {path.stem for path in Path(dqdsim.__file__).parent.glob("*.py")}
    names = [(module, name.strip())
             for module, names in re.findall(r"from dqdsim\.(\w+) import \(?([\w,\s]+)\)?", text)
             for name in names.split(",") if name.strip()]
    names += [(module, name)
              for module, name in re.findall(r"`(\w+)\.(\w+)[^`\n]*`", text)
              if module in modules]
    return names


def test_readme_names_resolve():
    names = _readme_names()
    assert ("decoherence", "two_phonon_rates_per_s") in names
    missing = [f"{module}.{name}" for module, name in names
               if not hasattr(importlib.import_module(f"dqdsim.{module}"), name)]
    assert missing == []
