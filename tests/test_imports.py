"""Every name a package module imports is used by that module, and every
name in a module's `__all__` is defined there.

Names listed in `__all__`, the re-exports of `__init__.py` and `from
__future__` imports count as used.
"""

import ast
import importlib
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "ifnet"
MODULES = sorted(p for p in SRC.glob("*.py") if p.name != "__init__.py")


def unused_imports(source: str) -> list[str]:
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for node in ast.walk(tree):
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets):
            used.update(ast.literal_eval(node.value))
    return sorted(name for name in imported if name not in used)


def test_scanner_flags_an_unused_import():
    source = ("from __future__ import annotations\nimport os, sys\n"
              "from a import b, c\n__all__ = ['c']\nsys.exit()\n")
    assert unused_imports(source) == ["b", "os"]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_module_uses_its_imports(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []


# modules that declare `__all__`; importing __main__ would run the CLI
EXPORTING = [p for p in MODULES if "\n__all__ = " in p.read_text(encoding="utf-8")]


@pytest.mark.parametrize("path", EXPORTING, ids=lambda p: p.name)
def test_module_defines_its_all(path):
    module = importlib.import_module(f"ifnet.{path.stem}")
    assert [name for name in module.__all__ if not hasattr(module, name)] == []
