"""Every name a package module imports is used by that module, every
name in a module's `__all__` is defined there, and every private top-level
name of a package module is referenced somewhere in the package.  No
package module calls `return_map`, the library's one-state entry point.

Names listed in `__all__`, the re-exports of `__init__.py` and `from
__future__` imports count as used.  Tests do not count as a reference to a
private name: a helper that only tests use belongs in the tests.
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


def _defined(stmt) -> list[str]:
    """Names a top-level statement binds: a def, a class or assignment targets."""
    if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
        return [stmt.name]
    targets = stmt.targets if isinstance(stmt, ast.Assign) else [stmt.target] if isinstance(stmt, ast.AnnAssign) else []
    return [node.id for t in targets for node in ast.walk(t) if isinstance(node, ast.Name)]


def _referenced(stmt) -> set[str]:
    """Names a statement reads: loaded names, attributes and imported names."""
    names = set()
    for node in ast.walk(stmt):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, ast.ImportFrom):
            names.update(alias.name for alias in node.names)
    return names


def orphaned_privates(sources: dict[str, str]) -> list[str]:
    """`module.name` of each private top-level name (one leading underscore,
    not a dunder) that no top-level statement but its own definition reads,
    in any of the modules."""
    statements = [(module, stmt) for module, source in sources.items() for stmt in ast.parse(source).body]
    refs = [_referenced(stmt) for _, stmt in statements]
    return sorted(f"{module}.{name}" for k, (module, stmt) in enumerate(statements) for name in _defined(stmt)
                  if name.startswith("_") and not name.startswith("__")
                  and not any(name in r for j, r in enumerate(refs) if j != k))


def test_scanner_flags_an_orphaned_private():
    a = ("_LIMIT, _UNUSED = 3, 4\n\n\ndef _used():\n    return _LIMIT\n\n\n"
         "def _recursive(k):\n    return _recursive(k - 1) if k else 0\n\n\n"
         "def _orphan():\n    return _used()\n\n\nclass _Imported:\n    pass\n")
    b = "from a import _Imported\n"
    assert orphaned_privates({"a": a, "b": b}) == ["a._UNUSED", "a._orphan", "a._recursive"]


def test_package_has_no_orphaned_private_names():
    sources = {p.stem: p.read_text(encoding="utf-8") for p in sorted(SRC.glob("*.py"))}
    assert orphaned_privates(sources) == []


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_module_does_not_call_the_one_state_return_map(path):
    # `return_map` is the library's one-state entry point; the package steps batches
    calls = [node.func for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
             if isinstance(node, ast.Call)]
    assert "return_map" not in {getattr(f, "attr", getattr(f, "id", None)) for f in calls}
