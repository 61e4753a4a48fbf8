"""List the statements of the ifnet package that a pytest run never executes.

A pytest plugin built on the standard library alone: from the start of the
session it traces every frame of a module of the package with sys.settrace
(threading.settrace for threads started later), and at the end it prints
`module:line  statement` for each statement inside a function that no test
ran.  Module-level and class-body statements and docstrings run at import,
so they are left out; so are statements that run only in a subprocess a test
starts.  It reports and never changes the session's outcome:

    PYTHONPATH=src:tools python -m pytest -q -p unrun_lines
"""

import ast
import sys
import threading
from pathlib import Path

_ran = {}  # source file of the package -> the line numbers run in it


def _local(frame, event, arg):
    if event == "line":
        _ran[frame.f_code.co_filename].add(frame.f_lineno)
    return _local


def _global(frame, event, arg):
    return _local if frame.f_code.co_filename in _ran else None


def _children(node):
    """The statements directly inside a compound statement, except-clause bodies among them."""
    for name in ("body", "orelse", "finalbody", "handlers"):
        for child in getattr(node, name, ()):
            yield from child.body if isinstance(child, ast.ExceptHandler) else (child,)


def _statements(body):
    """(statement, its own lines) of a function body and the blocks nested in it, but not of
    a nested function's or class's body, which `_function_bodies` yields on its own.  A
    statement's own lines are its span less the spans of the statements inside it, its
    decorators included."""
    for node in body:
        start = min([node.lineno, *(d.lineno for d in getattr(node, "decorator_list", ()))])
        own = set(range(start, node.end_lineno + 1))
        nested = () if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)) else list(_children(node))
        for child in nested:
            own -= set(range(child.lineno, child.end_lineno + 1))
        yield node, own
        yield from _statements(nested)


def _function_bodies(tree):
    """The body of every function in a module, its docstring left out."""
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            body = node.body
            if isinstance(body[0], ast.Expr) and isinstance(body[0].value, ast.Constant) and isinstance(body[0].value.value, str):
                body = body[1:]
            yield body


def unrun(path: Path, ran: set) -> list:
    """(line, statement text) of each statement inside a function of `path` that runs none
    of its own lines; a compound statement whose first inner statement ran has run."""
    source = path.read_text()
    lines, found = source.splitlines(), []
    for body in _function_bodies(ast.parse(source)):
        for node, own in _statements(body):
            inner = next(iter(_children(node)), None)
            if not own & ran and not (inner is not None and inner.lineno in ran):
                found.append((node.lineno, lines[node.lineno - 1].strip()))
    return sorted(found)


def pytest_sessionstart(session):
    import ifnet

    root = Path(ifnet.__file__).resolve().parent
    _ran.update((str(path), set()) for path in sorted(root.glob("*.py")))
    threading.settrace(_global)
    sys.settrace(_global)


def pytest_terminal_summary(terminalreporter):
    sys.settrace(None)
    threading.settrace(None)
    report = [(Path(name), line, text) for name, ran in _ran.items() for line, text in unrun(Path(name), ran)]
    terminalreporter.write_sep("=", f"{len(report)} statements of ifnet that no test ran")
    for path, line, text in report:
        terminalreporter.write_line(f"{path.parent.name}/{path.name}:{line}  {text}")
