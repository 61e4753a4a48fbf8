"""Count the code lines of each module of src/ifnet.

A code line holds part of a Python token other than a comment; blank lines,
comment lines and docstrings (module, class and function) are left out.
Prints one line per module and the total, of DIR (src/ifnet by default), or
of OLD and NEW side by side with the difference (a module missing from one
counts 0 there):

    python3 tools/code_lines.py [DIR]
    python3 tools/code_lines.py OLD NEW
"""

import ast
import io
import sys
import tokenize
from pathlib import Path

SKIP = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT, tokenize.DEDENT,
        tokenize.ENCODING, tokenize.ENDMARKER}


def docstring_lines(tree: ast.AST) -> set:
    lines = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)) and node.body:
            first = node.body[0]
            if isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant) and isinstance(first.value.value, str):
                lines.update(range(first.lineno, first.end_lineno + 1))
    return lines


def code_lines(source: str) -> int:
    lines = set()
    for tok in tokenize.generate_tokens(io.StringIO(source).readline):
        if tok.type not in SKIP:
            lines.update(range(tok.start[0], tok.end[0] + 1))
    return len(lines - docstring_lines(ast.parse(source)))


def counts(root: Path) -> dict:
    """Code lines by module name, and their sum under "total"."""
    got = {path.name: code_lines(path.read_text(encoding="utf-8")) for path in sorted(root.glob("*.py"))}
    return {**got, "total": sum(got.values())}


def main(argv) -> int:
    if len(argv) > 3:
        sys.exit(__doc__.split("\n\n")[2])
    tables = [counts(Path(d)) for d in argv[1:]] or [counts(Path(__file__).resolve().parent.parent / "src" / "ifnet")]
    names = sorted(set().union(*tables) - {"total"}) + ["total"]
    for name in names:
        row = [t.get(name, 0) for t in tables]
        diff = f"{row[1] - row[0]:+6d}  " if len(row) == 2 else ""
        print("".join(f"{c:6d}  " for c in row) + diff + name)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
