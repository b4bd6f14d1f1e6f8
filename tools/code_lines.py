"""Count the code lines of every module under ``src/pgarl``, and of the tests.

A code line holds at least one token that is neither a comment nor part of a
docstring; blank lines, comment lines and docstring lines do not count. Run
from the repository root::

    python tools/code_lines.py

It prints one ``lines module`` row per module, a ``total`` row, an
``exports`` row: the number of public names the package's ``__init__`` binds
at its top level, submodules not counted, and a ``tests`` row: the code lines
of ``tests/*.py`` together, counted by the same rule.
"""

from __future__ import annotations

import ast
import io
import os
import sys
import tokenize
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SOURCE = ROOT / "src" / "pgarl"
_NOT_CODE = {
    tokenize.COMMENT,
    tokenize.NL,
    tokenize.NEWLINE,
    tokenize.INDENT,
    tokenize.DEDENT,
    tokenize.ENCODING,
    tokenize.ENDMARKER,
}


def _docstring_lines(tree: ast.AST) -> set[int]:
    lines: set[int] = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            first = node.body[0] if node.body else None
            if (
                isinstance(first, ast.Expr)
                and isinstance(first.value, ast.Constant)
                and isinstance(first.value.value, str)
            ):
                lines.update(range(first.lineno, first.end_lineno + 1))
    return lines


def code_lines(text: str) -> int:
    """The number of code lines in one module's source text."""
    lines: set[int] = set()
    for token in tokenize.generate_tokens(io.StringIO(text).readline):
        if token.type not in _NOT_CODE:
            lines.update(range(token.start[0], token.end[0] + 1))
    return len(lines - _docstring_lines(ast.parse(text)))


def exported_names(text: str) -> int:
    """The number of public names a package's ``__init__`` source binds at
    its top level with ``import`` statements, assignments and definitions."""
    names: set[str] = set()
    for node in ast.parse(text).body:
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            names.update((alias.asname or alias.name).split(".")[0] for alias in node.names)
        elif isinstance(node, ast.Assign):
            names.update(t.id for t in node.targets if isinstance(t, ast.Name))
        elif isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names.add(node.name)
    return len({name for name in names if not name.startswith("_")})


def main() -> int:
    total = 0
    for path in sorted(SOURCE.glob("*.py")):
        count = code_lines(path.read_text())
        total += count
        print(f"{count:5d} {path.name}")
    print(f"{total:5d} total")
    print(f"{exported_names((SOURCE / '__init__.py').read_text()):5d} exports")
    tests = sum(code_lines(path.read_text()) for path in (ROOT / "tests").glob("*.py"))
    print(f"{tests:5d} tests")
    return 0


if __name__ == "__main__":
    try:
        code = main()
        sys.stdout.flush()
    except BrokenPipeError:
        # the reader took what it wanted; the flush at exit goes to the null
        # device, so no traceback follows, as in ``pgarl.cli.main``
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        code = 0
    sys.exit(code)
