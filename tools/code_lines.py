"""Count the code lines of every module under ``src/pgarl``, and of the tests.

A code line holds at least one token that is neither a comment nor part of a
docstring; blank lines, comment lines and docstring lines do not count. Run
from the repository root::

    python tools/code_lines.py

It prints one ``lines module`` row per module, a ``total`` row, an
``exports`` row: the number of public names the package's ``__init__`` binds
at its top level, submodules not counted, and a ``tests`` row: the code lines
of ``tests/*.py`` together, counted by the same rule. ::

    python tools/code_lines.py --base REF

prints the same rows with the change against the git ref ``REF`` in front:
``delta now base name``, a module that one side lacks counting 0 there. It is
the "net lines removed" of a change, read from the two trees.
"""

from __future__ import annotations

import argparse
import ast
import io
import os
import subprocess
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


def _git(*args: str) -> str:
    return subprocess.run(
        ("git", *args), cwd=ROOT, check=True, capture_output=True, text=True
    ).stdout


def _sources(base: str | None) -> dict[str, str]:
    """Every counted file's text, by its path from the repository root: the
    working tree's, or the tree of the git ref ``base``."""
    if base is None:
        paths = [*SOURCE.glob("*.py"), *(ROOT / "tests").glob("*.py")]
        return {path.relative_to(ROOT).as_posix(): path.read_text() for path in paths}
    listed = _git("ls-tree", "--name-only", base, "src/pgarl/", "tests/").split()
    return {path: _git("show", f"{base}:{path}") for path in listed if path.endswith(".py")}


def _rows(sources: dict[str, str]) -> dict[str, int]:
    """The printed rows, by name: one per module, then the totals."""
    modules = {Path(path).name: code_lines(text) for path, text in sorted(sources.items())
               if path.startswith("src/")}
    init = sources.get("src/pgarl/__init__.py")
    return {
        **modules,
        "total": sum(modules.values()),
        "exports": exported_names(init) if init is not None else 0,
        "tests": sum(code_lines(text) for path, text in sources.items()
                     if path.startswith("tests/")),
    }


def main() -> int:
    parser = argparse.ArgumentParser(description="Count the code lines of src/pgarl and tests.")
    parser.add_argument("--base", metavar="REF", help="also print the change against this git ref")
    args = parser.parse_args()
    now = _rows(_sources(None))
    if args.base is None:
        for name, count in now.items():
            print(f"{count:5d} {name}")
        return 0
    try:
        base = _rows(_sources(args.base))
    except subprocess.CalledProcessError as exc:
        print(f"cannot read {args.base}: {exc.stderr.strip()}", file=sys.stderr)
        return 2
    totals = ["total", "exports", "tests"]
    for name in sorted((now.keys() | base.keys()) - set(totals)) + totals:
        new, old = now.get(name, 0), base.get(name, 0)
        print(f"{new - old:+6d} {new:5d} {old:5d} {name}")
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
