"""Measure what tier-1 checks: run it against seeded mutants of ``src/pgarl``.

Run from anywhere, naming one or more targets::

    python tools/mutants.py services._inc threads._read_spec rigidloops

A target is a function, method or class of a module of ``src/pgarl``
(``services._inc``, ``services.DownCounter.reply``, ``threads.ReplyScript``),
which takes every mutation site in it, or a whole module (``threads``), which
takes ``SAMPLE_SIZE`` of its sites, drawn with ``SAMPLE_SEED``. A site is one
of these mutations:

- a comparison flipped: ``<`` and ``<=``, ``>`` and ``>=``, ``==`` and
  ``!=``, ``is`` and ``is not``, ``in`` and ``not in``;
- ``+`` and ``-`` swapped;
- an int constant 0 or 1 swapped (not a bool);
- ``and`` and ``or`` swapped.

The tool copies the checkout, without ``.git`` and caches, to a temporary
directory and runs tier-1 there: first on the unmutated copy, which must
pass, then once per mutant, with ``-x`` and a fixed ``--hypothesis-seed``,
one child process at a time. ``pyproject.toml`` puts the copy's own ``src``
first on its test path, so the copy's mutated module is the one the tests
import. Each child runs under an address-space cap (``MEMORY_CAP``), so a
mutant that allocates without end fails instead of filling the host, and a
child that runs ``TIMEOUT_FACTOR`` times as long as the unmutated run is
stopped and counted as timed out.

Standard output is the table: per target, every mutant as ``killed`` (with
the first test that failed), ``survived``, ``equivalent`` (a survivor listed
in ``EQUIVALENT``, which behaves as the original does) or ``timed out``, and
the counts. Two runs with the same targets print the same table. Progress and
times go to standard error. The exit status is 0 when every mutant is killed
or equivalent, 1 when one survived or timed out, and 2 when a target is
unknown or the unmutated copy fails. The checkout itself is not written to.
"""

from __future__ import annotations

import ast
import io
import os
import random
import resource
import shutil
import signal
import subprocess
import sys
import tempfile
import time
import tokenize
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = Path("src") / "pgarl"
SAMPLE_SEED = 20260808
SAMPLE_SIZE = 25
HYPOTHESIS_SEED = 20260808
TIMEOUT_FACTOR = 3
MEMORY_CAP = 2 * 2**30  # bytes of address space per child; a test lowers its own to 2**30

# Survivors that behave as the original does, so no test can kill them, keyed
# by (module file, the site's source line stripped, mutation) and read only
# when a mutant survives.
EQUIVALENT = {
    ("rigidloops.py", "first = [0] * (len(source) + 2)", "0 -> 1"):
        "first[0] is never read, and every other entry is written before it is read",
    ("extraction.py",
     "table = parts[0] if len(parts) == 1 else [*chain.from_iterable(parts)]", "1 -> 0"):
        "a single stretch is then copied into a list with the same entries",
    ("extraction.py", "if not parent and slot >= plen and blen:", ">= -> >"):
        "at slot plen the wrap gives plen again",
    ("extraction.py",
     "i = (i + 1 if i < last else first) if ins.distance == 1 else advance(i, ins.distance)",
     "1 -> 0"):
        "a #0 never gets here, and advance(i, 1) is i + 1 or first as well",
}

_COMPARISONS = {
    ast.Lt: ("<", "<="), ast.LtE: ("<=", "<"), ast.Gt: (">", ">="), ast.GtE: (">=", ">"),
    ast.Eq: ("==", "!="), ast.NotEq: ("!=", "=="), ast.Is: ("is", "is not"),
    ast.IsNot: ("is not", "is"), ast.In: ("in", "not in"), ast.NotIn: ("not in", "in"),
}
_ARITHMETIC = {ast.Add: ("+", "-"), ast.Sub: ("-", "+")}
_BOOLEAN = {ast.And: ("and", "or"), ast.Or: ("or", "and")}
_OPERATOR_WORDS = {"<", "<=", ">", ">=", "==", "!=", "is", "not", "in", "+", "-", "and", "or"}


class Site(NamedTuple):
    """One mutation, ``old`` to ``new``, placed by the ``line`` and ``column``
    (both from 1) of its operator. ``edits`` are the ``(start, end, text)``
    replacements, by character offset, that make it: one, or for ``and`` and
    ``or`` one per operator, with parentheses around the operation and
    around each operand, so that the mutant groups as the original does."""

    line: int
    column: int
    old: str
    new: str
    edits: tuple[tuple[int, int, str], ...]

    @property
    def mutation(self) -> str:
        return f"{self.old} -> {self.new}"


def _scope(tree: ast.Module, qualname: str) -> ast.AST:
    """The module itself for an empty name, else the function or class at
    the dotted path ``qualname``; KeyError when there is none."""
    node: ast.AST = tree
    for name in filter(None, qualname.split(".")):
        defs = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
        found = [child for child in node.body if isinstance(child, defs) and child.name == name]
        if not found:
            raise KeyError(qualname)
        node = found[0]
    return node


def sites(text: str, qualname: str = "") -> list[Site]:
    """Every mutation site in the module source ``text`` within the function
    or class ``qualname`` (the whole module when empty), in source order."""
    starts = [0]
    for line in text.splitlines(keepends=True):
        starts.append(starts[-1] + len(line))

    def offset(line: int, byte_col: int) -> int:  # ast columns count UTF-8 bytes
        row = text[starts[line - 1]:starts[line]]
        return starts[line - 1] + len(row.encode()[:byte_col].decode())

    words = [
        (starts[tok.start[0] - 1] + tok.start[1], starts[tok.end[0] - 1] + tok.end[1], tok.string)
        for tok in tokenize.generate_tokens(io.StringIO(text).readline)
        if tok.string in _OPERATOR_WORDS
    ]

    def between(left: ast.AST, right: ast.AST, old: str) -> tuple[int, int]:
        # the operator's tokens in the gap between two operands
        lo = offset(left.end_lineno, left.end_col_offset)
        hi = offset(right.lineno, right.col_offset)
        gap = [(a, b, word) for a, b, word in words if lo <= a and b <= hi]
        if " ".join(word for _, _, word in gap) != old:
            raise ValueError(f"no {old!r} between the operands at line {left.end_lineno}")
        return gap[0][0], gap[-1][1]

    found = []
    for node in ast.walk(_scope(ast.parse(text), qualname)):
        if isinstance(node, ast.Compare):
            for left, op, right in zip([node.left, *node.comparators], node.ops, node.comparators):
                old, new = _COMPARISONS[type(op)]
                found.append(([between(left, right, old)], old, new, []))
        elif isinstance(node, ast.BinOp) and type(node.op) in _ARITHMETIC:
            old, new = _ARITHMETIC[type(node.op)]
            found.append(([between(node.left, node.right, old)], old, new, []))
        elif isinstance(node, ast.BoolOp):
            old, new = _BOOLEAN[type(node.op)]
            spans = [between(x, y, old) for x, y in zip(node.values, node.values[1:])]
            parentheses = []  # around the operation and around each operand
            for part in (node, *node.values):
                start = offset(part.lineno, part.col_offset)
                end = offset(part.end_lineno, part.end_col_offset)
                parentheses += [(start, start, "("), (end, end, ")")]
            found.append((spans, old, new, parentheses))
        elif isinstance(node, ast.Constant) and type(node.value) is int and node.value in (0, 1):
            span = (offset(node.lineno, node.col_offset), offset(node.end_lineno, node.end_col_offset))
            found.append(([span], str(node.value), str(1 - node.value), []))
    placed = []
    for spans, old, new, parentheses in found:
        line = text.count("\n", 0, spans[0][0]) + 1
        edits = sorted([(lo, hi, new) for lo, hi in spans] + parentheses)
        placed.append(Site(line, spans[0][0] - starts[line - 1] + 1, old, new, tuple(edits)))
    return sorted(placed)


def mutate(text: str, site: Site) -> str:
    """The module source ``text`` with the one mutation ``site``."""
    for lo, hi, new in reversed(site.edits):
        text = text[:lo] + new + text[hi:]
    return text


class Target(NamedTuple):
    name: str
    path: Path  # from the checkout's root
    sites: list[Site]


def target(name: str) -> Target:
    """The sites a target takes: all of a function's or class's, a seeded
    sample of a module's. ValueError when the target names nothing."""
    module, _, qualname = name.partition(".")
    path = PACKAGE / f"{module}.py"
    if not module.isidentifier() or not (ROOT / path).is_file():
        raise ValueError(f"no module {module!r} in {PACKAGE.as_posix()}")
    text = (ROOT / path).read_text(encoding="utf-8")
    try:
        found = sites(text, qualname)
    except KeyError:
        raise ValueError(f"no function or class {qualname!r} in {path.as_posix()}") from None
    if not qualname and len(found) > SAMPLE_SIZE:
        found = sorted(random.Random(SAMPLE_SEED).sample(found, SAMPLE_SIZE))
    return Target(name, path, found)


def _cap_memory() -> None:
    resource.setrlimit(resource.RLIMIT_AS, (MEMORY_CAP, MEMORY_CAP))


def _tier1(copy: Path, timeout: float | None) -> tuple[str | None, str]:
    """Run tier-1 in ``copy`` with ``-x``: returns ``(None, summary)`` when it
    passes, ``("timed out", "")`` when it outlasts ``timeout``, and otherwise
    the first failing test (or the exit status) and pytest's last line."""
    shutil.rmtree(copy / ".hypothesis", ignore_errors=True)  # no example carries over
    env = {key: value for key, value in os.environ.items() if key != "PYTHONPATH"}
    env["PYTHONDONTWRITEBYTECODE"] = "1"  # a mutant of equal size is never read from a stale .pyc
    command = [sys.executable, "-m", "pytest", "-q", "-x", "-rfE", "-p", "no:cacheprovider",
               f"--hypothesis-seed={HYPOTHESIS_SEED}"]
    child = subprocess.Popen(command, cwd=copy, env=env, stdout=subprocess.PIPE,
                             stderr=subprocess.STDOUT, text=True, preexec_fn=_cap_memory,
                             start_new_session=True)
    try:
        out, _ = child.communicate(timeout=timeout)
    except BaseException as exc:  # a timeout, or this tool stopped
        os.killpg(child.pid, signal.SIGKILL)  # the tests' own children too
        child.communicate()
        if not isinstance(exc, subprocess.TimeoutExpired):
            raise
        return "timed out", ""
    lines = out.strip().splitlines() or [""]
    if child.returncode == 0:
        return None, lines[-1].strip("= ")
    failed = [line.split(" ", 1)[1].split(" - ", 1)[0] for line in lines
              if line.startswith(("FAILED ", "ERROR "))]
    return failed[0] if failed else f"exit status {child.returncode}", lines[-1].strip("= ")


def main(argv: list[str]) -> int:
    if not argv or any(arg.startswith("-") for arg in argv):
        print("usage: python tools/mutants.py TARGET [TARGET ...]", file=sys.stderr)
        return 2
    try:
        targets = [target(name) for name in argv]
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    with tempfile.TemporaryDirectory() as scratch:
        copy = Path(scratch) / "checkout"
        shutil.copytree(ROOT, copy, ignore=shutil.ignore_patterns(
            ".git", "__pycache__", ".pytest_cache", ".hypothesis", "*.egg-info"))
        start = time.monotonic()
        failed, summary = _tier1(copy, None)
        elapsed = time.monotonic() - start
        if failed is not None:
            print(f"error: the unmutated copy fails tier-1 at {failed}: {summary}", file=sys.stderr)
            return 2
        timeout = TIMEOUT_FACTOR * elapsed
        print(f"unmutated: {summary}; timeout {timeout:.0f} s per mutant", file=sys.stderr)
        return _run(targets, copy, timeout)


def _run(targets: list[Target], copy: Path, timeout: float) -> int:
    """Run and print every target's mutants; 1 when one survived or timed out."""
    bad = 0
    total = sum(len(t.sites) for t in targets)
    done = 0
    for t in targets:
        file = copy / t.path
        text = file.read_text(encoding="utf-8")
        lines = text.splitlines()
        counts = dict.fromkeys(("killed", "survived", "equivalent", "timed out"), 0)
        print(f"{t.name} ({len(t.sites)} sites)")
        for site in t.sites:
            file.write_text(mutate(text, site), encoding="utf-8")
            start = time.monotonic()
            try:
                failed, _ = _tier1(copy, timeout)
            finally:
                file.write_text(text, encoding="utf-8")
            done += 1
            where = f"{t.path.as_posix()}:{site.line}:{site.column}"
            if failed is None:
                key = (t.path.name, lines[site.line - 1].strip(), site.mutation)
                outcome, note = ("equivalent", EQUIVALENT[key]) if key in EQUIVALENT else ("survived", "")
            elif failed == "timed out":
                outcome, note = "timed out", ""
            else:
                outcome, note = "killed", f"by {failed}"
            counts[outcome] += 1
            bad += outcome in ("survived", "timed out")
            print(f"  {outcome:<10} {where}  {site.mutation}  {note}".rstrip(), flush=True)
            print(f"[{done}/{total}] {where} {site.mutation}: {outcome} in "
                  f"{time.monotonic() - start:.1f} s", file=sys.stderr, flush=True)
        print("  " + ", ".join(f"{n} {outcome}" for outcome, n in counts.items()), flush=True)
    return 1 if bad else 0


if __name__ == "__main__":
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))  # so the copy and the child go too
    sys.exit(main(sys.argv[1:]))
