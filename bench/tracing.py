"""Spans around the library's public layer functions, installed from outside.

``Tracer.install`` replaces each function in ``TRACED`` by a wrapper wherever a
pgarl module binds it, so calls between layers are caught as well as the
benchmark's own; ``uninstall`` puts the originals back, and untraced runs pay
nothing. Spans stay in memory (name, start, end, parent span, op id) and are
written out when the run ends. A span's self time is its duration minus the
durations of its child spans; calls are nested on one thread, so the children
never overlap.

Sizes are counted from each call's arguments and result once its op has ended,
outside every span, and the references are then dropped.
"""

from __future__ import annotations

import functools
import importlib
import json
import math
import sys
from collections import Counter, defaultdict
from dataclasses import dataclass
from time import perf_counter

TRACED = (
    "parser.parse_program",
    "program.canonicalize",
    "program.has_rigid",
    "rigidloops.validate_pgarl",
    "rigidloops.project_counter",
    "rigidloops.project_pure",
    "rigidloops.defining_thread",
    "extraction.extract_pgau",
    "services.apply_bindings",
    "services.apply_use_finite",
    "services.simulate_with_services",
    "threads.ReplyScript.from_text",
    "threads.distinguish",
    "threads.thread_equal",
)
OP = "bench.op"  # root span of one op; its self time is the glue outside TRACED
# Size counters, reported as means per op of the traced set.
SIZE_COUNTS = (
    "parser.parse_program.instructions",
    "rigidloops.project_counter.out_instructions",
    "rigidloops.project_counter.bindings",
    "rigidloops.project_pure.out_instructions",
    "rigidloops.project_pure.rejected",
    "extraction.extract_pgau.equations_counter",
    "extraction.extract_pgau.equations_pure",
    "services.apply_use_finite.calls_per_op",
    "services.apply_use_finite.states_out",
    "services.simulate_with_services.visible_steps",
    "threads.distinguish.witness_steps",
)


@dataclass
class Span:
    name: str
    parent: int  # index of the enclosing span, -1 for an op's root
    op: int
    start: float = 0.0
    end: float = 0.0
    args: tuple = ()
    result: object = None
    error: str | None = None


class Tracer:
    """Records a span for every call of a function in ``TRACED`` while installed."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self._stack: list[int] = [-1]
        self._op = -1
        self._saved: list[tuple[object, str, object]] = []

    def _wrap(self, name: str, fn):
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = Span(name, stack[-1], self._op, args=args)
            stack.append(len(spans))
            spans.append(span)
            span.start = perf_counter()
            try:
                span.result = fn(*args, **kwargs)
                return span.result
            except BaseException as exc:
                span.error = type(exc).__name__
                raise
            finally:
                span.end = perf_counter()
                stack.pop()

        return traced

    def install(self) -> None:
        modules = [m for key, m in sys.modules.items() if key.startswith("pgarl.")]
        for name in TRACED:
            module, _, attr = name.partition(".")
            owner = importlib.import_module(f"pgarl.{module}")
            if "." in attr:  # a classmethod
                cls_name, method = attr.split(".")
                cls = getattr(owner, cls_name)
                descriptor = cls.__dict__[method]
                self._saved.append((cls, method, descriptor))
                setattr(cls, method, classmethod(self._wrap(name, descriptor.__func__)))
                continue
            original = getattr(owner, attr)
            traced = self._wrap(name, original)
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        self._saved.append((mod, key, original))
                        setattr(mod, key, traced)

    def uninstall(self) -> None:
        for owner, key, original in reversed(self._saved):
            setattr(owner, key, original)
        self._saved.clear()

    def run_op(self, op_id: int, fn, *args):
        """Call ``fn(*args)`` inside the op's root span."""
        self._op = op_id
        return self._wrap(OP, fn)(*args)


def write_spans(spans: list[Span], path, origin: float) -> None:
    """Write spans as JSON lines, with times in seconds from ``origin``."""
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", encoding="utf-8") as out:
        for span in spans:
            record = {
                "name": span.name,
                "start": span.start - origin,
                "end": span.end - origin,
                "parent": span.parent,
                "op": span.op,
            }
            if span.error:
                record["error"] = span.error
            out.write(json.dumps(record) + "\n")


def self_times(spans: list[Span]) -> dict[str, float]:
    total: dict[str, float] = defaultdict(float)
    for span in spans:
        total[span.name] += span.end - span.start
        if span.parent >= 0:
            parent = spans[span.parent]
            total[parent.name] -= span.end - span.start
    return dict(total)


class Sizes:
    """Size counters of one traced pass, summed over its ops, plus the points
    of the two scaling fits."""

    def __init__(self) -> None:
        self.counts: Counter = Counter()
        self.pure_points: list[tuple[int, float]] = []  # (output length, seconds)
        self.product_points: list[tuple[int, float]] = []  # (loop counters, seconds)

    def count_op(self, spans: list[Span]) -> None:
        """Count the sizes of one op's spans, then drop their arguments and results."""
        c = self.counts
        pure_out, counter_out = set(), set()
        counters, product_s = 0, 0.0
        for span in spans:
            name, result, seconds = span.name, span.result, span.end - span.start
            if name == "parser.parse_program" and result is not None:
                c["parser.parse_program.instructions"] += sum(
                    len(part.instructions) for part in result.parts
                )
            elif name == "rigidloops.project_pure":
                if span.error:
                    c["rigidloops.project_pure.rejected"] += 1
                else:
                    pure_out.add(id(result))
                    c["rigidloops.project_pure.out_instructions"] += len(result)
                    self.pure_points.append((len(result), seconds))
            elif name == "rigidloops.project_counter" and result is not None:
                counter_out.add(id(result.program))
                c["rigidloops.project_counter.out_instructions"] += len(result.program)
                c["rigidloops.project_counter.bindings"] += len(result.bindings)
                counters += len(result.bindings)
            elif name == "extraction.extract_pgau" and result is not None:
                if id(span.args[0]) in counter_out:
                    c["extraction.extract_pgau.equations_counter"] += len(result)
                elif id(span.args[0]) in pure_out:
                    c["extraction.extract_pgau.equations_pure"] += len(result)
            elif name == "services.apply_use_finite" and result is not None:
                c["services.apply_use_finite.calls_per_op"] += 1
                c["services.apply_use_finite.states_out"] += len(result)
                product_s += seconds
            elif name == "services.simulate_with_services" and result is not None:
                c["services.simulate_with_services.visible_steps"] += len(result.steps)
            elif name == "threads.distinguish" and result is not None:
                c["threads.distinguish.witness_steps"] += len(result.steps)
            span.args, span.result = (), None
        if counters and product_s:
            self.product_points.append((counters, product_s))


def loglog_slope(points: list[tuple[int, float]]) -> float:
    """Least-squares slope of log(seconds) against log(size); 0 when the sizes
    do not vary."""
    xs = [math.log(size) for size, seconds in points if size > 0 and seconds > 0]
    ys = [math.log(seconds) for size, seconds in points if size > 0 and seconds > 0]
    if len(set(xs)) < 2:
        return 0.0
    mx, my = sum(xs) / len(xs), sum(ys) / len(ys)
    sxx = sum((x - mx) ** 2 for x in xs)
    return sum((x - mx) * (y - my) for x, y in zip(xs, ys)) / sxx
