"""Measurement of one workload: the untraced end-to-end run and the traced
per-layer run. Imported only once ``src/`` is on the path.

Times are reported in reference seconds. The shared host's speed drifts by
up to ±25 % over seconds and minutes, and all interpreted code slows alike,
so a fixed slice of interpreter work that does not touch pgarl is timed
between ops, outside their timers, and each stretch of about a second is
scaled by ``SLICE_REF_S`` over the mean slice time within it. A reference
second is a second of a host that runs the slice in ``SLICE_REF_S``.
"""

from __future__ import annotations

import gc
import math
import os
import random
import resource
import statistics
import subprocess
import sys
from array import array
from collections import Counter
from pathlib import Path
from time import perf_counter

import tracing
import workloads

MIN_OPS = 105  # with whole cycles of 15: at least ten samples beyond p90
WALL_LIMIT_S = 120.0  # stop drawing cycles past this, whatever --seconds says
WARMUP_OPS = 3
ROUND_S = 1.0  # throughput is the median over rounds of whole cycles this long
STARTUP_SAMPLES = 15
# Cycles in the untraced run's fixed op set: one pass over it takes 4 to 7 s,
# and the run repeats it until ``--seconds`` have passed.
E2E_CYCLES = {"corpus": 1000, "nested": 6, "chain": 6, "simulate": 16}
# Ops in the traced set: 20 corpus cycles (300 programs) or one ladder cycle.
TRACE_CYCLES = {"corpus": 20, "nested": 1, "chain": 1, "simulate": 1}
SLICE_REF_S = 1.0e-3
SLICE_EVERY_S = 0.01  # op time between two calibration slices


def _slice_work() -> int:
    """About a millisecond of the interpreter work pgarl does most: small
    tuples, dictionary lookups and list appends."""
    seen: dict = {}
    order = []
    for i in range(4000):
        key = (i % 61, i & 1, i % 17)
        if key not in seen:
            seen[key] = len(order)
            order.append(key)
    return len(order)


class Calibration:
    """Calibration slice times since the last ``factor()``."""

    def __init__(self) -> None:
        self.slices: list[float] = []
        self._since = 0.0

    def slice(self) -> None:
        # The collector is paused so that no collection of the benchmark's
        # heap lands in a slice; the slice frees what it allocates.
        gc.disable()
        try:
            started = perf_counter()
            _slice_work()
            self.slices.append(perf_counter() - started)
        finally:
            gc.enable()

    def after_op(self, seconds: float) -> None:
        self._since += seconds
        if self._since >= SLICE_EVERY_S:
            self._since = 0.0
            self.slice()

    def factor(self) -> float:
        """Reference seconds per second over the slices so far; starts over."""
        if not self.slices:
            self.slice()
        factor = SLICE_REF_S / statistics.fmean(self.slices)
        self.slices = []
        return factor


def _interpreter_runs(src: Path, code: str) -> tuple[float, list[tuple[float, str]]]:
    """Run ``code`` in fresh interpreters that see only the checkout's
    sources, with a calibration slice before and after each. Return the
    calibration factor and each run's wall time and standard output."""
    env = dict(os.environ, PYTHONPATH=str(src))
    cmd = [sys.executable, "-c", code]
    subprocess.run(cmd, env=env, check=True, capture_output=True)  # fills __pycache__
    calibration = Calibration()
    runs = []
    for _ in range(STARTUP_SAMPLES):
        calibration.slice()
        started = perf_counter()
        done = subprocess.run(cmd, env=env, check=True, capture_output=True, text=True)
        runs.append((perf_counter() - started, done.stdout))
        calibration.slice()
    return calibration.factor(), runs


def setup_seconds(src: Path) -> float:
    """Median time of a fresh interpreter importing ``pgarl.cli``, the
    start-up every CLI call pays."""
    factor, runs = _interpreter_runs(src, "import pgarl.cli")
    return statistics.median(seconds for seconds, _ in runs) * factor


def cli_import_seconds(src: Path) -> float:
    """Median time of ``import pgarl.cli`` alone, timed inside fresh interpreters."""
    code = "from time import perf_counter as c; t = c(); import pgarl.cli; print(c() - t)"
    factor, runs = _interpreter_runs(src, code)
    return statistics.median(float(out) for _, out in runs) * factor


class Outcome:
    """Latencies and counts of the ops of one run, in wall seconds.

    A run repeats one fixed, seeded op set, so ``verdicts`` maps each op's
    index in the set to whether it succeeded. Every repeat of an op must agree
    with its first run; ``attempted`` and ``failed_inputs`` count the set's
    ops, so they depend on the seed alone and not on how many passes fit."""

    def __init__(self) -> None:
        # inf for a failed op. An array of doubles holds no float objects, so
        # the peak memory grows little with the number of ops that fit.
        self.latencies = array("d")
        self.busy = 0.0
        self.failed = 0  # failed op runs, repeats included
        self.wrong: list[str] = []
        self.verdicts: dict[int, bool] = {}
        self.calibration = Calibration()

    @property
    def attempted(self) -> int:
        return len(self.verdicts)

    @property
    def failed_inputs(self) -> int:
        return sum(not ok for ok in self.verdicts.values())

    def extend(self, other: "Outcome") -> None:
        self.latencies += other.latencies
        self.busy += other.busy
        self.failed += other.failed
        self.wrong += other.wrong
        for index, ok in other.verdicts.items():
            self._record(index, ok)

    def _record(self, index: int, ok: bool) -> None:
        if self.verdicts.setdefault(index, ok) != ok:
            self.wrong.append(f"op {index} of the set succeeded on one run and failed on another")


def run_checked(workload, op, outcome: Outcome, call=None, index=None) -> None:
    """Time one op, then check its verdict and take a calibration slice when
    due, both outside the timer. A documented error or a wrong verdict fails
    the op, and a failed op counts as slower than any latency. ``index`` is
    the op's place in the run's fixed op set."""
    started = perf_counter()
    try:
        result = (call or workload.run)(op)
    except workloads.DOCUMENTED_ERRORS:
        seconds, ok = perf_counter() - started, False
    else:
        seconds, ok = perf_counter() - started, True
    outcome.busy += seconds
    if ok:
        try:
            workload.check(op, result)
        except workloads.WrongVerdict as exc:
            outcome.wrong.append(str(exc))
            ok = False
    outcome.latencies.append(seconds if ok else math.inf)
    outcome.failed += not ok
    if index is not None:
        outcome._record(index, ok)
    outcome.calibration.after_op(seconds)


def warm_up(workload, seed: int) -> None:
    for op in workload.cycle(random.Random(-1 - seed))[:WARMUP_OPS]:
        run_checked(workload, op, Outcome())


def end_to_end(workload, seed: int, seconds: float, setup_s: float) -> tuple[dict, Outcome]:
    """Repeat whole cycles of one fixed op set, in order, until ``seconds``
    of op time, at least ``MIN_OPS`` ops and every op of the set are done."""
    warm_up(workload, seed)
    rng = random.Random(seed)
    cycles, size = [], 0  # each op paired with its index in the set
    for _ in range(E2E_CYCLES[workload.name]):
        ops = workload.cycle(rng)
        cycles.append(list(enumerate(ops, size)))
        size += len(ops)
    outcome = Outcome()
    rates = []  # verdicts per reference second of each round
    latencies = array("d")  # reference seconds
    turn = 0  # cycles run so far, over all passes
    started = perf_counter()
    while (
        outcome.busy < seconds or len(outcome.latencies) < MIN_OPS or outcome.attempted < size
    ) and perf_counter() - started < WALL_LIMIT_S:
        first, busy, failed = len(outcome.latencies), outcome.busy, outcome.failed
        while outcome.busy - busy < ROUND_S:
            for index, op in cycles[turn % len(cycles)]:
                run_checked(workload, op, outcome, index=index)
            turn += 1
        factor = outcome.calibration.factor()
        ok = len(outcome.latencies) - first - (outcome.failed - failed)
        rates.append(ok / ((outcome.busy - busy) * factor))
        latencies.extend(latency * factor for latency in outcome.latencies[first:])
    # Read before sorting: the sorted copy is the benchmark's, not pgarl's.
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    ordered = sorted(latencies)
    metrics = {
        "ops_per_s": statistics.median(rates),
        "op_p50_ms": statistics.median(ordered) * 1e3,
        "op_p90_ms": statistics.quantiles(ordered, n=10)[-1] * 1e3,
        "ok_ratio": (outcome.attempted - outcome.failed_inputs) / outcome.attempted,
        "setup_s": setup_s,
        "peak_rss_mb": peak_rss_mb,
    }
    return metrics, outcome


def per_layer(workload, seed: int, seconds: float, import_s: float, spans_path: Path):
    """Alternate untraced and traced passes over one fixed op set until
    ``seconds`` have passed. The set does not depend on timing, so its sizes
    repeat exactly for a seed. The spans of the first traced pass are written
    to ``spans_path``."""
    warm_up(workload, seed)
    rng = random.Random(seed)
    ops = [op for _ in range(TRACE_CYCLES[workload.name]) for op in workload.cycle(rng)]
    tracer = tracing.Tracer()
    untraced, traced = Outcome(), Outcome()
    traced.verdicts = untraced.verdicts  # a traced op must agree with its untraced run
    passes: list[tracing.Sizes] = []
    self_s: Counter = Counter()  # reference seconds, like the two below
    untraced_s = traced_s = 0.0
    pure_points, product_points = [], []
    first_pass: list[tracing.Span] = []  # the spans written out
    started = perf_counter()
    while not passes or perf_counter() - started < seconds:
        busy = untraced.busy
        for index, op in enumerate(ops):
            run_checked(workload, op, untraced, index=index)
        untraced_s += (untraced.busy - busy) * untraced.calibration.factor()
        busy = traced.busy
        sizes = tracing.Sizes()
        tracer.install()
        try:
            for index, op in enumerate(ops):
                op_id, first = len(traced.latencies), len(tracer.spans)
                run_checked(workload, op, traced, lambda o: tracer.run_op(op_id, workload.run, o),
                            index)
                sizes.count_op(tracer.spans[first:])
        finally:
            tracer.uninstall()
        factor = traced.calibration.factor()
        traced_s += (traced.busy - busy) * factor
        for name, spent in tracing.self_times(tracer.spans).items():
            self_s[name] += spent * factor
        pure_points += [(size, spent * factor) for size, spent in sizes.pure_points]
        product_points += [(size, spent * factor) for size, spent in sizes.product_points]
        passes.append(sizes)
        first_pass = first_pass or list(tracer.spans)
        tracer.spans.clear()
    tracing.write_spans(first_pass, spans_path, started)
    counts = passes[0].counts
    if any(p.counts != counts for p in passes):
        print(f"warning: sizes differ between traced passes of {workload.name}", file=sys.stderr)

    n = len(traced.latencies)
    metrics = {f"{name}.self_s": self_s[name] / n for name in tracing.TRACED + (tracing.OP,)}
    metrics[f"{tracing.OP}.total_s"] = op_s = traced_s / n
    for name in tracing.SIZE_COUNTS:
        metrics[name] = counts[name] / len(ops)
    for name in ("rigidloops.project_pure", "services.apply_use_finite",
                 "services.simulate_with_services"):
        metrics[f"{name}.share"] = metrics[f"{name}.self_s"] / op_s
    steps = metrics["services.simulate_with_services.visible_steps"]
    metrics["services.simulate_with_services.us_per_step"] = (
        metrics["services.simulate_with_services.self_s"] / steps * 1e6 if steps else 0.0
    )
    metrics["rigidloops.project_pure.scaling_exp"] = tracing.loglog_slope(pure_points)
    metrics["services.apply_use_finite.scaling_exp"] = tracing.loglog_slope(product_points)
    metrics["cli.startup.import_s"] = import_s
    metrics["trace.overhead"] = untraced_s / traced_s
    untraced.extend(traced)
    return metrics, untraced
