#!/usr/bin/env python3
"""Seeded benchmark of pgarl's equiv and simulate pipeline.

    python3 bench/run.py [--workload NAME] [--seed N] [--seconds S] [--trace 0|1] [--out FILE]
    python3 bench/run.py --compare BASE.jsonl NEW.jsonl

Runs from the root of a checkout and imports pgarl from its ``src/`` only.
Each workload is a closed loop on one thread: an op starts when the previous
one has returned. The seed draws a fixed set of whole cycles of the
workload's ladder, and the run repeats the set, cycle by cycle, until
``--seconds`` of op time, at least 105 ops and every op of the set have been
measured. Without
``--workload`` every workload runs in turn. ``--trace 0`` reports the
end-to-end metrics and ``--trace 1`` the per-layer metrics of a separate
traced run, both as declared with their units in ``BENCHMARK.json``; the last
line of standard output is one JSON object holding them. Times are in
reference seconds, calibrated against the host's speed (see ``harness.py``).

An op that raises a documented error counts as failed. A wrong verdict counts
as failed too and makes the run exit with 1, as does an op that fails on one
repeat and not on another. ``attempted`` and ``failed`` in the result line
count the ops of the set, so they depend on the seed alone. ``--out`` appends each
workload's result to a JSON lines file, and ``--compare`` compares two such
files. ``NOTES.md`` says why each workload exists and what each metric tracks.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
DEFAULT_SEED = 20260808


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    workload_names = [w["name"] for w in spec["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=workload_names, help="default: all, in turn")
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=spec["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", type=Path, help="append each workload's result to this file")
    parser.add_argument("--compare", nargs=2, type=Path, metavar=("BASE", "NEW"))
    opts = parser.parse_args(argv)
    if opts.compare:
        import compare

        return compare.main(spec, *opts.compare)
    if not (SRC / "pgarl" / "__init__.py").is_file():
        print(f"bench: no pgarl sources under {SRC}; run it from a checkout of the repository",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import harness

    # metric name -> unit, for the metrics this mode reports
    declared = {m["name"]: m["unit"] for m in spec["per_layer" if opts.trace else "end_to_end"]}
    names = [opts.workload] if opts.workload else workload_names
    startup = (harness.cli_import_seconds if opts.trace else harness.setup_seconds)(SRC)
    combined, attempted, failed, wrong = {}, 0, 0, []
    for name in names:
        workload = harness.workloads.WORKLOADS[name]
        if opts.trace:
            spans = BENCH / "out" / f"spans-{name}-{opts.seed}.jsonl"
            values, outcome = harness.per_layer(workload, opts.seed, opts.seconds, startup, spans)
        else:
            values, outcome = harness.end_to_end(workload, opts.seed, opts.seconds, startup)
        if set(values) != set(declared):
            raise SystemExit(f"bench: metrics {sorted(set(values) ^ set(declared))} "
                             "do not match BENCHMARK.json")
        samples = len(outcome.latencies)
        print(f"{name}: {outcome.attempted} ops in the set, {outcome.failed_inputs} failed, "
              f"{samples} runs of them timed, seed {opts.seed}")
        for key, unit in declared.items():
            print(f"  {key:48} {values[key]:14.6g} {unit}")
        # A percentile that lands on failed ops is infinite; JSON has no
        # infinity, so it is written as null.
        metrics = {key: {"value": values[key] if math.isfinite(values[key]) else None, "unit": unit}
                   for key, unit in declared.items()}
        for message in outcome.wrong:
            print(f"  WRONG VERDICT: {message}")
        if opts.out:
            result = {"correct": not outcome.wrong, "attempted": outcome.attempted,
                      "failed": outcome.failed_inputs, "metrics": metrics}
            with open(opts.out, "a", encoding="utf-8") as out:
                out.write(json.dumps({"workload": name, "seed": opts.seed, "trace": opts.trace,
                                      "result": result}) + "\n")
        prefix = "" if opts.workload else f"{name}."
        combined.update({prefix + key: metric for key, metric in metrics.items()})
        attempted += outcome.attempted
        failed += outcome.failed_inputs
        wrong += outcome.wrong
    print(json.dumps({"correct": not wrong, "attempted": attempted, "failed": failed,
                      "metrics": combined}))
    return 1 if wrong else 0


if __name__ == "__main__":
    sys.exit(main())
