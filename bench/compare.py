"""Compare two result sets written with ``run.py --out``.

For each workload and end-to-end metric: both sides' medians and quartiles,
the share of seed-matched pairs the new side wins (ties count for neither),
and a verdict against the metric's bound from ``BENCHMARK.json``:

- ``regression``: the new median is worse than the base median by more than the bound;
- ``unresolved``: either side's quartile spread, as a share of its median,
  exceeds the bound, and not every new run beats every base run;
- ``gain``: there are at least ten pairs, the new side wins nine tenths of
  them, and the medians differ by more than the base's quartile spread;
- ``same``: none of these.

Per-layer results are listed by median, and every size count (unit
``count/op``) must repeat exactly across runs of one seed within each set.
Exits with 1 on a regression or a size count that does not repeat.
"""

from __future__ import annotations

import json
import math
import statistics
from collections import defaultdict
from pathlib import Path

MIN_PAIRS = 10


def _load(path: Path) -> dict:
    """(workload, trace) -> seed -> list of results, in file order."""
    runs: dict = defaultdict(lambda: defaultdict(list))
    with open(path, encoding="utf-8") as lines:
        for line in lines:
            if line.strip():
                record = json.loads(line)
                runs[record["workload"], record["trace"]][record["seed"]].append(record["result"])
    return runs


def _value(result: dict, metric: str) -> float:
    value = result["metrics"][metric]["value"]
    return math.inf if value is None else value  # null stands for an infinite percentile


def _values(by_seed: dict, metric: str) -> list[float]:
    return [_value(r, metric) for results in by_seed.values() for r in results]


def _quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def _pairs(base: dict, new: dict, metric: str) -> list[tuple[float, float]]:
    return [
        (_value(b, metric), _value(n, metric))
        for seed in base.keys() & new.keys()
        for b, n in zip(base[seed], new[seed])
    ]


def verdict(base: list[float], new: list[float], pairs, better: str, bound: float):
    sign = 1 if better == "higher" else -1
    b1, bm, b3 = _quartiles(base)
    n1, nm, n3 = _quartiles(new)
    wins = sum(1 for b, n in pairs if sign * (n - b) > 0)
    share = wins / len(pairs) if pairs else 0.0
    if sign * (bm - nm) > bound * abs(bm):
        return "regression", share
    spread = max((b3 - b1) / abs(bm) if bm else 0.0, (n3 - n1) / abs(nm) if nm else 0.0)
    all_better = all(sign * (n - b) > 0 for n in new for b in base)
    if spread > bound and not all_better:
        return "unresolved", share
    if len(pairs) >= MIN_PAIRS and share >= 0.9 and abs(nm - bm) > (b3 - b1):
        return "gain", share
    return "same", share


def _size_repeats(runs: dict, units: dict) -> list[str]:
    problems = []
    for (workload, trace), by_seed in runs.items():
        for seed, results in by_seed.items():
            for metric, unit in units.items():
                if trace == 1 and unit == "count/op":
                    seen = {r["metrics"][metric]["value"] for r in results}
                    if len(seen) > 1:
                        problems.append(f"{workload} seed {seed} {metric}: {sorted(seen)}")
    return problems


def main(spec: dict, base_path: Path, new_path: Path) -> int:
    """Print the comparison; ``spec`` is the parsed ``BENCHMARK.json``."""
    base, new = _load(base_path), _load(new_path)
    failing = False
    print(f"{'workload':9} {'metric':12} {'base median [q1, q3]':>30} "
          f"{'new median [q1, q3]':>30} {'change':>8} {'won':>5}  verdict")
    for workload in [w["name"] for w in spec["workloads"]]:
        b_runs, n_runs = base.get((workload, 0)), new.get((workload, 0))
        if not b_runs or not n_runs:
            continue
        for metric in spec["end_to_end"]:
            name = metric["name"]
            b, n = _values(b_runs, name), _values(n_runs, name)
            result, share = verdict(b, n, _pairs(b_runs, n_runs, name),
                                    metric["better"], metric["bound"])
            failing |= result == "regression"
            (b1, bm, b3), (n1, nm, n3) = _quartiles(b), _quartiles(n)
            change = (nm - bm) / bm if bm else 0.0
            print(f"{workload:9} {name:12} {bm:12.5g} [{b1:.4g}, {b3:.4g}] "
                  f"{nm:12.5g} [{n1:.4g}, {n3:.4g}] {change:+8.1%} {share:5.0%}  {result}")

    units = {m["name"]: m["unit"] for m in spec["per_layer"]}
    for workload in [w["name"] for w in spec["workloads"]]:
        b_runs, n_runs = base.get((workload, 1)), new.get((workload, 1))
        if not b_runs or not n_runs:
            continue
        print(f"\n{workload}: per-layer medians (base -> new)")
        for name, unit in units.items():
            bm = statistics.median(_values(b_runs, name))
            nm = statistics.median(_values(n_runs, name))
            if bm or nm:
                change = f"{(nm - bm) / bm:+.1%}" if bm else "new"
                print(f"  {name:48} {bm:12.5g} -> {nm:12.5g} {unit:9} {change}")

    problems = _size_repeats(base, units) + _size_repeats(new, units)
    print("\nsize counts repeat exactly across runs of each seed" if not problems
          else "\nsize counts that do not repeat:\n  " + "\n  ".join(problems))
    return 1 if failing or problems else 0
