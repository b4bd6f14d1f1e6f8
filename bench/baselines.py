#!/usr/bin/env python3
"""Re-measure the baselines that ROADMAP item 1 asks the first benchmark to
confirm or correct. Run from the root of a checkout:

    python3 bench/baselines.py

Each figure is the median of five repetitions, in seconds.
"""

from __future__ import annotations

import os
import random
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import harness  # noqa: E402
import workloads  # noqa: E402
from pgarl import (  # noqa: E402
    ProgramError, defining_thread, extract_pgau, parse_canonical, parse_program, project_pure,
)

REPEATS = 5


def median_time(fn) -> float:
    times = []
    for _ in range(REPEATS):
        started = perf_counter()
        fn()
        times.append(perf_counter() - started)
    return statistics.median(times)


def corpus(count: int = 2000) -> list:
    rng = random.Random(20260808)
    shapes = ("omega", "finite", "mixed")
    texts = [workloads.corpus_program(rng, rng.choice(shapes)) for _ in range(count)]
    return [parse_canonical(text) for text in texts]


def pure_side(programs) -> int:
    rejected = 0
    for program in programs:
        try:
            extract_pgau(project_pure(program))
        except ProgramError:
            rejected += 1
    return rejected


def main() -> None:
    argv = [sys.executable, "-m", "pgarl.cli", "equiv", "-e", "(8x{;8x{;a;}x;}x)^w", "-e", "(a)^w"]
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    cli = median_time(lambda: subprocess.run(argv, env=env, check=True, capture_output=True))
    print(f"CLI equiv on (8x{{;8x{{;a;}}x;}}x)^w against (a)^w: {cli:.3f} s wall")
    print(f"  of which import pgarl.cli: {harness.cli_import_seconds(ROOT / 'src'):.3f} s")

    programs = corpus()
    rejected = pure_side(programs)
    print(f"2000 corpus programs, defining_thread: "
          f"{median_time(lambda: [defining_thread(p) for p in programs]):.3f} s")
    print(f"2000 corpus programs, project_pure + extract_pgau: "
          f"{median_time(lambda: pure_side(programs)):.3f} s ({rejected} rejected)")

    text = ";".join(["a", "+b", "#2", "c", "-d"] * 20000)
    print(f"parse_program on 100000 instructions: {median_time(lambda: parse_program(text)):.3f} s")

    for n in (16, 32):
        program = parse_canonical(f"({n}x{{;{n}x{{;a;}}x;}}x)^w")
        size = len(project_pure(program))
        print(f"project_pure on {n}x{n} nested loops: "
              f"{median_time(lambda: project_pure(program)):.3f} s for {size} instructions")


if __name__ == "__main__":
    main()
