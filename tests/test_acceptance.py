"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines as they execute.
"""

import random
import time
from functools import lru_cache

import pytest

from pgarl import (
    Action,
    BranchRef,
    DEADLOCK,
    Deadlock,
    FullCounter,
    ReplyScript,
    STOP,
    Stop,
    behav_equiv,
    canonicalize,
    defining_thread,
    extract_pga,
    format_program,
    parse_canonical,
    project_pure,
    refines,
    simulate_with_services,
    size_report,
    thread_equal,
)

from genprograms import (
    cycle_of, lin, random_pga, random_spec, rewrite_with_axioms, soundness_corpus,
)

SEED = 20260808


def report(number, ok, detail=""):
    print(f"{'PASS' if ok else 'FAIL'} criterion {number}{': ' + detail if detail else ''}")
    assert ok, f"criterion {number} failed: {detail}"


def test_criterion_1_first_worked_example():
    started = time.perf_counter()
    spec = defining_thread(parse_canonical("(3x{;a;b;4x{;c;}x;d;}x;e)^w"))
    expected = cycle_of((["a", "b"] + ["c"] * 4 + ["d"]) * 3 + ["e"])
    elapsed = time.perf_counter() - started
    ok = thread_equal(spec, expected) and len(spec.equations) <= 40 and elapsed < 1.0
    report(1, ok, f"{len(spec.equations)} equations in {elapsed:.3f}s")


def test_criterion_2_second_worked_example():
    started = time.perf_counter()
    spec = defining_thread(parse_canonical("(a;2x{;+b;#3;}x;c;d)^w"))
    a, b, c, d = (Action(x) for x in "abcd")
    expected = lin(
        BranchRef(2, a, 2),
        BranchRef(3, b, 4),
        BranchRef(1, d, 1),
        BranchRef(3, b, 5),
        BranchRef(6, c, 6),
        BranchRef(1, d, 1),
    )
    elapsed = time.perf_counter() - started
    ok = thread_equal(spec, expected) and elapsed < 1.0
    report(2, ok, f"in {elapsed:.3f}s")


def test_criterion_3_annotation_golden():
    from pgarl import annotate, format_sequence

    program = parse_canonical("3x{;a;b;4x{;+c;#4;}x;d;}x;+e;#3")
    text = format_sequence(annotate(program.prefix, cyclic=False))
    ok = text == "3x{;a;b;4x{;+c;#4(7,3)(9,2);3}x2;d;2}x7;+e;#3"
    report(3, ok, text)


def test_criterion_4_soundness_at_desk_scale():
    started = time.perf_counter()
    failures = []
    for program in soundness_corpus():
        if not thread_equal(defining_thread(program), extract_pga(project_pure(program))):
            failures.append(format_program(program))
    elapsed = time.perf_counter() - started
    ok = not failures and elapsed < 60.0
    report(4, ok, f"500 programs in {elapsed:.2f}s" + (f"; first failure {failures[:1]}" if failures else ""))


def test_criterion_5_projection_size_gap():
    sizes = {
        n: size_report(parse_canonical(f"({n}x{{;{n}x{{;a;}}x;}}x)^w")) for n in (2, 4, 8)
    }
    ratio = sizes[8].pure_len / sizes[2].pure_len
    ok = ratio >= 10 and sizes[8].counter_len == sizes[2].counter_len
    report(
        5,
        ok,
        f"pure {sizes[2].pure_len}/{sizes[4].pure_len}/{sizes[8].pure_len} "
        f"(ratio {ratio:.1f}), counter {sizes[2].counter_len} at every size",
    )


def test_criterion_6_extraction_table_conformance():
    a, b, c = (Action(x) for x in "abc")
    cases = [
        ("(#0)^w", lin(DEADLOCK)),
        ("-a;b;c", lin(BranchRef(2, a, 3), BranchRef(4, c, 4), BranchRef(2, b, 2), DEADLOCK)),
        (
            "(a;+b;#3;-b;#4)^w",
            lin(BranchRef(2, a, 2), BranchRef(1, b, 3), BranchRef(1, b, 3)),
        ),
        ("(#2;a)^w", lin(DEADLOCK)),
    ]
    ok = all(thread_equal(extract_pga(parse_canonical(src)), expected) for src, expected in cases)
    report(6, ok, f"{len(cases)} worked examples")


def test_criterion_7_decidability_oracle_agreement():
    rng = random.Random(SEED)
    started = time.perf_counter()

    def oracle_refines(P, Q):
        @lru_cache(maxsize=None)
        def leq(i, j, k):
            if k == 0:
                return True
            lhs, rhs = P.rhs(i), Q.rhs(j)
            if isinstance(lhs, Deadlock):
                return True
            if isinstance(lhs, Stop):
                return isinstance(rhs, Stop)
            return (
                isinstance(rhs, BranchRef)
                and rhs.action == lhs.action
                and leq(lhs.yes, rhs.yes, k - 1)
                and leq(lhs.no, rhs.no, k - 1)
            )

        total = len(P.equations) + len(Q.equations)
        return all(leq(P.root, Q.root, k) for k in range(3 * total + 1))

    disagreements = 0
    for _ in range(300):
        P, Q = random_spec(rng), random_spec(rng)
        if refines(P, Q) != oracle_refines(P, Q):
            disagreements += 1
        if thread_equal(P, Q) != (oracle_refines(P, Q) and oracle_refines(Q, P)):
            disagreements += 1
    elapsed = time.perf_counter() - started
    ok = disagreements == 0 and elapsed < 10.0
    report(7, ok, f"300 pairs in {elapsed:.2f}s")


def test_criterion_8_counter_trace_family():
    # Q = (c.inc . Q) <a> R ; R = (b . R) <c.dec> S
    spec = lin(
        BranchRef(2, Action("a"), 3),
        BranchRef(1, Action("inc", focus="c"), 1),
        BranchRef(4, Action("dec", focus="c"), 5),
        BranchRef(3, Action("b"), 3),
        STOP,
    )
    ok = True
    for n in range(51):
        script = ReplyScript(tuple([True] * n + [False] + [True] * n))
        trace = simulate_with_services(spec, (("c", FullCounter()),), script, max_steps=200)
        names = [str(action) for action in trace.actions]
        if names != ["a"] * (n + 1) + ["b"] * n or trace.status != "S":
            ok = False
            break
    report(8, ok, "traces for n = 0..50")


def test_criterion_9_unit_conformance():
    first = behav_equiv(
        parse_canonical("+a;#3;u(+b;#3;c);d;e"), parse_canonical("+a;#5;+b;#3;c;d;e")
    )
    footnote = behav_equiv(
        parse_canonical("+a;(#2;#3;b;#5;c;#0)^w"), parse_canonical("+a;(#2;#3;b;#3;c;#0)^w")
    )
    second_footnote = behav_equiv(
        parse_canonical("+a;(#5;+b;#3;c;d;e;#0)^w"), parse_canonical("+a;#3;u(+b;#3;c);d;e")
    )
    ok = first and footnote and second_footnote
    report(9, ok, "jump-out example and both jump-optimized vectors")


@pytest.mark.filterwarnings("ignore::pgarl.DeadCodeWarning")
def test_criterion_10_congruence_soundness():
    rng = random.Random(SEED)
    failures = 0
    for _ in range(500):
        program = random_pga(rng)
        variant = rewrite_with_axioms(rng, program)
        from pgarl import congruent

        if not congruent(program, variant):
            failures += 1
            continue
        if not thread_equal(
            extract_pga(canonicalize(program)), extract_pga(canonicalize(variant))
        ):
            failures += 1
    ok = failures == 0
    report(10, ok, "500 rewritten pairs")
