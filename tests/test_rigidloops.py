import dataclasses
import itertools
import math
import os
import random
import resource
import subprocess
import sys
from pathlib import Path

import pytest

import pgarl
from pgarl import (
    Action,
    AnnClose,
    AnnJump,
    Basic,
    BranchRef,
    BudgetExceeded,
    CanonicalProgram,
    DEADLOCK,
    DownCounter,
    HALT,
    Jump,
    LoopClose,
    LoopHeader,
    NegTest,
    Part,
    PosTest,
    ProgramError,
    ProjectedProgram,
    RawProgram,
    Unit,
    WellFormednessError,
    annotate,
    canonicalize,
    defining_thread,
    extract_pga,
    extract_pgau,
    format_program,
    format_sequence,
    has_rigid,
    normalize_jumps,
    parse_canonical,
    parse_program,
    pi,
    project_counter,
    project_pure,
    size_report,
    thread_equal,
    validate_pgarl,
)
from pgarl import rigidloops
from pgarl.program import program_instructions
from pgarl.rigidloops import _match_loops, _omega_form, _unsplit_loops, project
from pgarl.services import apply_bindings, bound_states
from pgarl.threads import explore

from genprograms import cycle_of, lin, nested_exits, random_pgarl, soundness_corpus
from streamsemantics import stream_pi

a = Action("a")


FIRST = "(3x{;a;b;4x{;c;}x;d;}x;e)^w"
SECOND = "(a;2x{;+b;#3;}x;c;d)^w"


# -- validation ---------------------------------------------------------------

def test_validate_clean_loop():
    assert validate_pgarl(parse_canonical("(3x{;a;}x)^w")) == []


def test_validate_closure_after_test_is_error():
    diags = validate_pgarl(parse_canonical("(+b;}x;a)^w"))
    assert any(d.severity == "error" and "test" in d.message for d in diags)


def test_validate_wrapping_test_before_closure():
    diags = validate_pgarl(parse_canonical("(}x;a;+b)^w"))
    assert any(d.severity == "error" and "test" in d.message for d in diags)


def test_validate_lonely_header_is_warning():
    diags = validate_pgarl(parse_canonical("(3x{;a)^w"))
    assert [d.severity for d in diags] == ["warning"]
    assert "skip" in diags[0].message


def test_validate_matches_brackets_as_the_projections_read_them():
    # the body's }x closes the prefix loop, and its 3x{ is closed by the next
    # period's }x, so no bracket acts as a skip
    assert validate_pgarl(parse_canonical("2x{;a;(}x;3x{;b)^w")) == []
    diags = validate_pgarl(parse_canonical("(3x{;a)^w"))
    assert [(d.position, d.message) for d in diags] == [
        (1, "loop header has no matching closure; acts as a skip")
    ]
    diags = validate_pgarl(parse_canonical("a;}x;(2x{;b)^w"))
    assert [str(d) for d in diags] == [
        "warning at 3: loop header has no matching closure; acts as a skip",
        "warning at 2: loop closure has no matching header; acts as a skip",
    ]


def test_well_formedness_error_lists_the_errors_alone():
    with pytest.raises(WellFormednessError) as caught:
        project_counter(parse_canonical("3}x2;(+b;}x;a)^w"))
    assert str(caught.value) == (
        "error at 1: annotated instruction in a source program; "
        "error at 3: loop closure directly preceded by a test instruction"
    )


def test_validate_unit_in_a_rigid_loop_program_is_error():
    # neither projection reads the jumps inside a unit; on these programs the
    # two routes gave different threads before the error existed
    for text in ("(3x{;u(a;#2);}x;b)^w", "(2x{;u(a;+b);}x;c)^w"):
        program = parse_canonical(text)
        diags = [str(d) for d in validate_pgarl(program)]
        assert diags == ["error at 2: unit instruction in a rigid-loop program"], text
        for via in ("defining", "pure"):
            with pytest.raises(WellFormednessError, match="^error at 2: unit instruction"):
                project(program, via)
    # every unit is named at its written position, after the annotated instructions
    diags = validate_pgarl(parse_canonical("u(a);3}x2;2x{;b;}x;(u(+c;#2);d)^w"))
    assert [str(d) for d in diags] == [
        "error at 2: annotated instruction in a source program",
        "error at 1: unit instruction in a rigid-loop program",
        "error at 6: unit instruction in a rigid-loop program",
    ]


def test_units_without_loop_brackets_still_project():
    # a program of units and no loops, and the counter projection's own output
    counted = project_counter(parse_canonical(SECOND)).program
    for program in (parse_canonical("a;(u(+b;#2);c;u(d))^w"), counted):
        assert validate_pgarl(program) == []
        assert defining_thread(program) == explore(*bound_states(project(program, "pure")))


def test_validate_annotated_source_is_error():
    diags = validate_pgarl(parse_canonical("3}x2;a"))
    assert any(d.severity == "error" for d in diags)


def test_validate_jump_at_body_length_warns():
    diags = validate_pgarl(parse_canonical("(a;#2)^w"))
    assert any(d.severity == "warning" and "jump" in d.message for d in diags)


def test_validate_writes_a_jump_distance_as_an_int():
    (diag,) = validate_pgarl(CanonicalProgram((), (Jump(True),)))
    assert diag.message == "jump distance 1 in a repeated body of length 1 never reaches another instruction"


def test_project_rejects_errors():
    with pytest.raises(WellFormednessError):
        project_counter(parse_canonical("(+b;}x;a)^w"))


# -- annotation ---------------------------------------------------------------

def test_annotation_golden_finite():
    program = parse_canonical("3x{;a;b;4x{;+c;#4;}x;d;}x;+e;#3")
    annotated = annotate(program.prefix, cyclic=False)
    assert format_sequence(annotated) == "3x{;a;b;4x{;+c;#4(7,3)(9,2);3}x2;d;2}x7;+e;#3"
    assert _match_loops(program.prefix)[0] == {7: 4, 9: 1}


def test_annotation_golden_cyclic():
    program = parse_canonical(FIRST)
    annotated = annotate(program.body, cyclic=True)
    assert format_sequence(annotated) == "3x{;a;b;4x{;c;3}x1;d;2}x6;e"


def test_annotation_second_example():
    program = parse_canonical(SECOND)
    annotated = annotate(program.body, cyclic=True)
    assert format_sequence(annotated) == "a;2x{;+b;#3(5,1);1}x2;c;d"


def test_annotation_without_loops_is_identity():
    program = parse_canonical("a;#2;+b;!")
    annotated = annotate(program.prefix, cyclic=False)
    assert annotated == program.prefix


def test_annotation_lonely_closure_gets_zero_zero():
    annotated = annotate(parse_canonical("a;}x").prefix)
    assert annotated[1] == AnnClose(0, 0)


def test_annotation_erasure_restores_source():
    def erase(ins):
        if isinstance(ins, AnnClose):
            return LoopClose()
        if isinstance(ins, AnnJump):
            return Jump(ins.distance)
        return ins

    rng = random.Random(13)
    for _ in range(100):
        program = random_pgarl(rng, shape="omega")
        annotated = annotate(program.body, cyclic=True)
        assert tuple(map(erase, annotated)) == program.body


def test_annotation_wrapping_jump_collects_closures():
    # the jump's path wraps: positions 6,7,8 reduce to 1,2,3, crossing the
    # closure at position 3
    body = parse_canonical("(1x{;a;}x;b;#4)^w").body
    annotated = annotate(body, cyclic=True)
    jump = annotated[4]
    assert isinstance(jump, AnnJump) and jump.resets == ((3, 0),)


# -- counter projection -------------------------------------------------------

def test_counter_projection_first_example():
    projected = project_counter(parse_canonical(FIRST))
    assert format_program(projected.program) == (
        "rlc:6.set:3;rlc:8.set:2;"
        "(#1;a;b;#1;c;u(+rlc:6.dec;#3;rlc:6.set:3;#2;#8);d;"
        "u(+rlc:8.dec;#3;rlc:8.set:2;#2;#3);e)^w"
    )
    assert projected.bindings == (
        ("rlc:6", DownCounter(0, 3)),
        ("rlc:8", DownCounter(0, 2)),
    )


def test_counter_projection_second_example():
    projected = project_counter(parse_canonical(SECOND))
    assert format_program(projected.program) == (
        "rlc:5.set:1;(a;#1;+b;u(rlc:5.set:1;#3);"
        "u(+rlc:5.dec;#3;rlc:5.set:1;#2;#5);c;d)^w"
    )
    assert projected.bindings == (("rlc:5", DownCounter(0, 1)),)


def _set_objects(program: CanonicalProgram) -> list[Basic]:
    return [
        ins for ins in program_instructions(program)
        if isinstance(ins, Basic) and ins.action.method == "set"
    ]


def test_counter_projection_shares_one_set_per_counter():
    # each of the three counters is started in the prefix, restarted by its
    # closure and reset by all three jumps, five uses of one object
    projected = project_counter(parse_canonical(nested_exits(3)))
    assert format_program(projected.program) == (
        "rlc:8.set:1;rlc:9.set:1;rlc:10.set:1;("
        "#1;u(rlc:8.set:1;rlc:9.set:1;rlc:10.set:1;#9);"
        "#1;u(rlc:8.set:1;rlc:9.set:1;rlc:10.set:1;#7);"
        "#1;u(rlc:8.set:1;rlc:9.set:1;rlc:10.set:1;#5);a;"
        "u(+rlc:8.dec;#3;rlc:8.set:1;#2;#9);u(+rlc:9.dec;#3;rlc:9.set:1;#2;#6);"
        "u(+rlc:10.dec;#3;rlc:10.set:1;#2;#3);b)^w"
    )
    sets = _set_objects(projected.program)
    assert len(sets) == 3 * 5 and len({id(ins) for ins in sets}) == 3
    for program in soundness_corpus():
        projected = project_counter(program)
        assert len({id(ins) for ins in _set_objects(projected.program)}) == len(projected.bindings)


def test_counter_projection_loop_free_identity():
    program = parse_canonical("+a;#2;(b;c)^w")
    projected = project_counter(program)
    assert projected.program == program and projected.bindings == ()


def test_omega_form_folds_prefix_jumps_into_the_first_period():
    # k = 2 prefix instructions and m = 3 in the body: a jump from position i
    # longer than k - i + m lands in a later period and is shortened by whole
    # periods, so #5 from position 1 lands where #2 does
    folded = [_omega_form(parse_canonical(f"#{d};#9;(a;b;c)^w"))[:2] for d in range(1, 11)]
    distances = [1, 2, 3, 4, 2, 3, 4, 2, 3, 4]
    assert folded == [(Jump(d), Jump(3)) for d in distances]


def test_defining_thread_first_example():
    spec = defining_thread(parse_canonical(FIRST))
    expected = cycle_of((["a", "b"] + ["c"] * 4 + ["d"]) * 3 + ["e"])
    assert thread_equal(spec, expected)
    assert len(spec.equations) <= 40


def test_defining_thread_second_example():
    b, c, d = Action("b"), Action("c"), Action("d")
    expected = lin(
        BranchRef(2, a, 2),
        BranchRef(3, b, 4),
        BranchRef(1, d, 1),
        BranchRef(3, b, 5),
        BranchRef(6, c, 6),
        BranchRef(1, d, 1),
    )
    assert thread_equal(defining_thread(parse_canonical(SECOND)), expected)


def test_defining_thread_empty_loop_body():
    spec = defining_thread(parse_canonical("(1x{;}x;a)^w"))
    assert thread_equal(spec, cycle_of(["a"]))


def test_defining_thread_lonely_header_is_skip():
    with_header = defining_thread(parse_canonical("(3x{;a;b)^w"))
    with_skip = extract_pga(parse_canonical("(#1;a;b)^w"))
    assert thread_equal(with_header, with_skip)


def test_defining_thread_lonely_closure_is_skip():
    with_closure = defining_thread(parse_canonical("(a;}x;b)^w"))
    with_skip = extract_pga(parse_canonical("(a;#1;b)^w"))
    assert thread_equal(with_closure, with_skip)


def test_defining_thread_header_and_closure_deleted_when_empty():
    spec = defining_thread(parse_canonical("(b;1x{;}x;a)^w"))
    assert thread_equal(spec, extract_pga(parse_canonical("(b;a)^w")))


def test_counter_projection_repetition_free():
    # a rigid loop in a finite program: a three times, then off the end
    spec = defining_thread(parse_canonical("3x{;a;}x"))
    expected = lin(
        BranchRef(2, a, 2), BranchRef(3, a, 3), BranchRef(4, a, 4), DEADLOCK
    )
    assert thread_equal(spec, expected)


def test_xi_tail_variants():
    # Only the derived wrap-back distance (prefix length k + 2) routes control
    # back to the body start; the shorter printed variant (k), built here by
    # shortening the two trailing wrap-back jumps, is behaviorally wrong.
    source = parse_canonical("a;(1x{;b;}x;c)^w")
    oracle = extract_pga(project_pure(source))
    assert thread_equal(defining_thread(source, "derived"), oracle)
    derived = project_counter(source)
    k = len(source.prefix)
    body = derived.program.body
    assert body[-2:] == (Jump(k + 2), Jump(k + 2))
    paper = dataclasses.replace(
        derived,
        program=dataclasses.replace(derived.program, body=body[:-2] + (Jump(k), Jump(k))),
    )
    assert not thread_equal(apply_bindings(paper), oracle)


def test_only_the_derived_tail_exists():
    program = parse_canonical("a;(1x{;b;}x;c)^w")
    for projection in (project_counter, defining_thread):
        with pytest.raises(ValueError, match="paper"):
            projection(program, "paper")


def test_closure_unit_in_isolation():
    # The five-instruction closure unit, checked on its own against a
    # two-state reading: a successful decrement resumes the loop body start,
    # a failed one resets the counter and falls out of the unit.
    from pgarl.services import apply_use_finite

    for n in range(3):
        unit = f"u(+t:1.dec;#3;t:1.set:{n};#2;#3)"
        program = canonicalize(parse_program(f"(a;b;{unit};c)^w"))
        spec = apply_use_finite(extract_pgau(program), "t:1", DownCounter(n, n))
        expected = cycle_of(["a"] + ["b"] * (n + 1) + ["c"])
        assert thread_equal(spec, expected)


def _psi_table(ins, position: int, body_len: int):
    """The paper's table of the counter projection, one instruction at a
    time: a header is a skip, the closure n}x m at position j drives the
    counter rlc:j over a body of m in a repeated body of body_len, and the
    jump #l(j,n)... resets each listed counter to n before it jumps."""
    if isinstance(ins, LoopHeader):
        return Jump(1)
    if isinstance(ins, AnnClose):
        focus = f"rlc:{position}"
        init = Basic(Action("set", focus, ins.remaining))
        return Unit((PosTest(Action("dec", focus)), Jump(3), init, Jump(2),
                     Jump(body_len - ins.body_size)))
    if isinstance(ins, AnnJump):
        resets = tuple(Basic(Action("set", f"rlc:{j}", n)) for j, n in ins.resets)
        return Unit(resets + (Jump(ins.distance),))
    return ins


def _nest_texts():
    """The nests of the unrolling oracle's test, loops in loops with jumps
    that leave one or both of them or wrap past the repeated body."""
    for n in range(1, 13):
        for m in (1, 2, n):
            yield f"({n}x{{;{m}x{{;a;}}x;}}x)^w"
            yield f"({n}x{{;{m}x{{;+a;#3;}}x;b;}}x)^w"
            yield f"c;#4;{m}x{{;#2;a;}}x;({n}x{{;2x{{;{m}x{{;a;#5;}}x;}}x;b;}}x;d)^w"
    for n, j, k in itertools.product(range(1, 8), range(9), range(9)):
        yield f"({n}x{{;a;2x{{;#{j};b;c;}}x;#{k};d;}}x;e)^w"


def test_counter_projection_is_the_table_applied_to_the_annotation():
    rng = random.Random(11)
    programs = [
        *soundness_corpus(),
        *(random_pgarl(rng) for _ in range(400)),
        *map(parse_canonical, _nest_texts()),
    ]
    for program in programs:
        if not has_rigid(program):
            assert project_counter(program) == ProjectedProgram(program, ())
            continue
        body = _omega_form(_unsplit_loops(program))
        annotated = annotate(body, cyclic=True)
        closures = [(j, ins.remaining) for j, ins in enumerate(annotated, 1)
                    if isinstance(ins, AnnClose)]
        expected = ProjectedProgram(
            CanonicalProgram(
                tuple(Basic(Action("set", f"rlc:{j}", n)) for j, n in closures),
                tuple(_psi_table(ins, j, len(body)) for j, ins in enumerate(annotated, 1)),
            ),
            tuple((f"rlc:{j}", DownCounter(0, n)) for j, n in closures),
        )
        assert project_counter(program) == expected, format_program(program)


# -- pure projection ----------------------------------------------------------

def test_pure_single_iteration_golden():
    assert format_program(project_pure(parse_canonical("b;1x{;a;}x;c"))) == "b;#1;a;#1;c"


def test_pure_no_loops_identity():
    program = parse_canonical("+a;#2;(b)^w")
    assert project_pure(program) == program


def test_pure_second_example_sound():
    program = parse_canonical(SECOND)
    assert thread_equal(extract_pga(project_pure(program)), defining_thread(program))


def test_pure_rejects_boundary_spanning_loop():
    # canonicalize split this loop across the boundary; both projections
    # move the boundary back past its closure and agree
    program = parse_canonical("2x{;a;(b;}x;c)^w")
    assert thread_equal(extract_pga(project_pure(program)), defining_thread(program))
    # a body whose brackets do not balance within one period closes the outer
    # header in the second period; the boundary moves past it, and both
    # projections read two empty loops, then lonely closures: deadlock
    program = parse_canonical("2x{;2x{;(}x)^w")
    deadlock = lin(DEADLOCK)
    assert thread_equal(extract_pga(project_pure(program)), deadlock)
    assert thread_equal(defining_thread(program), deadlock)


def test_loop_straddling_the_period_boundary():
    # the stream matches each period's 2x{ with the next period's }x, so the
    # boundary moves past the first period's }x
    program = parse_canonical("(}x;b;2x{;a)^w")
    assert format_program(_unsplit_loops(program)) == "}x;(b;2x{;a;}x)^w"
    expected = cycle_of("baa")
    assert thread_equal(defining_thread(program), expected)
    assert thread_equal(extract_pga(project_pure(program)), expected)
    assert size_report(program).loop_product == 2


def test_pure_projection_reads_back_as_the_same_thread():
    # project_pure's output is not always in first canonical form, so its text
    # can read back as another value; that value has the same thread. The
    # counter projection's text reads back as the same value
    differ = 0
    for program in soundness_corpus():
        pure = project_pure(program)
        read = parse_canonical(format_program(pure))
        differ += read != pure
        assert thread_equal(extract_pgau(read), extract_pgau(pure)), format_program(program)
        counter = project_counter(program).program
        assert parse_canonical(format_program(counter)) == counter
    assert differ == 33


def test_pure_output_has_no_rigid_instructions():
    rng = random.Random(3)
    for _ in range(100):
        program = random_pgarl(rng)
        assert not has_rigid(project_pure(program))


def test_pure_lonely_brackets_become_skips():
    assert format_program(project_pure(parse_canonical("3x{;a"))) == "#1;a"
    assert format_program(project_pure(parse_canonical("a;}x;b"))) == "a;#1;b"


def test_pure_length_budget():
    program = parse_canonical("(1000000x{;1000000x{;a;}x;}x)^w")
    assert size_report(program).pure_len == 3000002000000
    with pytest.raises(BudgetExceeded, match="3000002000000 instructions.*10000000"):
        project_pure(program)


_RESET_BUDGET_CHILD = """
import time
from pgarl import BudgetExceeded, parse_canonical, project_counter
from genprograms import nested_exits
program = parse_canonical(nested_exits(4500))
start = time.perf_counter()
try:
    project_counter(program)
except BudgetExceeded as exc:
    print(f"{time.perf_counter() - start:.3f} {exc}")
"""


def test_reset_budget_stops_before_listing():
    # 4500 jumps, each crossing all 4500 closures: counted from the bisection
    # bounds, so the budget stops it before any reset is listed. The child
    # gets 1 GB of address space, far less than listing them would take.
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        (str(Path(pgarl.__file__).parents[1]), str(Path(__file__).parent))))
    done = subprocess.run(
        [sys.executable, "-c", _RESET_BUDGET_CHILD], capture_output=True, text=True, env=env,
        timeout=60, preexec_fn=lambda: resource.setrlimit(resource.RLIMIT_AS, (2**30, 2**30)),
    )
    assert done.returncode == 0, done.stderr[-500:]
    took, message = done.stdout.split(" ", 1)
    assert float(took) < 0.5
    assert message == (
        "annotation would list 20250000 counter resets, over the limit of 10000000\n"
    )


def test_reset_budget_counts_every_jump(monkeypatch):
    # 3 jumps of 3 resets each; a wrapping jump counts both parts of its path
    body = parse_canonical(nested_exits(3)).body
    monkeypatch.setattr(rigidloops, "RESET_LIMIT", 9)
    assert sum(len(ins.resets) for ins in annotate(body, cyclic=True)
               if isinstance(ins, AnnJump)) == 9
    wrapping = parse_canonical("(1x{;a;}x;b;#7;1x{;c;}x)^w").body
    assert annotate(wrapping, cyclic=True)[4].resets == ((3, 0), (8, 0))
    monkeypatch.setattr(rigidloops, "RESET_LIMIT", 1)
    for instructions, cyclic in ((body, True), (body, False), (wrapping, True)):
        with pytest.raises(BudgetExceeded, match="counter resets, over the limit of 1"):
            annotate(instructions, cyclic=cyclic)
    assert annotate(wrapping, cyclic=False)[4].resets == ((8, 0),)


def test_unsplit_budget_counts_the_moved_instructions(monkeypatch):
    # a written prefix longer than the limit moves nothing, so every reader
    # takes it; the boundary of 2x{;2x{;(}x;a;…)^w moves one period and one
    # instruction, 10 for a body of 9 and 11 for a body of 10
    monkeypatch.setattr(rigidloops, "UNSPLIT_LENGTH_LIMIT", 10)
    for text in ("a;" * 12 + "(b;#0)^w", "a;" * 12 + "2x{;c;}x;(b;#0)^w"):
        program = parse_canonical(text)
        assert validate_pgarl(program) == []
        assert project(program, "pure").program == project_pure(program)
        assert thread_equal(defining_thread(program), extract_pgau(project_pure(program)))
    within, past = (parse_canonical("2x{;2x{;(}x;" + "a;" * n + "a)^w") for n in (7, 8))
    assert len(_unsplit_loops(within).prefix) == 2 + 10
    assert thread_equal(defining_thread(within), extract_pgau(project_pure(within)))
    for reader in (validate_pgarl, project_pure, defining_thread, lambda p: project(p, "pure")):
        with pytest.raises(BudgetExceeded, match="would exceed 10 instructions"):
            reader(past)


# -- the pure projection by expansion equations, its normative oracle ----------

def _gap_crossings(lo: int, hi: int, first_gap: int, period: int | None) -> int:
    """How many insertion gaps (at first_gap, first_gap+period, ...) lie in
    the inclusive stream interval [lo, hi]."""
    if hi < lo:
        return 0
    if period is None:
        return 1 if lo <= first_gap <= hi else 0
    if hi < first_gap:
        return 0
    start = max(lo, first_gap)
    over = start - first_gap
    first = first_gap + -(-over // period) * period
    if first > hi:
        return 0
    return (hi - first) // period + 1


def _raise_jump(ins, source: int, first_gap: int, period: int | None, grow: int):
    if not isinstance(ins, Jump) or ins.distance == 0:
        return ins
    crossings = _gap_crossings(source, source + ins.distance - 1, first_gap, period)
    if crossings:
        return Jump(ins.distance + grow * crossings)
    return ins


def _expand_step(seq, header, close, *, stream_base, period, outside=None):
    """One application of an expansion equation on the loop [header..close]
    of ``seq``. ``stream_base`` is the stream position of seq[0]; ``period``
    is the repetition period when ``seq`` is an omega-body. ``outside`` holds
    (stream position, instruction) pairs of a preceding finite segment whose
    jumps may cross the insertion; the adjusted copy is returned alongside.
    """
    count = seq[header - 1].count
    inner = seq[header:close - 1]
    k = len(inner)
    if count == 1:
        new_seq = seq[: header - 1] + [Jump(1)] + inner + [Jump(1)] + seq[close:]
        return new_seq, [ins for _, ins in outside] if outside is not None else None
    grow = k + 2
    gap = stream_base + close  # insertion sits between close and close+1
    copy = [
        Jump(ins.distance + grow) if isinstance(ins, Jump) and i + ins.distance > k + 1 else ins
        for i, ins in enumerate(inner, 1)
    ]
    before = [
        _raise_jump(ins, stream_base + pos, gap, period, grow)
        for pos, ins in enumerate(seq[: header - 1], 1)
    ]
    after = [
        _raise_jump(ins, stream_base + pos, gap, period, grow)
        for pos, ins in enumerate(seq[close:], close + 1)
    ]
    residual = [LoopHeader(count - 1)] + inner + [LoopClose()]
    new_seq = before + [Jump(1)] + copy + [Jump(1)] + residual + after
    adjusted_outside = None
    if outside is not None:
        adjusted_outside = [
            _raise_jump(ins, src, gap, period, grow) for src, ins in outside
        ]
    return new_seq, adjusted_outside


def _leftmost_loop(seq):
    pairs, _, _ = _match_loops(seq)
    if not pairs:
        return None
    by_header = {h: c for c, h in pairs.items()}
    header = min(by_header)
    return header, by_header[header]


def _unrolled(program):
    """The pure projection by repeated expansion steps, leftmost header first
    (quadratic in the output; the body is not normalized)."""
    prefix = list(program.prefix)
    body = list(program.body or ())
    flat = prefix + body
    pairs, lonely_headers, lonely_closures = _match_loops(flat)
    plen = len(prefix)
    for close_pos, header_pos in pairs.items():
        if header_pos <= plen < close_pos:
            raise ProgramError("loop spans the repetition boundary")
    for pos in lonely_headers + lonely_closures:
        flat[pos - 1] = Jump(1)
    prefix, body = flat[:plen], flat[plen:]
    while (loop := _leftmost_loop(prefix)) is not None:
        prefix, _ = _expand_step(prefix, loop[0], loop[1], stream_base=0, period=None)
    while (loop := _leftmost_loop(body)) is not None:
        body, prefix = _expand_step(
            body, loop[0], loop[1], stream_base=len(prefix), period=len(body),
            outside=list(enumerate(prefix, 1)),
        )
    return CanonicalProgram(tuple(prefix), tuple(body) if body else None)


def _stretched(rng, program, body_limit):
    """The program with every jump distance drawn again: prefix jumps up to
    three times the program length, body jumps up to ``body_limit``."""
    def redraw(items, limit):
        return tuple(
            Jump(rng.randint(0, limit)) if isinstance(ins, Jump) else ins for ins in items
        )

    body = redraw(program.body, body_limit) if program.body else None
    return CanonicalProgram(redraw(program.prefix, 3 * len(program)), body)


def test_written_and_canonical_forms_share_one_meaning():
    # canonicalize can split a loop across the repetition boundary; the form
    # as written, its canonical form and the canonical form's pure projection
    # still give one thread
    for program in soundness_corpus():
        canonical = canonicalize(parse_program(format_program(program)))
        expected = defining_thread(program)
        assert thread_equal(defining_thread(canonical), expected), format_program(program)
        assert thread_equal(extract_pgau(project_pure(canonical)), expected)


def test_written_and_canonical_forms_share_one_loop_product():
    for program in soundness_corpus():
        canonical = canonicalize(parse_program(format_program(program)))
        assert size_report(canonical).loop_product == size_report(program).loop_product


def _sequences(alphabet, longest, shortest=1):
    return [
        seq for n in range(shortest, longest + 1) for seq in itertools.product(alphabet, repeat=n)
    ]


def test_unsplit_moves_are_bounded():
    # once no prefix header is matched later the boundary stops, so the moves
    # never exceed |body| for each prefix header, plus one period
    alphabet = (Basic(a), LoopHeader(2), LoopClose())
    for prefix in _sequences(alphabet, 4, shortest=0):
        headers = sum(isinstance(ins, LoopHeader) for ins in prefix)
        for body in _sequences(alphabet, 4):
            program = CanonicalProgram(prefix, body)
            unsplit = _unsplit_loops(program)
            moves = len(unsplit.prefix) - len(prefix)
            assert moves <= len(body) * (headers + 1), format_program(program)
            pairs, _, _ = _match_loops(unsplit.prefix + unsplit.body)
            assert all(
                h > len(unsplit.prefix) or c <= len(unsplit.prefix) for c, h in pairs.items()
            )


def _depth(instructions) -> int:
    """Loops left open after ``instructions``, matched greedily."""
    depth = 0
    for ins in instructions:
        if isinstance(ins, LoopHeader):
            depth += 1
        elif isinstance(ins, LoopClose) and depth:
            depth -= 1
    return depth


def test_unsplit_returns_its_input_when_a_period_starts_and_ends_at_depth_0():
    # then every period matches its brackets like the first, so no boundary
    # splits a loop and the program itself comes back, not a copy
    alphabet = (Basic(a), LoopHeader(2), LoopClose())
    balanced = 0
    for prefix in _sequences(alphabet, 3, shortest=0):
        for body in _sequences(alphabet, 4):
            if _depth(prefix) == 0 and _depth(body) == 0:
                program = CanonicalProgram(prefix, body)
                assert _unsplit_loops(program) is program, format_program(program)
                balanced += 1
    assert balanced == 1155
    program = parse_canonical("a;2x{;b;}x;(3x{;c;2x{;d;}x;}x;e)^w")
    assert _unsplit_loops(program) is program


def test_projections_agree_with_stream_interpreter():
    # every program with a prefix of 0-3 and a body of 1-3 instructions over
    # a, b and one loop's brackets, and with a prefix of 0-2 and a body of 4,
    # canonicalized; the stream interpreter reads the program as written
    alphabet = (Basic(a), Basic(Action("b")), LoopHeader(2), LoopClose())
    for prefix in _sequences(alphabet, 3, shortest=0):
        for body in _sequences(alphabet, 4 if len(prefix) < 3 else 3):
            program = CanonicalProgram(prefix, body)
            canonical = canonicalize(RawProgram((Part(prefix), Part(body, repeated=True))))
            defining = defining_thread(canonical)
            assert defining == extract_pga(project_pure(canonical))  # one spec, not one thread
            assert thread_equal(pi(10, defining, defining.root), stream_pi(program, 10)), (
                format_program(program)
            )


# Every program with no prefix and a body of four over {a, +b, #1..#5, 2x{,
# }x, !} on which the stream interpreter disagrees with the projections: 10
# of the 9602 well-formed ones (the sweep takes about 3.4 s, so it is not
# run here). Each jumps past the end of its body, and both projections read
# that jump modulo the body length, while the stream interpreter keeps one
# counter per loop instance (ROADMAP item 5). Pinned, so a fix on either
# side shows.
_LONG_JUMPS_THAT_DISAGREE = (
    "(a;2x{;#5;}x)^w", "(+b;2x{;#5;}x)^w", "(#5;}x;a;2x{)^w", "(#5;}x;+b;2x{)^w",
    "(#5;}x;!;2x{)^w", "(2x{;#5;}x;a)^w", "(2x{;#5;}x;+b)^w", "(2x{;#5;}x;!)^w",
    "(}x;a;2x{;#5)^w", "(}x;+b;2x{;#5)^w",
)


def test_long_jumps_in_a_repeated_body_disagree_only_with_the_stream_reading():
    for text in _LONG_JUMPS_THAT_DISAGREE:
        raw = parse_program(text)
        (part,) = raw.parts
        canonical = canonicalize(raw)
        defining = defining_thread(canonical)
        assert defining == extract_pga(project_pure(canonical)), text
        written = CanonicalProgram((), part.instructions)  # the stream reads it as written
        assert not thread_equal(pi(10, defining, defining.root), stream_pi(written, 10)), text


def test_pure_matches_unrolling_oracle_on_soundness_corpus():
    for program in soundness_corpus():
        expected = format_program(_unrolled(program))
        assert format_program(project_pure(program)) == expected, format_program(program)


def test_pure_matches_unrolling_oracle_on_nests():
    for text in _nest_texts():
        program = parse_canonical(text)
        assert project_pure(program) == _unrolled(program), text


def test_pure_matches_unrolling_oracle_with_jumps_up_to_body_length():
    rng = random.Random(5150)
    for _ in range(1500):
        program = random_pgarl(rng)
        program = _stretched(rng, program, len(program.body or ()))
        assert project_pure(program) == _unrolled(program), format_program(program)


def test_pure_matches_unrolling_oracle_on_random_programs():
    rng = random.Random(11)
    for _ in range(1000):
        program = random_pgarl(rng)
        assert project_pure(program) == _unrolled(program), format_program(program)


def test_pure_matches_unrolling_oracle_on_corpus_with_long_jumps():
    # body jumps redrawn in 0..2|body|+2; the oracle reads the body as the
    # projection does, with its jumps normalized
    rng = random.Random(12)
    for program in soundness_corpus():
        program = _stretched(rng, program, 2 * len(program.body or ()) + 2)
        body = program.body and normalize_jumps(program.body)
        normalized = dataclasses.replace(program, body=body)
        assert project_pure(program) == _unrolled(normalized), format_program(program)


def test_pure_agrees_with_defining_thread_on_long_jumps():
    # jumps longer than the repeated body: the unrolling oracle raised a jump
    # that wraps past more than one period by only one growth
    rng = random.Random(31337)
    programs = [parse_canonical("(b;3x{;#6;}x)^w"), parse_canonical("(a;3x{;a;#15;}x)^w")]
    for _ in range(600):
        program = random_pgarl(rng)
        programs.append(_stretched(rng, program, 3 * len(program)))
    for program in programs:
        assert thread_equal(
            defining_thread(program), extract_pgau(project_pure(program))
        ), format_program(program)


# -- annotate by stepping along every jump's path, its normative oracle --------

def _annotate_by_stepping(instructions, cyclic=False):
    """Annotation by its definition: a jump collects the closures it crosses
    by stepping through every position on its path."""
    items = list(instructions)
    n = len(items)
    pairs, _, lonely_closures = _match_loops(items)
    for pos, header_pos in pairs.items():
        items[pos - 1] = AnnClose(items[header_pos - 1].count - 1, pos - header_pos - 1)
    for pos in lonely_closures:
        items[pos - 1] = AnnClose(0, 0)
    closures = {pos: ins.remaining for pos, ins in enumerate(items, 1) if isinstance(ins, AnnClose)}
    if closures:
        for pos, ins in enumerate(items, 1):
            if not isinstance(ins, Jump) or ins.distance <= 1:
                continue
            crossed = {}
            for x in range(pos + 1, pos + ins.distance):
                if cyclic:
                    j = ((x - 1) % n) + 1
                elif x > n:
                    break
                else:
                    j = x
                if j in closures:
                    crossed[j] = closures[j]
            if crossed:
                items[pos - 1] = AnnJump(ins.distance, tuple(sorted(crossed.items())))
    return tuple(items)


def _deep_segment(rng, budget, depth=0):
    """Instructions with loops nested up to 4 deep, some lonely brackets, and
    jumps mostly short, some up to 10^6 + 3."""
    out = []
    while len(out) < budget:
        roll = rng.random()
        if depth < 4 and budget - len(out) >= 3 and roll < 0.3:
            inner = _deep_segment(rng, rng.randint(1, min(budget - len(out) - 2, 6)), depth + 1)
            out += [LoopHeader(rng.randint(1, 4))] + inner + [LoopClose()]
        elif roll < 0.34:
            out.append(rng.choice((LoopHeader(rng.randint(1, 3)), LoopClose())))
        elif roll < 0.6:
            out.append(Basic(Action(rng.choice("abcd"))))
        elif roll < 0.7:
            out.append(rng.choice((PosTest, NegTest))(Action(rng.choice("abcd"))))
        elif roll < 0.74:
            out.append(HALT)
        else:
            spread = rng.random()
            if spread < 0.6:
                out.append(Jump(rng.randint(0, 14)))
            elif spread < 0.97:
                out.append(Jump(int(10 ** rng.uniform(1, 5))))
            else:
                out.append(Jump(10**6 + rng.randint(0, 3)))
    return out


def _deep_programs(count, seed):
    """Random prefix-only, body-only and mixed programs from _deep_segment,
    with no test right before a closure, so both projections accept them."""
    rng = random.Random(seed)
    programs = []
    while len(programs) < count:
        shape = rng.choice(("omega", "finite", "mixed"))
        prefix = () if shape == "omega" else tuple(_deep_segment(rng, rng.randint(1, 10)))
        body = None if shape == "finite" else tuple(_deep_segment(rng, rng.randint(1, 12)))
        program = CanonicalProgram(prefix, body)
        if not any(d.severity == "error" for d in validate_pgarl(program)):
            programs.append(program)
    return programs


def test_annotate_matches_stepping_oracle():
    for program in soundness_corpus() + tuple(_deep_programs(400, 1059)):
        for part, cyclic in ((program.prefix, False), (program.body, True)):
            if part:
                assert annotate(part, cyclic) == _annotate_by_stepping(part, cyclic), (
                    format_program(program)
                )


def test_size_report_pure_len_is_closed_form():
    for program in soundness_corpus():
        assert size_report(program).pure_len == len(project_pure(program))


# -- sizes ---------------------------------------------------------------------

def test_size_report_loop_free():
    report = size_report(parse_canonical("a;b;(c)^w"))
    assert report.source_len == report.pure_len == report.counter_len == 3
    assert report.loop_product == 1


def test_size_report_nested_family():
    sizes = {}
    for n in (2, 4, 8):
        program = parse_canonical(f"({n}x{{;{n}x{{;a;}}x;}}x)^w")
        sizes[n] = size_report(program)
    assert sizes[8].pure_len / sizes[2].pure_len >= 10
    assert sizes[8].counter_len == sizes[2].counter_len
    assert sizes[2].loop_product == 4 and sizes[8].loop_product == 64
    assert sizes[2].pure_len == 16 and sizes[8].pure_len == 208


def _largest_chain_product(source):
    """The loop product by its definition: the largest product of the counts
    along one chain of nested loops, a loop and the loops that enclose it."""
    loops = [(header, closure) for closure, header in _match_loops(source)[0].items()]
    return max((math.prod(source[h - 1].count for h, c in loops if h <= inner < c)
                for inner, _ in loops), default=1)


def test_loop_product_is_the_largest_product_along_one_nesting_chain():
    rng = random.Random(11)
    many_prefix_loops = "2x{;" * 200 + "(}x;" + "a;" * 198 + "a)^w"
    programs = [
        *soundness_corpus(),
        *(random_pgarl(rng) for _ in range(400)),
        *(parse_canonical(f"({n}x{{;{n}x{{;a;}}x;}}x)^w") for n in (2, 4, 8)),
        parse_canonical(many_prefix_loops),
    ]
    for program in programs:
        expected = _largest_chain_product(rigidloops._pure_layout(program)[0])
        assert size_report(program).loop_product == expected, format_program(program)
    assert expected == 2**200


def test_size_counter_projection_bound():
    rng = random.Random(17)
    for _ in range(100):
        program = random_pgarl(rng)
        flat = list(program.prefix) + list(program.body or ())
        closures = sum(isinstance(x, AnnClose) for x in annotate(flat))
        report = size_report(program)
        # init prefix adds one instruction per closure; the wrapped shapes add
        # at most four more slots (two cap jumps, two wrap-back jumps)
        assert report.counter_len <= report.source_len + closures + 4


def test_size_counter_projection_expanded_bound():
    # linear-growth bound on the fully expanded output: five slots per
    # closure unit, one reset slot per crossed closure per annotated jump,
    # one init instruction per closure
    rng = random.Random(18)
    for _ in range(150):
        program = random_pgarl(rng, shape="omega")
        annotated = annotate(program.body, cyclic=True)
        closures = sum(isinstance(x, AnnClose) for x in annotated)
        ann_jumps = [x for x in annotated if isinstance(x, AnnJump)]
        max_resets = max((len(x.resets) for x in ann_jumps), default=0)
        report = size_report(program)
        bound = (
            report.source_len
            + 5 * closures
            + len(ann_jumps) * (max_resets + 1)
            + closures
        )
        assert report.counter_len_expanded <= bound


# -- the soundness theorem at desk scale ----------------------------------------

def test_soundness_random_mini_corpus():
    rng = random.Random(424242)
    for _ in range(120):
        program = random_pgarl(rng)
        assert thread_equal(
            defining_thread(program), extract_pga(project_pure(program))
        ), format_program(program)


# -- the spec-identity law: both routes number one spec, equation for equation --

def _check_one_spec(program):
    pure_route = explore(*bound_states(project(program, "pure")))
    assert defining_thread(program) == pure_route, format_program(program)


def test_routes_number_one_spec_on_soundness_corpus():
    for program in soundness_corpus():
        _check_one_spec(program)


def test_routes_number_one_spec_on_random_programs():
    rng = random.Random(11)
    for _ in range(400):
        _check_one_spec(random_pgarl(rng))


@pytest.mark.parametrize("n", [4, 8, 16])
def test_routes_number_one_spec_on_nests(n):
    _check_one_spec(parse_canonical(f"({n}x{{;{n}x{{;a;}}x;b;}}x)^w"))
