import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pgarl import (
    Action,
    Basic,
    BranchRef,
    CanonicalProgram,
    DEADLOCK,
    HALT,
    Jump,
    LinearSpec,
    ProgramError,
    STOP,
    Unit,
    behav_equiv,
    distinguish,
    extract_pga,
    extract_pgau,
    format_program,
    has_units,
    parse_canonical,
    pgau2pga,
    synthesize,
    thread_equal,
)

from genprograms import random_pga, random_spec

a, b, c, d, e = (Action(n) for n in "abcde")


def lin(*eqs, root=1):
    return LinearSpec(tuple(eqs), root)


# -- thread extraction conformance (the four worked examples) ------------------

def test_extract_jump_zero_loop():
    assert thread_equal(extract_pga(parse_canonical("(#0)^w")), lin(DEADLOCK))


def test_extract_negative_test_chain():
    # -a;b;c: on true continue at c, on false at b;c; everything ends deadlocked
    spec = extract_pga(parse_canonical("-a;b;c"))
    expected = lin(
        BranchRef(2, a, 3),
        BranchRef(4, c, 4),
        BranchRef(2, b, 2),
        DEADLOCK,
    )
    assert thread_equal(spec, expected)


def test_extract_five_instruction_repetition():
    spec = extract_pga(parse_canonical("(a;+b;#3;-b;#4)^w"))
    expected = lin(
        BranchRef(2, a, 2),
        BranchRef(1, b, 3),
        BranchRef(1, b, 3),
    )
    assert thread_equal(spec, expected)


def test_extract_jump_cycle_is_deadlock():
    assert thread_equal(extract_pga(parse_canonical("(#2;a)^w")), lin(DEADLOCK))


def test_extract_out_of_range_jump_deadlocks():
    assert thread_equal(extract_pga(parse_canonical("#4;a")), lin(DEADLOCK))


def test_extract_halt_discards_rest():
    assert thread_equal(extract_pga(parse_canonical("!;a;b")), lin(STOP))


def test_extract_rejects_units():
    with pytest.raises(ProgramError):
        extract_pga(parse_canonical("u(a);b"))


def test_extract_rejects_rigid_instructions():
    with pytest.raises(ProgramError):
        extract_pgau(parse_canonical("3x{;a;}x"))


def test_equation_count_bound():
    rng = random.Random(99)
    for _ in range(200):
        program = parse_canonical(format_program(canonical(rng)))
        spec = extract_pga(program)
        assert len(spec.equations) <= len(program) + 1


def canonical(rng):
    from pgarl import canonicalize

    return canonicalize(random_pga(rng))


# -- unit-aware extraction ----------------------------------------------------

def test_unit_jump_out_example():
    # jumps out of a unit count the remaining inner instructions one by one
    left = parse_canonical("+a;#3;u(+b;#3;c);d;e")
    right = parse_canonical("+a;#5;+b;#3;c;d;e")
    assert behav_equiv(left, right)
    expected = lin(
        BranchRef(2, a, 3),
        BranchRef(5, e, 5),  # |e|
        BranchRef(2, b, 4),  # <b>
        BranchRef(6, c, 6),  # c;d;e
        DEADLOCK,
        BranchRef(7, d, 7),
        BranchRef(5, e, 5),
    )
    assert thread_equal(extract_pgau(left), expected)


def test_unit_transparent_without_jumps():
    spec = extract_pgau(parse_canonical("u(a;b);!"))
    expected = lin(BranchRef(2, a, 2), BranchRef(3, b, 3), STOP)
    assert thread_equal(spec, expected)


def test_unit_entered_at_first_instruction():
    spec = extract_pgau(parse_canonical("+a;u(b;c);d"))
    expected = lin(
        BranchRef(2, a, 5),
        BranchRef(3, b, 3),
        BranchRef(4, c, 4),
        BranchRef(6, d, 6),
        BranchRef(6, d, 6),
        DEADLOCK,
    )
    assert thread_equal(spec, expected)


def test_unit_omega_equivalent_form():
    # the unit-with-infinite-body behavior b^w <a> |c| via its plain form
    program = parse_canonical("+a;(#2;#3;b;#3;c;#0)^w")
    expected = lin(
        BranchRef(2, a, 3),
        BranchRef(2, b, 2),
        BranchRef(4, c, 4),
        DEADLOCK,
    )
    assert thread_equal(extract_pga(program), expected)


def test_nested_units_count_as_single_instructions():
    # jump of 2 from inside the outer unit: one remaining inner slot (the
    # nested unit), then one outer slot
    program = parse_canonical("u(#2;u(x;y));z;!")
    spec = extract_pgau(program)
    expected = lin(BranchRef(2, Action("z"), 2), STOP)
    assert thread_equal(spec, expected)


# -- synthesis ----------------------------------------------------------------

def test_synthesize_typical_layout():
    spec = lin(
        BranchRef(2, a, 2),
        BranchRef(3, b, 1),
        DEADLOCK,
    )
    assert format_program(synthesize(spec)) == "(+a;#2;#1;+b;#2;#2;#0)^w"


def test_synthesize_stop_is_halt():
    assert format_program(synthesize(lin(STOP))) == "!"


def test_synthesize_action_loop():
    program = synthesize(lin(BranchRef(1, a, 1)))
    assert format_program(program) == "(+a;#2;#1)^w"
    assert thread_equal(extract_pga(program), lin(BranchRef(1, a, 1)))


def test_synthesize_nonfirst_root_uses_prefix_jump():
    spec = lin(STOP, BranchRef(1, a, 2), root=2)
    program = synthesize(spec)
    assert program.prefix == (Jump(2),)
    assert thread_equal(extract_pga(program), spec)


@given(st.integers(min_value=0, max_value=2**32))
@settings(max_examples=500)
def test_synthesize_round_trip(seed):
    spec = random_spec(random.Random(seed))
    assert thread_equal(extract_pga(synthesize(spec)), spec)


# -- behavioral equivalence ---------------------------------------------------

def test_jump_zero_equivalent_jump_one_alone():
    assert behav_equiv(parse_canonical("#0"), parse_canonical("#1"))


def test_equivalence_not_a_congruence():
    left = parse_canonical("#0;a")
    right = parse_canonical("#1;a")
    assert not behav_equiv(left, right)
    witness = distinguish(extract_pgau(left), extract_pgau(right))
    assert witness is not None and witness.reason == "D vs action a"


@pytest.mark.filterwarnings("ignore::pgarl.DeadCodeWarning")
@given(st.integers(min_value=0, max_value=2**32))
@settings(max_examples=500)
def test_canonicalization_preserves_behavior(seed):
    # a program in raw prefix/body shape (before minimal-period reduction and
    # rotation absorption) behaves exactly like its canonical form
    from pgarl import canonicalize

    raw = random_pga(random.Random(seed))
    prefix, body = [], None
    for part in raw.parts:
        if part.repeated:
            body = part.instructions
            break
        prefix.extend(part.instructions)
    unnormalized = CanonicalProgram(tuple(prefix), body)
    assert behav_equiv(unnormalized, canonicalize(raw))


# -- unit elimination ---------------------------------------------------------

def test_pgau2pga_preserves_behavior():
    program = parse_canonical("+a;#3;u(+b;#3;c);d;e")
    flattened = pgau2pga(program)
    assert not has_units(flattened)
    assert behav_equiv(program, flattened)
    assert behav_equiv(flattened, parse_canonical("+a;#5;+b;#3;c;d;e"))


def test_pgau2pga_identity_without_units():
    program = parse_canonical("+a;#2;!")
    assert pgau2pga(program) is program


def test_toolset_footnote_vectors():
    # jump-optimized outputs for the two unit examples
    first = parse_canonical("+a;(#2;#3;b;#5;c;#0)^w")
    assert behav_equiv(first, parse_canonical("+a;(#2;#3;b;#3;c;#0)^w"))
    second = parse_canonical("+a;(#5;+b;#3;c;d;e;#0)^w")
    assert behav_equiv(second, parse_canonical("+a;#3;u(+b;#3;c);d;e"))


def _splice_unit(program: CanonicalProgram) -> CanonicalProgram:
    """Inline every unit body, raising outer jumps that pass over it."""
    assert program.body is None
    out = list(program.prefix)
    while True:
        at = next((i for i, ins in enumerate(out) if isinstance(ins, Unit)), None)
        if at is None:
            return CanonicalProgram(tuple(out), None)
        unit = out[at]
        grow = len(unit.body) - 1
        adjusted = []
        for pos, ins in enumerate(out, 1):
            if isinstance(ins, Jump) and pos != at + 1:
                if pos <= at and pos + ins.distance > at + 1:
                    ins = Jump(ins.distance + grow)
            adjusted.append(ins)
        out = adjusted[:at] + list(unit.body) + adjusted[at + 1 :]


@settings(max_examples=200)
@given(st.integers(min_value=0, max_value=2**32))
def test_unit_inlining_coherence(seed):
    # units with no jumps entering or leaving them behave like their spliced body
    rng = random.Random(seed)
    base = [Basic(rng.choice((a, b, c))) for _ in range(rng.randint(0, 4))]
    inner = tuple(Basic(rng.choice((d, e))) for _ in range(rng.randint(1, 3)))
    at = rng.randint(0, len(base))
    tail = [Basic(rng.choice((a, b))) for _ in range(rng.randint(0, 3))] + [HALT]
    with_unit = CanonicalProgram(tuple(base[:at] + [Unit(inner)] + base[at:] + tail), None)
    spliced = _splice_unit(with_unit)
    assert thread_equal(extract_pgau(with_unit), extract_pga(spliced))
