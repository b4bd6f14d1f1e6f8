import gc
import random
import tracemalloc

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pgarl import (
    Action,
    AnnClose,
    AnnJump,
    Basic,
    BranchRef,
    CanonicalProgram,
    DEADLOCK,
    HALT,
    Halt,
    Jump,
    LinearSpec,
    LoopClose,
    LoopHeader,
    NegTest,
    PosTest,
    ProgramError,
    STOP,
    Unit,
    behav_equiv,
    distinguish,
    extract_pga,
    extract_pgau,
    format_program,
    format_spec,
    has_units,
    parse_canonical,
    pgau2pga,
    project_counter,
    project_pure,
    synthesize,
    thread_equal,
)
from pgarl.parser import UNIT_NESTING_LIMIT
from pgarl.program import program_instructions
from pgarl.extraction import _table_states
from pgarl.threads import _spec_states, explore, first_difference

from genprograms import lin, random_pga, random_spec, soundness_corpus

a, b, c, d, e = (Action(n) for n in "abcde")


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


def test_synthesize_deadlock_is_a_jump_to_itself():
    assert format_program(synthesize(lin(DEADLOCK))) == "#0"


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


@settings(max_examples=200)
@given(st.integers(min_value=0, max_value=2**32))
def test_behav_equiv_walk_matches_comparing_extracted_threads(seed):
    # the two tables are walked as state spaces; the oracle numbers both first
    rng = random.Random(seed)
    p, q = canonical(rng), canonical(rng)
    for x, y in ((p, q), (q, p), (p, p)):
        assert behav_equiv(x, y) == thread_equal(extract_pgau(x), extract_pgau(y))


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


# -- the flat table against the position walker, its normative oracle ----------

def _oracle_reject_rigid(program):
    for ins in program_instructions(program):
        if isinstance(ins, (LoopHeader, LoopClose, AnnClose, AnnJump)):
            raise ProgramError(
                "cannot extract a program containing rigid loop or annotated "
                "instructions; project it first"
            )


class _OracleWalker:
    """Position arithmetic over a canonical program, unit-aware.

    A position is (outer, path): the 1-based outer slot (prefix then body,
    wrapping inside the body) plus offsets into nested unit bodies.
    """

    def __init__(self, program):
        self.prefix = program.prefix
        self.body = program.body or ()
        self.plen = len(self.prefix)
        self.blen = len(self.body)

    def outer_norm(self, p):
        if p <= self.plen:
            return p
        if self.blen:
            return self.plen + ((p - self.plen - 1) % self.blen) + 1
        return None

    def outer_instruction(self, p):
        if p <= self.plen:
            return self.prefix[p - 1]
        return self.body[p - self.plen - 1]

    def at(self, pos):
        ins = self.outer_instruction(pos[0])
        for off in pos[1]:
            assert isinstance(ins, Unit)
            ins = ins.body[off - 1]
        return ins

    def _enter(self, pos):
        outer, path = pos
        ins = self.at(pos)
        while isinstance(ins, Unit):
            path = path + (1,)
            ins = ins.body[0]
        return (outer, path)

    def start(self):
        first = self.outer_norm(1)
        if first is None:
            return None
        return self._enter((first, ()))

    def advance(self, pos, distance):
        outer, path = pos
        if distance == 0:
            return pos
        chain = []
        ins = self.outer_instruction(outer)
        for off in path:
            chain.append(ins.body)
            ins = ins.body[off - 1]
        offsets = list(path)
        while offsets:
            containing = chain[len(offsets) - 1]
            remaining = len(containing) - offsets[-1]
            if distance <= remaining:
                offsets[-1] += distance
                return self._enter((outer, tuple(offsets)))
            distance -= remaining
            offsets.pop()
        landing = self.outer_norm(outer + distance)
        if landing is None:
            return None
        return self._enter((landing, ()))

    def resolve(self, pos):
        seen = set()
        while True:
            if pos is None or pos in seen:
                return DEADLOCK
            seen.add(pos)
            ins = self.at(pos)
            if isinstance(ins, Halt):
                return STOP
            if isinstance(ins, Jump):
                if ins.distance == 0:
                    return DEADLOCK
                pos = self.advance(pos, ins.distance)
                continue
            return pos


def _oracle_step(walker, pos):
    """The branch the action instruction at ``pos`` performs, its targets
    resolved by the walker."""
    ins = walker.at(pos)
    after = walker.resolve(walker.advance(pos, 1))
    if isinstance(ins, Basic):
        return ins.action, after, after
    skip = walker.resolve(walker.advance(pos, 2))
    if isinstance(ins, PosTest):
        return ins.action, after, skip
    if isinstance(ins, NegTest):
        return ins.action, skip, after
    raise AssertionError(f"unresolved instruction {ins!r}")


def _oracle_extract(program, allow_units):
    _oracle_reject_rigid(program)
    if not allow_units and has_units(program):
        raise ProgramError("program contains unit instructions; use the unit-aware extraction")
    if len(program) == 0:
        return LinearSpec((DEADLOCK,), 1)
    walker = _OracleWalker(program)
    return explore(walker.resolve(walker.start()), lambda pos: _oracle_step(walker, pos))


def _outcome(extract, program):
    """The formatted thread, or the error's type and message."""
    try:
        return format_spec(extract(program))
    except ProgramError as exc:
        return type(exc).__name__, str(exc)


def _assert_matches_walker(program):
    assert _outcome(extract_pgau, program) == _outcome(
        lambda p: _oracle_extract(p, allow_units=True), program
    ), format_program(program)
    assert _outcome(extract_pga, program) == _outcome(
        lambda p: _oracle_extract(p, allow_units=False), program
    ), format_program(program)


def test_flat_table_matches_walker_on_soundness_corpus():
    for program in soundness_corpus():
        _assert_matches_walker(program)
        _assert_matches_walker(project_counter(program).program)
        _assert_matches_walker(project_pure(program))


def test_flat_table_matches_walker_on_random_pga():
    rng = random.Random(5)
    for _ in range(2000):
        _assert_matches_walker(canonical(rng))


_ACTIONS = (Basic(a), Basic(b), Basic(c), PosTest(a), PosTest(b), NegTest(a), NegTest(b))
_ANNOTATED = (AnnClose(1, 2), AnnJump(3, ((2, 1),)))  # units may hold these
_BRACKETS = (LoopHeader(2), LoopClose())  # but not these


def _plain(rng, rigid=()):
    """A jump (one in four, reaching up to 12 ahead), a halt, an action, or
    now and then one of ``rigid``."""
    roll = rng.random()
    if roll < 0.25:
        return Jump(rng.randint(0, 12))
    if roll < 0.3:
        return HALT
    if rigid and roll < 0.35:
        return rng.choice(rigid)
    return rng.choice(_ACTIONS)


def _random_unit(rng, depth, rigid=()):
    """A unit nested ``depth`` deep, with a few instructions around each level."""
    def fill(low, high):
        return tuple(_plain(rng, rigid) for _ in range(rng.randint(low, high)))

    unit = Unit(fill(1, 3))
    for _ in range(depth - 1):
        unit = Unit(fill(0, 2) + (unit,) + fill(0, 2))
    return unit


@st.composite
def _unit_programs(draw):
    """Prefix-only, body-only and mixed programs of plain instructions and
    units nested up to ``UNIT_NESTING_LIMIT`` deep, with jumps reaching past
    the end; one in ten also has rigid and annotated ones, to compare the
    errors."""
    rng = random.Random(draw(st.integers(min_value=0, max_value=2**32)))
    inner = _ANNOTATED if rng.random() < 0.1 else ()
    outer = inner + _BRACKETS if inner else ()
    depths = st.integers(min_value=1, max_value=UNIT_NESTING_LIMIT)

    def items(min_size):
        count = draw(st.integers(min_value=min_size, max_value=6))
        return tuple(
            _random_unit(rng, draw(depths), inner) if rng.random() < 0.3 else _plain(rng, outer)
            for _ in range(count)
        )

    shape = draw(st.sampled_from(("prefix", "body", "mixed")))
    prefix = () if shape == "body" else items(0)
    body = None if shape == "prefix" else items(1)
    return CanonicalProgram(prefix, body)


@settings(max_examples=400, deadline=None)
@given(_unit_programs())
def test_flat_table_matches_walker_on_nested_units(program):
    _assert_matches_walker(program)


def _program_order(walker):
    """The walker position of every executable instruction, in program
    order with units descended into: the table's entry numbers."""
    positions = []

    def descend(outer, path, ins):
        if isinstance(ins, Unit):
            for offset, inner in enumerate(ins.body, 1):
                descend(outer, path + (offset,), inner)
        else:
            positions.append((outer, path))

    for outer in range(1, walker.plen + walker.blen + 1):
        descend(outer, (), walker.outer_instruction(outer))
    return positions


def _assert_steps_match_walker(program, rng):
    """Every action entry's step in the table, unreachable ones too, taken
    in a random order, equals the walker's step at its position."""
    try:
        _oracle_reject_rigid(program)
    except ProgramError:
        with pytest.raises(ProgramError):
            _table_states(program)
        return
    walker = _OracleWalker(program)
    positions = _program_order(walker)
    entry = {pos: i for i, pos in enumerate(positions)}

    def number(target):
        return target if target is STOP or target is DEADLOCK else entry[target]

    root, successors = _table_states(program)
    start = walker.start()
    assert root == (DEADLOCK if start is None else number(walker.resolve(start)))
    actions = [i for i, pos in enumerate(positions)
               if isinstance(walker.at(pos), (Basic, PosTest, NegTest))]
    rng.shuffle(actions)
    for i in actions:
        action, yes, no = _oracle_step(walker, positions[i])
        assert successors(i) == (action, number(yes), number(no)), (format_program(program), i)


# jumps into a unit (landing on its slot), out of one and of several nested
# ones, across them, and back round a repeated body through them
_UNIT_JUMP_PROGRAMS = (
    "#2;a;u(+b;c);d;!",
    "+a;#2;u(b;u(c;#3;d);e);f;!",
    "u(-a;#4;u(#2;b;u(c;#6)));d;e;!",
    "#3;u(a;u(b;c));u(d);e",
    "(+a;u(#2;b;u(c;#5));d;#2;e)^w",
    "u(#3;u(a;#9);b);(c;u(#4;d;u(+e;#2));f)^w",
)


def test_table_steps_match_walker_on_soundness_corpus():
    rng = random.Random(20260808)  # the order in which each program's steps are checked
    for program in soundness_corpus():
        _assert_steps_match_walker(project_counter(program).program, rng)
        _assert_steps_match_walker(project_pure(program), rng)


def test_table_steps_match_walker_on_jumps_through_units():
    rng = random.Random(7)
    for text in _UNIT_JUMP_PROGRAMS:
        _assert_steps_match_walker(parse_canonical(text), rng)


@settings(max_examples=300, deadline=None)
@given(_unit_programs(), st.randoms(use_true_random=False))
def test_table_steps_match_walker_on_nested_units(program, rng):
    _assert_steps_match_walker(program, rng)


def test_table_is_stepped_only_where_a_walk_goes():
    # an unequal pair stops at its first difference, having stepped only the
    # table states on the way there, out of about 120000 entries
    program = project_pure(parse_canonical("(200x{;200x{;a;}x;c;}x)^w"))
    for k in (0, 3, 10):
        reference = lin(*(BranchRef(i + 2, a, i + 2) for i in range(k)), BranchRef(k + 1, b, k + 1))
        root, successors = _table_states(program)
        stepped = []

        def counted(i, successors=successors):
            stepped.append(i)
            return successors(i)

        witness = first_difference((root, counted), _spec_states(reference), False)
        assert witness is not None and len(witness.steps) == k
        assert len(stepped) == k + 1


def test_table_lays_out_a_unit_free_program_without_a_record_per_entry():
    # the 751500-entry pure projection of a 500 x 500 nest: the unit-free
    # sequence is the table as it stands, so what the layout keeps is the one
    # resolution slot per entry (8 bytes each), well under the 110 bytes per
    # entry of a layout that records every entry's level, slot and class
    program = project_pure(parse_canonical("(500x{;500x{;a;}x;c;}x)^w"))
    tracemalloc.start()
    try:
        space = _table_states(program)
        kept, _ = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(program) == 751500 and space[0] == 2  # the first a
    assert kept < 24 * 2**20


def test_extraction_leaves_no_garbage_cycles():
    # the table is freed by reference counting alone, so repeated calls on
    # large programs do not pile up until a collection
    pure = project_pure(parse_canonical("(24x{;24x{;a;}x;b;}x)^w"))
    counter = project_counter(parse_canonical("(3x{;a;b;4x{;c;}x;d;}x;e)^w")).program
    gc.collect()
    gc.disable()
    try:
        for _ in range(20):
            extract_pgau(pure)
            extract_pgau(counter)
        assert gc.collect() == 0
    finally:
        gc.enable()
