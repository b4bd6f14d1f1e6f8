import enum
import random
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pgarl import (
    AnnClose,
    AnnJump,
    Basic,
    BranchRef,
    CanonicalProgram,
    DeadCodeWarning,
    HALT,
    Action,
    Jump,
    LinearSpec,
    LoopHeader,
    LoopClose,
    NegTest,
    ParseError,
    Part,
    PosTest,
    ProgramError,
    RawProgram,
    SpecError,
    Unit,
    canonicalize,
    congruent,
    extract_pga,
    format_program,
    normalize_jumps,
    parse_action,
    parse_canonical,
    parse_program,
    pi,
    refines,
    thread_equal,
)
from pgarl.program import UNIT_NESTING_LIMIT, Instruction, format_instruction

from genprograms import random_pga, rewrite_with_axioms

a = Action("a")
b = Action("b")


def seq(*names):
    return tuple(Basic(Action(n)) for n in names)


# -- parsing ------------------------------------------------------------------

def test_parse_three_instructions():
    raw = parse_program("+a;#2;!")
    assert raw.parts == (Part((PosTest(a), Jump(2), HALT)),)


def test_parse_repetition():
    raw = parse_program("(a;+b;#3;-b;#4)^w")
    (part,) = raw.parts
    assert part.repeated and len(part.instructions) == 5


def test_parse_rigid_loop():
    raw = parse_program("3x{;a;}x")
    assert raw.parts[0].instructions == (LoopHeader(3), Basic(a), LoopClose())


def test_parse_focus_with_suffix():
    action = parse_action("rlc:5.set:1")
    assert action == Action("set", focus="rlc:5", argument=1)
    assert str(action) == "rlc:5.set:1"


def test_parse_annotated_instructions():
    raw = parse_program("#4(7,3)(9,2);2}x7")
    assert raw.parts[0].instructions == (AnnJump(4, ((7, 3), (9, 2))), AnnClose(2, 7))


def test_parse_unit():
    raw = parse_program("u(+b;#3;c)")
    (part,) = raw.parts
    assert part.instructions == (Unit((PosTest(b), Jump(3), Basic(Action("c")))),)


def test_parse_whitespace_insensitive():
    assert parse_program(" +a ; #2 ; ! ") == parse_program("+a;#2;!")


# the messages of parse errors that no other test reaches
PINNED_PARSE_ERRORS = {
    "a;}y": "expected 'x' after '}' at line 1, column 4",
    "a;3}y2": "expected 'x' after '}' at line 1, column 5",
    "a;": "trailing ';' at line 1, column 3",
}


@pytest.mark.parametrize(
    "bad",
    [
        "",
        "(a;b",
        "a;;b",
        "0x{;a;}x",
        "}x7",
        "#x",
        "u(3x{;a;}x)",
        "a;(b)^",
        "set:1",
        "3y{",
        "#\u00b2",
        "#\u0663;a",
        "(+c: 7.dec;!;a)^w",
        "c:7. dec",
        "c:7.dec: 3",
        "c:.dec",
        "c: 7.dec",
        "+c:.dec",
        "a;}y",
        "a;3}y2",
        "a;",
        "-c.\tdec",
        "_a",
        "c._d",
    ],
)
def test_parse_errors(bad):
    with pytest.raises(ParseError) as info:
        parse_program(bad)
    assert str(info.value).count(" at line ") == 1
    if bad in PINNED_PARSE_ERRORS:
        assert str(info.value) == PINNED_PARSE_ERRORS[bad]


# one input for each message the parser can raise, with its line and column
# (the last entry is read by parse_action, every other by parse_program)
EVERY_PARSE_ERROR = [
    ("#2(1", "expected ',' at line 1, column 5"),
    ("#2(1,3", "expected ')' at line 1, column 7"),
    ("a b", "expected ';' at line 1, column 3"),
    ("3}x", "expected a number at line 1, column 4"),
    ("+3", "expected an identifier at line 1, column 2"),
    ("#" + "9" * 5000, "number too long at line 1, column 2"),
    ("set:1", "an action argument requires a focus.method action at line 1, column 4"),
    ("c: 1.dec", "whitespace inside an action at line 1, column 3"),
    ("a;\n }", "expected 'x' after '}' at line 2, column 3"),
    ("a;\n0x{", "loop count must be positive at line 2, column 1"),
    ("2 x {", "expected 'x{' or '}x' after a number at line 1, column 1"),
    ("u(" * 101 + "a" + ")" * 101, "units nested more than 100 deep at line 1, column 201"),
    ("u(2x{;a;}x)", "rigid loop instructions are not allowed inside a unit at line 1, column 1"),
    ("u()", "expected an instruction at line 1, column 3"),
    ("(a b)^w", "expected ';' or ')' at line 1, column 4"),
    ("(a) ^w", "expected '^w' after ')' at line 1, column 4"),
    ("a;\n", "trailing ';' at line 2, column 1"),
    (" a b", "unexpected input after action at line 1, column 4"),
]


@pytest.mark.parametrize("text, message", EVERY_PARSE_ERROR,
                         ids=[message.split(" at line")[0] for _, message in EVERY_PARSE_ERROR])
def test_every_parse_error_message(text, message):
    parse = parse_action if message.startswith("unexpected input after action") else parse_program
    with pytest.raises(ParseError) as info:
        parse(text)
    assert str(info.value) == message


@pytest.mark.parametrize("parse", [parse_program, parse_action])
@pytest.mark.parametrize("text", ["c: 7.dec", "c: x", "c. 7", "c: 7 x", "c:7.dec: "])
def test_whitespace_inside_an_action_is_reported_where_it_stands(parse, text):
    # whatever follows the whitespace
    with pytest.raises(ParseError) as info:
        parse(text)
    assert str(info.value) == f"whitespace inside an action at line 1, column {text.index(' ') + 1}"


def test_parse_error_reports_position():
    with pytest.raises(ParseError) as info:
        parse_program("a;\n0x{")
    assert info.value.line == 2


def test_parser_accepts_dead_code_after_repetition():
    raw = parse_program("(a)^w;b")
    assert len(raw.parts) == 2
    with pytest.warns(DeadCodeWarning):
        assert canonicalize(raw) == CanonicalProgram((), seq("a"))


# -- canonical forms ----------------------------------------------------------

def test_minimal_period():
    assert parse_canonical("(a;a)^w") == CanonicalProgram((), seq("a"))


def test_truncate_after_repetition():
    with pytest.warns(DeadCodeWarning):
        assert parse_canonical("(a)^w;b") == parse_canonical("(a)^w")


def test_rotation_absorption():
    assert parse_canonical("a;(b;a)^w") == CanonicalProgram((), seq("a", "b"))


def _absorb_one_by_one(raw):
    """The rotation rule one step at a time: while the prefix's last
    instruction equals the body's last, drop it and rotate the body right."""
    prefix = [ins for part in raw.parts[:-1] for ins in part.instructions]
    body = list(canonicalize(RawProgram(raw.parts[-1:])).body)
    while prefix and prefix[-1] == body[-1]:
        prefix.pop()
        body = [body[-1]] + body[:-1]
    return CanonicalProgram(tuple(prefix), tuple(body))


def test_absorption_matches_one_step_rotations():
    rng = random.Random(20260808)
    names = ("a", "b", "c")
    for _ in range(5000):
        period = [Basic(Action(rng.choice(names))) for _ in range(rng.randint(1, 5))]
        body = period * rng.randint(1, 3)
        tail = (period * 4)[rng.randint(0, 4 * len(period)):]
        prefix = [Basic(Action(rng.choice(names))) for _ in range(rng.randint(0, 3))] + tail
        raw = RawProgram((Part(tuple(prefix)), Part(tuple(body), repeated=True)))
        assert canonicalize(raw) == _absorb_one_by_one(raw)


def test_long_absorption_takes_no_time():
    # X;(X)^w with 100000 distinct instructions is absorbed whole, one rotation at most
    x = tuple(Basic(Action(f"a{i}")) for i in range(100000))
    raw = RawProgram((Part(x), Part(x, repeated=True)))
    start = time.perf_counter()
    form = canonicalize(raw)
    took = time.perf_counter() - start
    assert form == CanonicalProgram((), x) and took < 2


def test_long_program_parses_in_no_time_into_one_object_per_instruction():
    # the three distinct instructions of 200001 are three objects
    text = "+a;b;" * 100000 + "!"
    start = time.perf_counter()
    raw = parse_program(text)
    took = time.perf_counter() - start
    (part,) = raw.parts
    assert len(part.instructions) == 200001 and took < 2
    assert len({id(ins) for ins in part.instructions}) == 3


def test_canonical_finite_program_unchanged():
    assert parse_canonical("+a;#2;!") == CanonicalProgram((PosTest(a), Jump(2), HALT), None)


def test_congruent_unfolding():
    assert congruent(parse_program("(a;b)^w"), parse_program("a;b;(a;b)^w"))


def test_congruent_distinguishes_instructions():
    assert not congruent(parse_program("#0"), parse_program("#1"))


def test_congruent_rotated_bodies_differ():
    assert not congruent(parse_program("(a;b)^w"), parse_program("(b;a)^w"))


# -- guards -------------------------------------------------------------------

_DANGLING = LinearSpec((BranchRef(1, a, 2),), 1)

# each check that rejects a value no parsed program can carry
GUARDS = {
    "jump": (lambda: Jump(-1), ValueError, "jump distance must be a natural number"),
    "header": (lambda: LoopHeader(0), ValueError, "loop count must be positive"),
    "closure": (lambda: AnnClose(-1, 0), ValueError, "closure annotations must be natural"),
    "annotated jump": (lambda: AnnJump(-1, ()), ValueError, "jump distance must be a natural"),
    "unit": (lambda: Unit(()), ValueError, "unit body must be nonempty"),
    "body": (lambda: CanonicalProgram((), ()), ValueError, "repeated body must be nonempty"),
    "part": (lambda: Part((), repeated=True), ValueError, "repeated part must be nonempty"),
    "method": (lambda: Action("Set"), ValueError, "bad method identifier 'Set'"),
    "focus": (lambda: Action("set", focus="c:01"), ValueError, "bad focus identifier 'c:01'"),
    "argument": (lambda: Action("set", focus="c", argument=-1), ValueError,
                 "action argument must be a natural number"),
    "unfocused argument": (lambda: Action("set", argument=1), ValueError,
                           "an action argument requires a focus.method action"),
    "format": (lambda: format_instruction(Instruction()), TypeError, "not an instruction"),
    "pi": (lambda: pi(1, _DANGLING, 1), SpecError, "dangling index 2 in equation 1"),
    "refines": (lambda: refines(_DANGLING, _DANGLING), SpecError, "dangling index 2 in equation 1"),
}


@pytest.mark.parametrize("make, error, message", GUARDS.values(), ids=GUARDS.keys())
def test_guards_reject_bad_values(make, error, message):
    with pytest.raises(error, match=message):
        make()


# each number field, which takes only ints; a bool is an int
NUMBER_FIELDS = {
    "jump": (Jump, "jump distance must be a natural number"),
    "header": (LoopHeader, "loop count must be positive"),
    "closure remaining": (lambda n: AnnClose(n, 0), "closure annotations must be natural numbers"),
    "closure body size": (lambda n: AnnClose(0, n), "closure annotations must be natural numbers"),
    "annotated jump": (lambda n: AnnJump(n, ((1, 2),)), "jump distance must be a natural number"),
    "argument": (lambda n: Action("set", focus="c", argument=n),
                 "action argument must be a natural number"),
}


@pytest.mark.parametrize("value", [1.5, "1"])
@pytest.mark.parametrize("make, message", NUMBER_FIELDS.values(), ids=NUMBER_FIELDS.keys())
def test_number_fields_refuse_values_that_are_no_ints(make, message, value):
    with pytest.raises(ValueError, match=f"^{message}$"):
        make(value)
    make(True)


_RESETS = "annotated jump resets must be nonempty pairs of natural numbers"


@pytest.mark.parametrize("resets", [
    (), [(1, 2)], ((1.5, -1),), ((1, -1),), ((-1, 1),), ((1, "2"),), ((1,),), ((1, 2, 3),),
    ([1, 2],), ((1, 2), (3, 1.0)),
])
def test_annotated_jump_refuses_resets_it_cannot_print(resets):
    # an empty list would print as a plain jump, and the others as text the
    # parser refuses (or as a tuple where a list was)
    with pytest.raises(ValueError, match=f"^{_RESETS}$"):
        AnnJump(2, resets)


class _Three(enum.IntEnum):
    THREE = 3


# every number is printed as the int it equals: a bool as 0 or 1, an IntEnum as its value
_NUMBERED = [
    (Jump(True), "#1"), (Jump(False), "#0"), (Jump(_Three.THREE), "#3"),
    (LoopHeader(True), "1x{"), (LoopHeader(_Three.THREE), "3x{"),
    (AnnClose(True, False), "1}x0"), (AnnClose(_Three.THREE, True), "3}x1"),
    (AnnJump(True, ((_Three.THREE, False),)), "#1(3,0)"), (AnnJump(False, ((True, 2),)), "#0(1,2)"),
    (Basic(Action("set", focus="c", argument=True)), "c.set:1"),
    (PosTest(Action("set", focus="c", argument=False)), "+c.set:0"),
    (Basic(Action("set", focus="c", argument=_Three.THREE)), "c.set:3"),
]


@pytest.mark.parametrize("ins, text", _NUMBERED, ids=[text for _, text in _NUMBERED])
def test_numbers_print_as_ints_and_read_back(ins, text):
    assert format_instruction(ins) == text
    assert parse_program(text).parts[0].instructions == (ins,)


def test_units_nest_as_deep_as_the_parser_reads_them():
    unit = Basic(a)
    for _ in range(UNIT_NESTING_LIMIT):
        unit = Unit((unit,))
    program = CanonicalProgram((unit,), None)
    assert parse_canonical(format_program(program)) == program
    with pytest.raises(ValueError, match=f"^units nested more than {UNIT_NESTING_LIMIT} deep$"):
        Unit((Basic(b), unit))


# -- jump normalization -------------------------------------------------------

def test_normalize_wrapping_jump():
    body = (Basic(a), Basic(b), Jump(7))
    assert normalize_jumps(body)[2] == Jump(1)


def test_normalize_keeps_boundary_jump():
    body = (Basic(a), Basic(b), Jump(3))
    assert normalize_jumps(body) == body


def test_normalize_length_five():
    body = seq("a", "b", "c", "d") + (Jump(12),)
    assert normalize_jumps(body)[4] == Jump(2)
    before = CanonicalProgram((), body)
    after = CanonicalProgram((), normalize_jumps(body))
    assert thread_equal(extract_pga(before), extract_pga(after))


def test_normalize_empty_body_rejected():
    with pytest.raises(ProgramError):
        normalize_jumps(())


# -- properties ---------------------------------------------------------------

programs = st.integers(min_value=0, max_value=2**32).map(
    lambda s: random_pga(random.Random(s))
)


@given(programs)
def test_print_parse_round_trip(raw):
    assert parse_program(format_program(raw)) == raw


# The token rule, stated over generated programs: whitespace may come before
# any token, but never inside one. The strategy's programs have one-letter
# actions and no loops or units, so each is first given longer actions,
# annotated jumps, units and rigid loop instructions: every kind of token.
_GLUED = ("x{", "}x", ")^w", "u(")
_LONG_ACTIONS = (Action("x"), Action("u"), Action("ab_1"), Action("dec", focus="c"),
                 Action("set", focus="rlc:5", argument=1), Action("inc", focus="c:0"))
_RIGID = (LoopHeader(2), LoopClose(), AnnClose(3, 5))
_WHITESPACE = ("", "", " ", "\t", "\n", " \n\t ")


def _with_every_token(raw, rng):
    def varied(ins):
        if isinstance(ins, (Basic, PosTest, NegTest)) and rng.random() < 0.5:
            ins = type(ins)(rng.choice(_LONG_ACTIONS))
        if isinstance(ins, Jump) and rng.random() < 0.3:
            ins = AnnJump(ins.distance, ((1, 2), (3, 40))[: rng.randint(1, 2)])
        return Unit((ins,)) if rng.random() < 0.2 else ins

    def instructions(part):
        for ins in part.instructions:
            if rng.random() < 0.2:
                yield rng.choice(_RIGID)
            yield varied(ins)

    return RawProgram(tuple(Part(tuple(instructions(part)), part.repeated) for part in raw.parts))


def _instruction_tokens(ins):
    if isinstance(ins, (Basic, PosTest, NegTest)):
        return {Basic: [], PosTest: ["+"], NegTest: ["-"]}[type(ins)] + [str(ins.action)]
    if isinstance(ins, Jump):
        return ["#", str(ins.distance)]
    if isinstance(ins, AnnJump):
        resets = [t for j, n in ins.resets for t in ("(", str(j), ",", str(n), ")")]
        return ["#", str(ins.distance), *resets]
    if isinstance(ins, LoopHeader):
        return [str(ins.count), "x{"]
    if isinstance(ins, AnnClose):
        return [str(ins.remaining), "}x", str(ins.body_size)]
    if isinstance(ins, Unit):
        return ["u(", *_sequence_tokens(ins.body), ")"]
    return {HALT: ["!"], LoopClose(): ["}x"]}[ins]


def _sequence_tokens(instructions):
    tokens = []
    for ins in instructions:
        tokens += [";"] * bool(tokens) + _instruction_tokens(ins)
    return tokens


def _program_tokens(raw):
    tokens = []
    for part in raw.parts:
        body = _sequence_tokens(part.instructions)
        tokens += [";"] * bool(tokens) + (["(", *body, ")^w"] if part.repeated else body)
    return tokens


@given(programs, st.integers(min_value=0, max_value=2**32))
def test_whitespace_before_any_token_never_inside_one(raw, seed):
    rng = random.Random(seed)
    raw = _with_every_token(raw, rng)
    tokens = _program_tokens(raw)
    assert "".join(tokens) == format_program(raw)
    spaced = "".join(rng.choice(_WHITESPACE) + token for token in tokens) + rng.choice(_WHITESPACE)
    assert parse_program(spaced) == raw
    for i, token in enumerate(tokens):
        if token in _GLUED or token[0].isalpha() and len(token) > 1:
            cut = rng.randint(1, len(token) - 1)
            inside = token[:cut] + rng.choice(" \t\n") + token[cut:]
            with pytest.raises(ParseError):
                parse_program("".join(tokens[:i] + [inside] + tokens[i + 1:]))


@given(programs)
def test_canonicalize_idempotent(raw):
    once = canonicalize(raw)
    again = canonicalize(RawProgram(tuple(
        [Part(once.prefix)] if once.prefix else []
    ) + tuple([Part(once.body, repeated=True)] if once.body else [])))
    assert once == again


@given(programs)
def test_body_period_is_minimal(raw):
    body = canonicalize(raw).body
    if body:
        n = len(body)
        for d in range(1, n):
            if n % d == 0:
                assert body != body[:d] * (n // d)


@pytest.mark.filterwarnings("ignore::pgarl.DeadCodeWarning")
@settings(max_examples=60)
@given(programs, st.integers(min_value=0, max_value=2**32))
def test_congruence_implies_behavioral_equality(raw, seed):
    variant = rewrite_with_axioms(random.Random(seed), raw)
    assert congruent(raw, variant)
    assert thread_equal(
        extract_pga(canonicalize(raw)), extract_pga(canonicalize(variant))
    )


@settings(max_examples=60)
@given(st.integers(min_value=0, max_value=2**32))
def test_normalize_jumps_preserves_extraction(seed):
    rng = random.Random(seed)
    raw = random_pga(rng)
    body = canonicalize(raw).body
    if not body:
        return
    wild = tuple(
        Jump(ins.distance + rng.randint(0, 3) * len(body)) if isinstance(ins, Jump) else ins
        for ins in body
    )
    before = CanonicalProgram((), wild)
    after = CanonicalProgram((), normalize_jumps(wild))
    assert thread_equal(extract_pga(before), extract_pga(after))
