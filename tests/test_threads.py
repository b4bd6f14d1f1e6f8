import itertools
import random
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pgarl import (
    DEADLOCK,
    STOP,
    Action,
    BranchRef,
    Deadlock,
    FullCounter,
    LinearSpec,
    ReplyScript,
    SpecError,
    Stop,
    apply_use,
    apply_use_bounded,
    defining_thread,
    distinguish,
    extract_pga,
    extract_pgau,
    format_spec,
    pi,
    parse_canonical,
    project_pure,
    refines,
    simulate_with_services,
    synthesize,
    thread_equal,
    validate_spec,
)
from pgarl import extraction, services
from pgarl.threads import Witness, _bounded, _spec_states, explore, first_difference

from genprograms import random_spec, soundness_corpus
from specoracle import invariant_problems, walk_simulate
from treeoracle import number, tree_pi

a = Action("a")
b = Action("b")


def chain(name, n, tail):
    """a^n . tail as a linear spec rooted at 1."""
    eqs = [BranchRef(i + 1, Action(name), i + 1) for i in range(1, n + 1)]
    eqs.append(tail)
    return LinearSpec(tuple(eqs), 1)


A_LOOP = LinearSpec((BranchRef(1, a, 1),), 1)  # a^infinity


def test_validate_smallest_spec():
    assert validate_spec(LinearSpec((STOP,), 1)) == []


def test_validate_dangling_index():
    spec = LinearSpec((BranchRef(2, a, 1),), 1)
    assert validate_spec(spec) == ["dangling index 2 in equation 1"]


def test_validate_root_out_of_range():
    problems = validate_spec(LinearSpec((STOP,), 4))
    assert problems == ["root 4 out of range 1..1"]


def test_validate_spec_without_equations():
    assert validate_spec(LinearSpec((), 1)) == ["specification has no equations"]


def test_validate_unrecognized_right_hand_side():
    spec = LinearSpec((STOP, "X1"), 1)
    assert validate_spec(spec) == ["equation 2 has an unrecognized right-hand side"]


def test_validate_five_equation_counter_spec():
    # Q = (c.inc . Q) <a> R ; R = (b . R) <c.dec> S, linearized in 5 equations
    spec = LinearSpec(
        (
            BranchRef(2, a, 3),
            BranchRef(1, Action("inc", focus="c"), 1),
            BranchRef(4, Action("dec", focus="c"), 5),
            BranchRef(3, b, 3),
            STOP,
        ),
        1,
    )
    assert validate_spec(spec) == []


# -- invalid specs through every public reader ----------------------------------

# each reader validates the spec before it steps anything, and names every
# problem in one SpecError
INVALID_SPECS = {
    "dangling index": (LinearSpec((BranchRef(2, a, 1),)), "dangling index 2 in equation 1"),
    "root out of range": (LinearSpec((STOP,), 2), "root 2 out of range 1..1"),
    "plain tuple": (LinearSpec(((2, a, 1), STOP)),
                    "equation 1 has an unrecognized right-hand side"),
    "every problem": (
        LinearSpec(((2, a, 1), BranchRef(3, a, 0)), 5),
        "root 5 out of range 1..2; equation 1 has an unrecognized right-hand side; "
        "dangling index 3 in equation 2; dangling index 0 in equation 2",
    ),
}

SPEC_READERS = {
    "distinguish left": lambda spec: distinguish(spec, A_LOOP),
    "distinguish right": lambda spec: distinguish(A_LOOP, spec),
    "refines left": lambda spec: refines(spec, A_LOOP),
    "refines right": lambda spec: refines(A_LOOP, spec),
    "thread_equal left": lambda spec: thread_equal(spec, A_LOOP),
    "thread_equal right": lambda spec: thread_equal(A_LOOP, spec),
    "pi": lambda spec: pi(3, spec, 1),
    "apply_use": lambda spec: apply_use(spec, ()),
    "simulate_with_services": lambda spec: simulate_with_services(spec, (), ReplyScript()),
}


@pytest.mark.parametrize("reader", SPEC_READERS)
@pytest.mark.parametrize("case", INVALID_SPECS)
def test_every_reader_rejects_an_invalid_spec_with_one_text(case, reader):
    spec, text = INVALID_SPECS[case]
    with pytest.raises(SpecError) as info:
        SPEC_READERS[reader](spec)
    assert str(info.value) == text


def test_fresh_terminals_walk_like_the_singletons():
    def spec(stop, deadlock):  # X1 = X2 <a> X3, X2 = X1 <b> X4, X3 = S, X4 = D
        return LinearSpec((BranchRef(2, a, 3), BranchRef(1, b, 4), stop, deadlock))

    singletons, fresh = spec(STOP, DEADLOCK), spec(Stop(), Deadlock())
    _, successors = _spec_states(fresh)
    assert successors(3) is STOP and successors(4) is DEADLOCK
    assert explore(*_spec_states(fresh)) == explore(*_spec_states(singletons)) == singletons
    assert pi(4, fresh, 1) == pi(4, singletons, 1)
    assert apply_use(fresh, ()) == apply_use(singletons, ())
    assert thread_equal(fresh, singletons) and refines(fresh, singletons)
    assert refines(singletons, fresh)
    assert str(distinguish(fresh, A_LOOP)) == str(distinguish(singletons, A_LOOP))
    for text, status in (("F", "S"), ("TF", "D"), ("TT", "cutoff")):
        script = ReplyScript.from_text(text)
        trace = simulate_with_services(fresh, (), script, 2)
        assert trace == simulate_with_services(singletons, (), script, 2)
        assert trace.status == status


# -- values and validity --------------------------------------------------------

def test_actions_and_branches_are_tuples_of_their_fields():
    assert Action("set", "rlc:6", 3) == ("set", "rlc:6", 3)
    assert BranchRef(2, a, 1) == (2, ("a", None, None), 1)
    assert validate_spec(LinearSpec(((1, a, 1),))) == [  # but a plain tuple is no equation
        "equation 1 has an unrecognized right-hand side"
    ]
    assert sorted([b, a]) == [a, b] and Action("dec", "c") < Action("dec", "d")
    assert BranchRef(1, b, 2) < BranchRef(2, a, 1)
    assert Action("set", "c", 2)._replace(argument=3) == Action("set", "c", 3)
    with pytest.raises(ValueError, match="^bad method identifier 'A'$"):
        a._replace(method="A")


def _check_validity(spec):
    # the problem list, and the SpecError text of every reader, name the
    # invariants the spec breaks, each checked on its own
    problems = invariant_problems(spec)
    assert validate_spec(spec) == problems
    for read in (_spec_states, lambda spec: distinguish(A_LOOP, spec), synthesize):
        if problems:
            with pytest.raises(SpecError) as info:
                read(spec)
            assert str(info.value) == "; ".join(problems)
        else:
            read(spec)


_refs = st.integers(-1, 5)
_right_hand_sides = (
    st.sampled_from([STOP, DEADLOCK, Stop(), Deadlock(), "X1", None, 1])
    | st.builds(BranchRef, _refs, st.just(a), _refs)
    | st.tuples(_refs, st.just(a), _refs)
)


@given(st.lists(_right_hand_sides, max_size=4), st.integers(-1, 6))
def test_spec_problems_are_the_invariants_checked_one_by_one(equations, root):
    _check_validity(LinearSpec(tuple(equations), root))


def test_spec_problems_are_the_invariants_checked_one_by_one_on_a_grid():
    # empty specs, roots on and past both ends, dangling references on either
    # side and on both, plain tuples and right-hand sides of no kind
    right_hand_sides = [STOP, Deadlock(), (1, a, 1), "X1"] + [
        BranchRef(yes, a, no) for yes, no in ((1, 1), (0, 2), (2, 3), (3, 0), (-1, 9))
    ]
    for n in range(3):
        for equations in itertools.product(right_hand_sides, repeat=n):
            for root in {-1, 0, 1, n, n + 1}:
                _check_validity(LinearSpec(equations, root))


def test_pi_zero_is_deadlock():
    for spec in (pi(0, A_LOOP, 1), pi(0, LinearSpec((STOP,), 1), 1)):
        assert spec.rhs(spec.root) == DEADLOCK


def test_pi_two_of_a_loop():
    expected = LinearSpec((BranchRef(2, a, 2), BranchRef(3, a, 3), DEADLOCK))
    assert pi(2, A_LOOP, 1) == expected


def test_pi_three_alternating():
    spec = LinearSpec((BranchRef(2, a, 2), BranchRef(1, b, 1)), 1)
    expected = LinearSpec((BranchRef(2, a, 2), BranchRef(3, b, 3), BranchRef(4, a, 4), DEADLOCK))
    assert pi(3, spec, 1) == expected


def test_pi_rejects_negative_depth():
    with pytest.raises(ValueError, match="^depth must be a natural number, got -1$"):
        pi(-1, A_LOOP, 1)


def test_pi_rejects_bad_state():
    with pytest.raises(SpecError):
        pi(2, A_LOOP, 5)


def test_refines_chain_examples():
    n = 3
    assert refines(chain("a", n, DEADLOCK), chain("a", n, STOP))
    assert refines(chain("a", n, DEADLOCK), A_LOOP)
    assert not refines(chain("a", n, STOP), A_LOOP)


def test_thread_equal_unfolded_loop():
    two_state = LinearSpec((BranchRef(2, a, 2), BranchRef(1, a, 1)), 1)
    assert thread_equal(A_LOOP, two_state)


def test_thread_equal_detects_tail_difference():
    assert not thread_equal(chain("a", 3, STOP), chain("a", 3, DEADLOCK))
    witness = distinguish(chain("a", 3, STOP), chain("a", 3, DEADLOCK))
    assert witness is not None
    assert [step[0] for step in witness.steps] == [a, a, a]
    assert witness.reason == "S vs D"


def test_distinguish_none_when_equal():
    assert distinguish(A_LOOP, A_LOOP) is None


def test_simulate_empty_script_on_stop():
    trace = simulate_with_services(LinearSpec((STOP,), 1), (), ReplyScript())
    assert trace.steps == () and trace.status == "S"


def test_simulate_script_exhaustion():
    trace = simulate_with_services(A_LOOP, (), ReplyScript.from_text("TT"), max_steps=10)
    assert len(trace.steps) == 2 and trace.status == "cutoff"


def test_simulate_max_steps():
    trace = simulate_with_services(A_LOOP, (), ReplyScript((True,) * 50), max_steps=5)
    assert len(trace.steps) == 5 and trace.status == "cutoff"


def test_simulate_follows_replies():
    spec = LinearSpec((BranchRef(2, a, 3), STOP, BranchRef(1, b, 1)), 1)
    trace = simulate_with_services(spec, (), ReplyScript.from_text("FTT"))
    assert [str(act) for act in trace.actions] == ["a", "b", "a"]
    assert trace.status == "S"


def _replies_one_character_at_a_time(text):
    """The replies of a compact script: ``T``, ``t`` and ``1`` are true,
    ``F``, ``f`` and ``0`` false, a comma or a space is skipped, and any
    other character is a ValueError that names it."""
    values = []
    for ch in text:
        if ch in "Tt1":
            values.append(True)
        elif ch in "Ff0":
            values.append(False)
        elif ch not in ", ":
            raise ValueError(f"bad reply character {ch!r}")
    return tuple(values)


def _read_script(read, text):
    try:
        return read(text)
    except ValueError as exc:
        return str(exc)


# the script alphabet, its separators, and bad characters: two control bytes
# that could pass for replies once encoded, white space, a digit, a letter
# outside ASCII and one outside the BMP
_SCRIPT_CHARACTERS = st.sampled_from(list("TtFf10, ") + ["\0", "\x01", "\n", "\t", "2", "é", "\U0001F600"])


@settings(max_examples=300, deadline=None)
@given(st.lists(_SCRIPT_CHARACTERS, max_size=40).map("".join))
def test_reply_script_matches_the_per_character_reader(text):
    # the same replies, as bools, or the same message naming the first bad character
    read = _read_script(lambda text: ReplyScript.from_text(text).values, text)
    assert read == _read_script(_replies_one_character_at_a_time, text)
    assert isinstance(read, str) or all(type(value) is bool for value in read)


def test_reply_script_names_the_first_bad_character():
    for text, bad in (("T\0", r"'\x00'"), ("\x01", r"'\x01'"), ("TF\nT", r"'\n'"),
                      ("t 2é", "'2'"), ("1,é\U0001F600", "'é'"), ("F\U0001F600\t", "'\U0001F600'")):
        with pytest.raises(ValueError) as info:
            ReplyScript.from_text(text)
        assert str(info.value) == f"bad reply character {bad}"


def test_reply_script_takes_only_bools():
    # a walk indexes its table by the reply, so an int, a float or a letter
    # is refused where the script is made, naming the first one
    for values, bad in (((2,), "2"), ((True, "T"), "'T'"), ((1, 2), "1"),
                        ((False, None), "None"), ((0.0,), "0.0")):
        with pytest.raises(ValueError) as info:
            ReplyScript(values)
        assert str(info.value) == f"a reply must be a bool, got {bad}"


def test_format_spec_text_form():
    spec = LinearSpec((BranchRef(2, Action("dec", focus="c"), 1), STOP), 2)
    assert format_spec(spec) == "root 2\nX1 = X2 <c.dec> X1\nX2 = S"


# -- properties ---------------------------------------------------------------

specs = st.integers(min_value=0, max_value=2**32).map(
    lambda seed: random_spec(random.Random(seed))
)


@given(specs)
def test_deadlock_below_everything(spec):
    assert refines(LinearSpec((DEADLOCK,), 1), spec)


@given(specs)
def test_thread_equal_reflexive(spec):
    assert thread_equal(spec, spec)


@given(specs, st.integers(min_value=0, max_value=8))
def test_pi_chain_is_monotone(spec, k):
    assert refines(pi(k, spec, spec.root), pi(k + 1, spec, spec.root))


@given(specs, st.integers(min_value=0, max_value=6), st.integers(min_value=0, max_value=4))
def test_recut_deeper_approximation(spec, n, extra):
    deeper = pi(n + extra, spec, spec.root)
    assert thread_equal(pi(n, deeper, deeper.root), pi(n, spec, spec.root))


@given(specs, specs)
def test_equal_specs_refine_each_other(p, q):
    assert thread_equal(p, q) == (refines(p, q) and refines(q, p))
    assert thread_equal(p, q) == (distinguish(p, q) is None)


def test_thread_equal_walk_matches_two_refinements_on_corpus():
    # defining thread against the pure projection of the same program (equal)
    # and of the previous program (mostly unequal, often in kind only)
    verdicts = []
    previous = None
    for program in soundness_corpus():
        defining = defining_thread(program)
        pure = extract_pga(project_pure(program))
        for other in (pure, previous):
            if other is not None:
                verdict = thread_equal(defining, other)
                assert verdict == (refines(defining, other) and refines(other, defining))
                verdicts.append(verdict)
        previous = pure
    assert verdicts.count(False) > 100


@settings(max_examples=40)
@given(specs, st.integers(min_value=0, max_value=2**32))
def test_thread_equal_symmetric_and_transitive(spec, seed):
    rng = random.Random(seed)

    def duplicated(s):
        # Same thread, padded with duplicate (unreachable) equations.
        eqs = list(s.equations)
        for _ in range(rng.randint(1, 3)):
            eqs.append(s.equations[rng.randint(1, len(s.equations)) - 1])
        return LinearSpec(tuple(eqs), s.root)

    p, q = duplicated(spec), duplicated(spec)
    assert thread_equal(spec, p) == thread_equal(p, spec)
    assert thread_equal(spec, p) and thread_equal(p, q) and thread_equal(spec, q)


def test_postconditional_monotone():
    # small = a.D and large = a.S, alone and as the yes branch of b
    small = LinearSpec((BranchRef(2, a, 2), DEADLOCK))
    large = LinearSpec((BranchRef(2, a, 2), STOP))
    assert refines(small, large)
    small_b = LinearSpec((BranchRef(2, b, 3), BranchRef(3, a, 3), DEADLOCK))
    large_b = LinearSpec((BranchRef(2, b, 3), BranchRef(3, a, 3), STOP))
    assert refines(small_b, large_b)
    small_b_stop = LinearSpec((BranchRef(2, b, 4), BranchRef(3, a, 3), DEADLOCK, STOP))
    assert not refines(large_b, small_b_stop)


def test_walks_on_a_thread_3000_deep():
    spec = extract_pgau(parse_canonical("(a;c.inc)^w"))
    thread = apply_use_bounded(spec, (("c", FullCounter()),), 3000)
    again = apply_use_bounded(spec, (("c", FullCounter()),), 3000)
    half = pi(1500, thread, thread.root)
    assert thread_equal(pi(3000, thread, thread.root), thread)
    assert thread_equal(thread, again) and not thread_equal(thread, half)
    assert refines(half, thread) and not refines(thread, half)
    assert thread_equal(half, apply_use_bounded(spec, (("c", FullCounter()),), 1500))


# -- pi against the tree cut, its normative oracle -----------------------------

def test_cut_maps_fresh_terminals_to_the_singletons():
    spec = LinearSpec((BranchRef(2, a, 3), Stop(), Deadlock(), BranchRef(2, b, 1)), 4)
    for state in range(1, 5):
        for depth in range(6):
            assert pi(depth, spec, state) == number(tree_pi(depth, spec, state))
    terminals = pi(2, spec, 1).equations[1:]
    assert terminals[0] is STOP and terminals[1] is DEADLOCK


@settings(max_examples=80)
@given(specs)
def test_pi_matches_tree_oracle(spec):
    # the cut as a spec prints as the tree cut, numbered, prints
    for state in range(1, len(spec) + 1):
        for depth in range(13):
            assert format_spec(pi(depth, spec, state)) == format_spec(
                number(tree_pi(depth, spec, state))
            )


def test_pi_matches_tree_oracle_on_corpus():
    for i, (defining, pure) in enumerate(_corpus_specs()):
        for spec in (defining, pure):
            for depth in (i % 13, 12 - i % 13):
                assert format_spec(pi(depth, spec, spec.root)) == format_spec(
                    number(tree_pi(depth, spec, spec.root))
                )


def test_cut_calls_successors_once_per_depth_and_state():
    calls = []

    def successors(state):
        calls.append(state)
        return a, (state + 1) % 5, (state * 2) % 5

    # state i is equation i + 1 of the same thread written as a spec
    spec = LinearSpec(tuple(BranchRef((i + 1) % 5 + 1, a, 2 * i % 5 + 1) for i in range(5)))
    assert explore(*_bounded(0, 7, successors)) == pi(7, spec, 1)
    # once per (depth, state) pair reached with depth left, breadth first,
    # yes before no
    order = [(7, 0)]
    for depth, state in order:  # the list grows while it is walked
        for nxt in ((depth - 1, (state + 1) % 5), (depth - 1, (state * 2) % 5)):
            if nxt[0] and nxt not in order:
                order.append(nxt)
    assert calls == [state for _, state in order]
    assert explore(*_bounded(0, 0, successors)) == LinearSpec((DEADLOCK,))
    assert len(calls) == len(order)


# -- scripted runs against the spec-reading walk (specoracle.walk_simulate) ----

def _corpus_specs():
    for program in soundness_corpus():
        yield defining_thread(program), extract_pga(project_pure(program))


def _check_scripted_run(spec, script, max_steps):
    trace = simulate_with_services(spec, (), script, max_steps)
    assert trace == walk_simulate(spec, (), script, max_steps)


@given(specs, st.lists(st.booleans(), max_size=12), st.integers(min_value=0, max_value=3),
       st.integers(min_value=0, max_value=12))
def test_scripted_run_matches_spec_walk(spec, replies, cursor, max_steps):
    script = ReplyScript(tuple(replies[cursor:]))
    _check_scripted_run(spec, script, max_steps)
    _check_scripted_run(pi(6, spec, spec.root), script, max_steps)


def test_scripted_run_matches_spec_walk_on_corpus():
    rng = random.Random(20260808)
    statuses = set()
    for defining, pure in _corpus_specs():
        script = ReplyScript(tuple(rng.random() < 0.5 for _ in range(rng.randint(0, 30))))
        for spec in (defining, pure, pi(8, pure, pure.root)):
            _check_scripted_run(spec, script, 20)
            statuses.add(simulate_with_services(spec, (), script, 20).status)
    assert statuses == {"S", "D", "cutoff"}


# -- the spec pair walk and the queue numbering, normative oracles -------------

def _describe(rhs):
    return "S" if rhs == STOP else "D" if rhs == DEADLOCK else f"action {rhs.action}"


def _spec_pair_walk(spec_p, spec_q, deadlock_below):
    """The pair walk over two built specs: the text of the witness to the
    first differing pair, or None."""
    start = (spec_p.root, spec_q.root)
    parent = {start: None}
    queue = [start]
    for pair in queue:
        x = spec_p.rhs(pair[0])
        y = spec_q.rhs(pair[1])
        if isinstance(x, BranchRef):
            if not isinstance(y, BranchRef) or x.action != y.action:
                break
            for reply, nxt in ((True, (x.yes, y.yes)), (False, (x.no, y.no))):
                if nxt not in parent:
                    parent[nxt] = (pair, x.action, reply)
                    queue.append(nxt)
        elif type(x) is not type(y) and not (deadlock_below and isinstance(x, Deadlock)):
            break
    else:
        return None
    steps = []
    link = parent[pair]
    while link is not None:
        previous, action, reply = link
        steps.append((action, reply))
        link = parent[previous]
    return str(Witness(tuple(reversed(steps)), f"{_describe(x)} vs {_describe(y)}"))


def _breadth_first_numbering(root, successors):
    """Breadth-first numbering that calls ``successors`` when it takes a
    state from its queue, and knows a terminal only as a target or as the
    root; it shares no code with ``explore``."""
    if root is STOP or root is DEADLOCK:
        return LinearSpec((root,), 1)
    index = {root: 1}
    order = [root]
    terminals = []
    rows = []
    for state in order:
        action, *targets = successors(state)
        refs = []
        for target in targets:
            if target is STOP or target is DEADLOCK:
                if target not in terminals:
                    terminals.append(target)
                refs.append(-1 - terminals.index(target))
                continue
            number = index.get(target)
            if number is None:
                number = index[target] = len(order) + 1
                order.append(target)
            refs.append(number)
        rows.append((refs[0], action, refs[1]))
    n = len(order)
    equations = [
        BranchRef(yes if yes > 0 else n - yes, action, no if no > 0 else n - no)
        for yes, action, no in rows
    ]
    return LinearSpec(tuple(equations + terminals), 1)


def _text(witness):
    return None if witness is None else str(witness)


def _check_against_spec_walk(p, q):
    for below in (True, False):
        assert _text(first_difference(_spec_states(p), _spec_states(q), below)) == (
            _spec_pair_walk(p, q, below)
        )
    assert refines(p, q) == (_spec_pair_walk(p, q, True) is None)
    assert thread_equal(p, q) == (_spec_pair_walk(p, q, False) is None)
    assert _text(distinguish(p, q)) == _spec_pair_walk(p, q, False)


def _cut_space(depth, spec):
    root, successors = _spec_states(spec)
    return _bounded(root, depth, successors)


def _check_cuts_against_spec_walk(m, p, n, q):
    # the walk over the depth-m cut of p and the depth-n cut of q as
    # spaces, against the spec walk over the two cuts numbered
    x, y = pi(m, p, p.root), pi(n, q, q.root)
    for below in (True, False):
        assert _text(first_difference(_cut_space(m, p), _cut_space(n, q), below)) == (
            _spec_pair_walk(x, y, below)
        )
    _check_against_spec_walk(x, y)


def _fresh_leaves(spec):
    """The same spec with every terminal equation a new Stop() or
    Deadlock() object."""
    return LinearSpec(tuple(
        Stop() if isinstance(rhs, Stop) else Deadlock() if isinstance(rhs, Deadlock) else rhs
        for rhs in spec.equations
    ), spec.root)


@given(specs, specs)
def test_state_space_walk_matches_spec_pair_walk(p, q):
    for x, y in ((p, q), (q, p), (p, p)):
        _check_against_spec_walk(x, y)
    fresh = _fresh_leaves(p)
    for depth in range(5):
        for left, right in (((depth, fresh), (depth + 1, q)), ((depth + 1, q), (depth, fresh)),
                            ((depth, fresh), (depth, p))):
            _check_cuts_against_spec_walk(*left, *right)


def test_state_space_walk_matches_spec_pair_walk_on_corpus():
    previous = None
    witnesses = 0
    outcomes = set()
    for defining, pure in _corpus_specs():
        for other in (pure, previous):
            if other is not None:
                for x, y in ((defining, other), (other, defining)):
                    _check_against_spec_walk(x, y)
                    witnesses += distinguish(x, y) is not None
                    outcomes.add((refines(x, y), thread_equal(x, y)))
        _check_cuts_against_spec_walk(6, defining, 5, _fresh_leaves(pure))
        previous = pure
    assert witnesses > 200
    assert outcomes == {(True, True), (True, False), (False, False)}


def test_pair_walk_steps_each_state_once_per_side():
    calls = []

    def space(n, side):  # a^w over the numbers below n, in a different order per side
        def successors(state):
            calls.append((side, state))
            return a, (state + 1) % n, (state * 2) % n

        return 0, successors

    assert first_difference(space(3, "p"), space(5, "q"), deadlock_below=False) is None
    assert sorted(calls) == [("p", i) for i in range(3)] + [("q", i) for i in range(5)]


def test_explore_matches_breadth_first_numbering():
    # extraction and the use-operator product, numbered by both
    for program in soundness_corpus():
        new = (defining_thread(program), extract_pga(project_pure(program)))
        with mock.patch.object(extraction, "explore", _breadth_first_numbering), \
                mock.patch.object(services, "explore", _breadth_first_numbering):
            assert (defining_thread(program), extract_pga(project_pure(program))) == new


def test_explore_shares_the_equation_of_the_terminal_a_state_steps_to():
    states = {0: (a, 1, 2), 1: STOP, 2: (b, 0, 3), 3: DEADLOCK}
    direct = {0: (a, STOP, 2), 2: (b, 0, DEADLOCK)}
    expected = LinearSpec((BranchRef(3, a, 2), BranchRef(1, b, 4), STOP, DEADLOCK))
    assert explore(0, states.get) == explore(0, direct.get) == expected
    assert explore(1, states.get) == explore(STOP, None) == LinearSpec((STOP,))


@given(specs)
def test_explore_numbers_terminal_states_as_their_terminals(spec):
    # in a spec's state space each terminal equation is a state that steps to
    # a singleton; the numbering equals that of the space whose edges lead to
    # the singleton itself
    root, successors = _spec_states(spec)

    def leap(state):
        step = successors(state)
        return step if step is STOP or step is DEADLOCK else state

    def direct(state):
        action, yes, no = successors(state)
        return action, leap(yes), leap(no)

    assert explore(root, successors) == explore(leap(root), direct)
