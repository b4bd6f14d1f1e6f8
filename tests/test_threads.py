import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pgarl import (
    DEADLOCK,
    STOP,
    Action,
    Branch,
    BranchRef,
    LinearSpec,
    ReplyScript,
    SpecError,
    apply_use_bounded,
    defining_thread,
    distinguish,
    extract_pga,
    extract_pgau,
    finite_leq,
    full_counter,
    format_spec,
    pi,
    pi_thread,
    parse_canonical,
    prefixed,
    project_pure,
    refines,
    simulate_thread,
    thread_equal,
    tree_equal,
    validate_spec,
)

from genprograms import random_pgarl, random_spec

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


def test_pi_zero_is_deadlock():
    assert pi(0, A_LOOP, 1) == DEADLOCK
    assert pi(0, LinearSpec((STOP,), 1), 1) == DEADLOCK


def test_pi_two_of_a_loop():
    assert pi(2, A_LOOP, 1) == Branch(prefixed(a, DEADLOCK), a, prefixed(a, DEADLOCK))


def test_pi_three_alternating():
    spec = LinearSpec((BranchRef(2, a, 2), BranchRef(1, b, 1)), 1)
    expected = prefixed(a, prefixed(b, prefixed(a, DEADLOCK)))
    assert pi(3, spec, 1) == expected


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
    trace = simulate_thread(LinearSpec((STOP,), 1), ReplyScript())
    assert trace.steps == () and trace.status == "S"


def test_simulate_script_exhaustion():
    trace = simulate_thread(A_LOOP, ReplyScript.from_text("TT"), max_steps=10)
    assert len(trace.steps) == 2 and trace.status == "cutoff"


def test_simulate_max_steps():
    trace = simulate_thread(A_LOOP, ReplyScript((True,) * 50), max_steps=5)
    assert len(trace.steps) == 5 and trace.status == "cutoff"


def test_simulate_follows_replies():
    spec = LinearSpec((BranchRef(2, a, 3), STOP, BranchRef(1, b, 1)), 1)
    trace = simulate_thread(spec, ReplyScript.from_text("FTT"))
    assert [str(act) for act in trace.actions] == ["a", "b", "a"]
    assert trace.status == "S"


def test_reply_script_cursor_invariant():
    with pytest.raises(ValueError):
        ReplyScript((True,), cursor=5)


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
    assert finite_leq(pi(k, spec, spec.root), pi(k + 1, spec, spec.root))


@given(specs, st.integers(min_value=0, max_value=6), st.integers(min_value=0, max_value=4))
def test_recut_deeper_approximation(spec, n, extra):
    deeper = pi(n + extra, spec, spec.root)
    assert pi_thread(n, deeper) == pi(n, spec, spec.root)


@given(specs, specs)
def test_equal_specs_refine_each_other(p, q):
    assert thread_equal(p, q) == (refines(p, q) and refines(q, p))
    assert thread_equal(p, q) == (distinguish(p, q) is None)


def test_thread_equal_walk_matches_two_refinements_on_corpus():
    # defining thread against the pure projection of the same program (equal)
    # and of the previous program (mostly unequal, often in kind only)
    rng = random.Random(20260808)
    verdicts = []
    previous = None
    for i in range(500):
        program = random_pgarl(rng, shape=("omega", "finite", "mixed")[i % 3])
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
    small = prefixed(a, DEADLOCK)
    large = prefixed(a, STOP)
    assert finite_leq(small, large)
    assert finite_leq(Branch(small, b, DEADLOCK), Branch(large, b, STOP))
    assert not finite_leq(Branch(large, b, STOP), Branch(small, b, STOP))


# -- the replaced recursive walks, kept as oracles ------------------------------

def _recursive_pi_thread(n, thread):
    if n == 0:
        return DEADLOCK
    if not isinstance(thread, Branch):
        return thread
    return Branch(
        _recursive_pi_thread(n - 1, thread.yes),
        thread.action,
        _recursive_pi_thread(n - 1, thread.no),
    )


def _recursive_finite_leq(left, right):
    if left == DEADLOCK:
        return True
    if left == STOP:
        return right == STOP
    return (
        isinstance(right, Branch)
        and left.action == right.action
        and _recursive_finite_leq(left.yes, right.yes)
        and _recursive_finite_leq(left.no, right.no)
    )


def test_iterative_walks_match_recursive_oracles():
    rng = random.Random(4242)
    for _ in range(400):
        spec, other = random_spec(rng), random_spec(rng)
        depth = rng.randint(0, 6)
        left = pi(depth, spec, spec.root)
        right = pi(rng.randint(0, 6), other, other.root) if rng.random() < 0.5 else pi(
            rng.randint(depth, 7), spec, spec.root
        )
        cut = rng.randint(0, 7)
        assert pi_thread(cut, left) == _recursive_pi_thread(cut, left)
        for x, y in ((left, right), (right, left), (left, left)):
            assert finite_leq(x, y) == _recursive_finite_leq(x, y)
            assert tree_equal(x, y) == (x == y)


def test_walks_on_a_thread_3000_deep():
    spec = extract_pgau(parse_canonical("(a;c.inc)^w"))
    thread = apply_use_bounded(spec, "c", full_counter(), 3000)
    again = apply_use_bounded(spec, "c", full_counter(), 3000)
    half = pi_thread(1500, thread)
    assert tree_equal(pi_thread(3000, thread), thread)
    assert tree_equal(thread, again) and not tree_equal(thread, half)
    assert finite_leq(half, thread) and not finite_leq(thread, half)
    assert tree_equal(half, apply_use_bounded(spec, "c", full_counter(), 1500))
