import random
import re
from dataclasses import dataclass
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pgarl import (
    Action,
    BranchRef,
    BudgetExceeded,
    DEADLOCK,
    DivergenceSuspected,
    DownCounter,
    FullCounter,
    LinearSpec,
    ProjectedProgram,
    ReplyScript,
    STOP,
    Service,
    ServiceError,
    apply_use,
    apply_use_bounded,
    canonicalize,
    extract_pgau,
    format_program,
    format_spec,
    parse_canonical,
    parse_program,
    pi,
    project_counter,
    simulate_with_services,
    thread_equal,
)

from pgarl import services
from pgarl.extraction import _table_states
from pgarl.rigidloops import project, project_pure
from pgarl.services import (
    _SilentSteps,
    _product_states,
    apply_bindings,
    apply_use_finite,
    bound_states,
    simulate,
)
from pgarl.threads import _spec_states, explore

import valueoracle
from genprograms import after_soundness_corpus, lin, random_spec, soundness_corpus
from specoracle import SpecSilentSteps, packed, spec_apply_use, unpacked, walk_simulate
from treeoracle import Branch, number, tree_apply_use_bounded

a = Action("a")
b = Action("b")
c_dec = Action("dec", focus="c")
c_inc = Action("inc", focus="c")


def counter_spec():
    """Q = (c.inc . Q) <a> R ; R = (b . R) <c.dec> S."""
    return lin(
        BranchRef(2, a, 3),
        BranchRef(1, c_inc, 1),
        BranchRef(4, c_dec, 5),
        BranchRef(3, b, 3),
        STOP,
    )


# -- counters -----------------------------------------------------------------

def test_down_counter_reply_discipline():
    dc = DownCounter(1, 3)
    reply, state = dc.reply(c_dec)(dc.initial)
    assert (reply, state) == (True, 0)
    assert dc.reply(c_dec)(state) == (False, 0)


def test_down_counter_set():
    dc = DownCounter(0, 5)
    assert dc.reply(Action("set", focus="c", argument=5))(0) == (True, 5)


def test_down_counter_fresh_is_zero():
    dc = DownCounter(0, 4)
    assert dc.initial == 0
    assert dc.reply(c_dec)(dc.initial)[0] is False


def test_down_counter_alphabet_excludes_large_set():
    dc = DownCounter(0, 3)
    assert dc.reply(Action("set", focus="c", argument=3)) is not None
    assert dc.reply(Action("set", focus="c", argument=4)) is None
    assert dc.reply(c_inc) is None


def test_full_counter_alphabet_excludes_other_methods():
    fc = FullCounter()
    assert fc.reply(Action("foo", focus="c")) is None
    assert fc.reply(Action("set", focus="c")) is None


@pytest.mark.parametrize("limit", [0, 1, 3])
def test_counter_reply_matches_the_two_method_oracle_on_a_grid(limit):
    """``reply(action)`` is None exactly where the kept two-method counter
    does not accept the action, and otherwise answers every state as its
    ``step`` does; one reply function serves every state."""
    pairs = [
        (DownCounter(0, limit), valueoracle.DownCounter(0, limit), range(limit + 1)),
        (FullCounter(), valueoracle.FullCounter(), [*range(limit + 1), 0, 1, 10**12]),
    ]
    for method in ("dec", "inc", "set", "flip"):
        for argument in (None, 0, 1, limit, limit + 1, 10**12):
            action = Action(method, focus="c", argument=argument)
            for svc, oracle, states in pairs:
                step = svc.reply(action)
                assert (step is None) == (not oracle.accepts(action)), (svc, action)
                for state in states if step is not None else ():
                    assert step(state) == oracle.step(state, action), (svc, action, state)


def test_a_service_is_asked_once_per_thread_state():
    # counter_spec has two thread states on c; however long the run, each
    # asks its service once, and its consumed steps call what it was given
    asked = []

    class Asked(FullCounter):
        def reply(self, action):
            asked.append(action)
            return super().reply(action)

    script = ReplyScript(tuple([True] * 40 + [False] + [True] * 40))
    trace = simulate_with_services(counter_spec(), (("c", Asked()),), script)
    assert (len(trace.steps), trace.status, asked) == (81, "S", [c_inc, c_dec])
    asked.clear()
    apply_use_bounded(counter_spec(), (("c", Asked()),), 30)
    assert asked == [c_inc, c_dec]


@dataclass(frozen=True)
class Tally(Service):
    """counter() with its value n held as ``encode(n)``, which is no int."""

    encode: object = lambda n: ("|",) * n
    decode: object = len
    initial = property(lambda self: self.encode(0))

    def reply(self, action):
        method, _, n = action
        if method == "set" and n is not None:
            return lambda state: (True, self.encode(n))
        if method in ("inc", "dec") and n is None:
            delta = 1 if method == "inc" else -1
            return lambda state: (delta > 0 or self.decode(state) > 0,
                                  self.encode(max(self.decode(state) + delta, 0)))
        return None


def test_services_without_a_size_keep_states_of_any_kind():
    # a tally walks and cuts as the counter() in its place does, alone, next
    # to a dc() and next to a counter(), with its value held as a tuple of
    # marks, a string, a float or, at zero, None; its states ride in a tuple
    tallies = (Tally(), Tally(lambda n: "|" * n), Tally(lambda n: n + 0.5, int),
               Tally(lambda n: ("|",) * n or None, lambda state: len(state or ())))
    rng = random.Random(31)
    with mock.patch.object(services, "SILENT_RUN_LIMIT", 20):
        for k in range(120):
            spec = _focused_spec(rng, methods=("dec", "inc", "set"))
            for others in ((), (("q", DownCounter(1, 2)),), (("q", FullCounter(1)),)):
                bindings = (("p", tallies[k % 4]),) + others
                counted = (("p", FullCounter()),) + others
                assert not _SilentSteps(_spec_states(spec), bindings).packed
                script = ReplyScript(tuple(rng.random() < 0.5 for _ in range(40)))
                assert _same_walk(spec, bindings, script) == _same_walk(spec, counted, script)
                depth = rng.randint(0, 8)
                cut = _cut_outcome(apply_use_bounded, spec, bindings, depth)
                assert cut == _cut_outcome(tree_apply_use_bounded, spec, bindings, depth)
                assert cut == _cut_outcome(apply_use_bounded, spec, counted, depth)


def test_readme_custom_service_reads_the_action(capsys):
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    (block,) = re.findall(r"```python\n(from dataclasses import .*?)\n```", readme, re.S)
    exec(block, {"__name__": "readme"})
    assert capsys.readouterr().out == "root 1\nX1 = X2 <a> X2\nX2 = X3 <b> X3\nX3 = X1 <b> X1\n"


def test_down_counter_initial_above_max_rejected():
    with pytest.raises(ValueError):
        DownCounter(7, 3)


def test_full_counter_negative_initial_rejected():
    # and any other value that is no int: its states ride in the packed int
    for initial in (-1, 0.5, 2.0, "1", None):
        with pytest.raises(ValueError, match="natural number"):
            FullCounter(initial)


def test_full_counter_sequence():
    fc = FullCounter()
    replies = []
    state = fc.initial
    for name in ("inc", "inc", "dec", "dec", "dec"):
        reply, state = fc.reply(Action(name, focus="c"))(state)
        replies.append(reply)
    assert replies == [True, True, True, True, False]


def test_full_counter_fresh_dec_false():
    fc = FullCounter()
    assert fc.reply(c_dec)(fc.initial) == (False, 0)


# -- use operator, finite product ----------------------------------------------

def test_use_dec_on_zero_terminates():
    spec = lin(BranchRef(1, c_dec, 2), STOP)  # P <c.dec> S with P looping
    assert thread_equal(apply_use_finite(spec, "c", DownCounter(0, 3)), lin(STOP))


def test_use_dec_counts_down():
    # (P <c.dec> S) with P = b-prefixed restart, counter at 2: two b's then S
    spec = lin(BranchRef(2, c_dec, 3), BranchRef(1, b, 1), STOP)
    used = apply_use_finite(spec, "c", DownCounter(2, 2))
    expected = lin(BranchRef(2, b, 2), BranchRef(3, b, 3), STOP)
    assert thread_equal(used, expected)


def test_use_pass_through_when_focus_absent():
    rng = random.Random(5)
    for _ in range(50):
        spec = random_spec(rng)
        used = apply_use_finite(spec, "c", DownCounter(0, 2))
        assert thread_equal(used, spec)


def test_use_foreign_co_action_deadlocks():
    spec = lin(BranchRef(2, Action("frobnicate", focus="c"), 2), STOP)
    assert thread_equal(apply_use_finite(spec, "c", DownCounter(0, 1)), lin(DEADLOCK))


def test_use_silent_cycle_deadlocks():
    spec = lin(BranchRef(1, c_dec, 1))  # consumes dec forever
    assert thread_equal(apply_use_finite(spec, "c", DownCounter(0, 2)), lin(DEADLOCK))


def test_use_requires_enumeration():
    with pytest.raises(ServiceError):
        apply_use_finite(counter_spec(), "c", FullCounter())


def test_finiteness_is_a_flag_not_a_state_list():
    # a down counter's states 0..limit are never listed, however large
    assert DownCounter(0, 10**12).finite and not FullCounter().finite
    spec = lin(BranchRef(2, c_dec, 2), BranchRef(2, a, 2))
    used = apply_use_finite(spec, "c", DownCounter(10**12, 10**12))
    assert thread_equal(used, lin(BranchRef(1, a, 1)))


def test_product_silent_runs_are_bounded(monkeypatch):
    # 30 decrements before the count runs out; the product resolves silent
    # runs with the same per-run budget as the bounded form and simulation
    spec = lin(BranchRef(1, c_dec, 2), BranchRef(2, a, 2))
    svc = DownCounter(30, 30)
    assert thread_equal(apply_use_finite(spec, "c", svc), lin(BranchRef(1, a, 1)))
    monkeypatch.setattr(services, "SILENT_RUN_LIMIT", 20)
    with pytest.raises(DivergenceSuspected, match="within 20 consumed steps"):
        apply_use_finite(spec, "c", svc)


def test_bounded_unfolding_has_a_size_budget(monkeypatch):
    # every level of (a;c.inc)^w is a new counter value, so depth n unfolds
    # n (depth, state) pairs
    monkeypatch.setattr(services, "PRODUCT_STATE_LIMIT", 1000)
    spec = lin(BranchRef(2, a, 2), BranchRef(1, c_inc, 1))
    bindings = (("c", FullCounter()),)
    cut = apply_use_bounded(spec, bindings, 1000)
    assert cut.rhs(cut.root).action == a
    with pytest.raises(BudgetExceeded, match="more than 1000 states"):
        apply_use_bounded(spec, bindings, 1001)


def test_product_size_bound():
    rng = random.Random(11)
    for _ in range(100):
        spec = random_spec(rng)
        svc = DownCounter(0, 2)
        used = apply_use_finite(spec, "c", svc)
        assert len(used.equations) <= len(spec.equations) * (svc.limit + 1) + 2


# -- use operator, bounded ----------------------------------------------------

def test_bounded_depth_zero_is_deadlock():
    cut = apply_use_bounded(counter_spec(), (("c", FullCounter()),), 0)
    assert cut.rhs(cut.root) == DEADLOCK


def test_bounded_counter_law_inc():
    # (c.inc . P) used at value n equals P used at value n+1
    for n in range(4):
        spec = counter_spec()
        with_inc = lin(
            BranchRef(2, c_inc, 2), *[
                BranchRef(e.yes + 1, e.action, e.no + 1) if isinstance(e, BranchRef) else e
                for e in spec.equations
            ]
        )
        left = apply_use_bounded(with_inc, (("c", FullCounter(n)),), 6)
        right = apply_use_bounded(spec, (("c", FullCounter(n + 1)),), 6)
        assert thread_equal(left, right)


FOCI = ("p", "q", "r")


def _focused_spec(rng, methods=("dec", "set")):
    """A random spec in which about half the branches request one of
    ``methods`` (``set:n`` with n up to 3) on one of the foci p, q and r."""

    def request():
        focus = rng.choice(FOCI)
        method = methods[int(rng.random() * len(methods))]
        if method != "set":
            return Action(method, focus=focus)
        return Action("set", focus=focus, argument=rng.randint(0, 3))

    equations = [
        BranchRef(rhs.yes, request(), rhs.no)
        if isinstance(rhs, BranchRef) and rng.random() < 0.5 else rhs
        for rhs in random_spec(rng).equations
    ]
    return lin(*equations, root=rng.randint(1, len(equations)))


def test_bounded_matches_finite_product():
    rng = random.Random(23)
    for _ in range(300):
        spec = random_spec(rng)
        svc = DownCounter(rng.randint(0, 2), 2)
        depth = rng.randint(0, 6)
        bounded = apply_use_bounded(spec, (("c", svc),), depth)
        product = apply_use_finite(spec, "c", svc)
        assert thread_equal(bounded, pi(depth, product, product.root))
    # one to three down counters on the foci the spec requests
    consumed = 0
    for _ in range(300):
        spec = _focused_spec(rng)
        bindings = tuple(
            (focus, DownCounter(rng.randint(0, 2), 2)) for focus in FOCI[: rng.randint(1, 3)]
        )
        depth = rng.randint(0, 6)
        bounded = apply_use_bounded(spec, bindings, depth)
        product = apply_use(spec, bindings)
        assert thread_equal(bounded, pi(depth, product, product.root))
        consumed += product != spec
    assert consumed > 150


def test_bounded_consumes_every_binding_in_one_pass():
    spec = extract_pgau(parse_canonical("(a;c.inc;d.inc)^w"))
    bindings = (("c", FullCounter()), ("d", FullCounter()))
    a_loop = lin(BranchRef(1, a, 1))
    for depth in range(5):
        assert thread_equal(apply_use_bounded(spec, bindings, depth), pi(depth, a_loop, 1))


def test_bounded_rejects_negative_depth():
    with pytest.raises(ValueError, match="natural number"):
        apply_use_bounded(counter_spec(), (("c", FullCounter()),), -1)
    twice = (("c", FullCounter()), ("c", FullCounter()))  # the depth is checked first
    with pytest.raises(ValueError, match="^depth must be a natural number, got -1$"):
        apply_use_bounded(counter_spec(), twice, -1)


def test_silent_run_limit_counts_consumed_steps():
    # three increments, then a visible action: a limit of 3 lets the run
    # reach it, a limit of 2 stops the run before its third step
    spec = lin(BranchRef(2, c_inc, 2), BranchRef(3, c_inc, 3), BranchRef(4, c_inc, 4),
               BranchRef(4, a, 4))
    silent = _SilentSteps(_spec_states(spec), (("c", FullCounter()),))
    with mock.patch.object(services, "SILENT_RUN_LIMIT", 3):
        assert silent.resolve(spec.root, silent.initial) == (4, 3)
    assert silent.resolve(spec.root, silent.initial) == (4, 3)
    with mock.patch.object(services, "SILENT_RUN_LIMIT", 2), \
            pytest.raises(DivergenceSuspected, match="within 2 consumed steps"):
        silent.resolve(spec.root, silent.initial)


def test_silent_run_limit_boundary_in_both_forms():
    # runs of 0-3 consumed steps on c and d, then a visible a, and silent
    # cycles of length 1 and 2; a run of k steps needs a limit of k, and a
    # cycle of length n is deadlock under a limit of n, whether the service
    # states are one code (every binding finite, or one counter() on top)
    # or a tuple (two counter()s)
    c_set, d_set, d_dec = (Action("set", focus="c", argument=3),
                           Action("set", focus="d", argument=1), Action("dec", focus="d"))
    runs = [
        (lin(BranchRef(1, a, 1)), 0, (3, 1)),
        (lin(BranchRef(2, c_dec, 2), BranchRef(2, a, 2)), 1, (2, 1)),
        (lin(BranchRef(2, c_dec, 2), BranchRef(3, d_dec, 3), BranchRef(3, a, 3)), 2, (2, 0)),
        (lin(BranchRef(2, c_dec, 2), BranchRef(3, d_dec, 3), BranchRef(4, c_dec, 4),
             BranchRef(4, a, 4)), 3, (1, 0)),
    ]
    cycles = [(lin(BranchRef(1, c_set, 1)), 1),
              (lin(BranchRef(2, c_set, 2), BranchRef(1, d_set, 1)), 2)]
    forms = []
    for bindings in ((("c", DownCounter(3, 3)), ("d", DownCounter(1, 2))),
                     (("c", DownCounter(3, 3)), ("d", FullCounter(1))),
                     (("c", FullCounter(3)), ("d", FullCounter(1)))):
        forms.append(type(_SilentSteps(_spec_states(runs[0][0]), bindings).initial))
        for limit in range(4):
            with mock.patch.object(services, "SILENT_RUN_LIMIT", limit):
                for spec, steps, states in runs:
                    silent = _SilentSteps(_spec_states(spec), bindings)
                    outcome = _resolved(silent, spec.root, silent.initial)
                    if steps <= limit:
                        assert (outcome[0], unpacked(bindings, outcome[1])) == (
                            steps + 1, states)
                    else:
                        assert outcome == f"no visible progress within {limit} consumed steps"
                for spec, length in cycles:
                    silent = _SilentSteps(_spec_states(spec), bindings)
                    outcome = _resolved(silent, spec.root, silent.initial)
                    assert outcome == (DEADLOCK if length <= limit else
                                       f"no visible progress within {limit} consumed steps")
    assert forms == [int, int, tuple]


def test_bounded_budget_exhaustion():
    inc_forever = lin(BranchRef(1, c_inc, 1))
    with pytest.raises(DivergenceSuspected):
        apply_use_bounded(inc_forever, (("c", FullCounter()),), 1)


def test_bounded_silent_cycle_is_deadlock():
    dec_forever = lin(BranchRef(1, c_dec, 1))
    cut = apply_use_bounded(dec_forever, (("c", DownCounter(0, 1)),), 5)
    assert cut.rhs(cut.root) == DEADLOCK


# -- the bounded use operator as a tree cut, its normative oracle --------------

def _cut_outcome(function, *args):
    try:
        cut = function(*args)
    except BudgetExceeded as exc:  # DivergenceSuspected included
        return type(exc).__name__, str(exc)
    return format_spec(cut if isinstance(cut, LinearSpec) else number(cut))


def test_bounded_divergence_below_the_root_matches_replaced_loop():
    spec = lin(BranchRef(2, a, 1), BranchRef(2, c_inc, 2))
    bindings = (("c", FullCounter()),)
    with mock.patch.object(services, "SILENT_RUN_LIMIT", 20):
        for depth in range(4):
            assert _cut_outcome(apply_use_bounded, spec, bindings, depth) == _cut_outcome(
                tree_apply_use_bounded, spec, bindings, depth
            )
        assert _cut_outcome(apply_use_bounded, spec, bindings, 2) == (
            "DivergenceSuspected", "no visible progress within 20 consumed steps"
        )


@settings(max_examples=40, deadline=None)
@given(st.integers(min_value=0, max_value=2**32))
def test_bounded_matches_tree_oracle(seed):
    rng = random.Random(seed)
    spec = _focused_spec(rng, methods=("dec", "inc", "set"))
    counters = (lambda: FullCounter(rng.randint(0, 2)), lambda: DownCounter(rng.randint(0, 2), 3))
    bindings = tuple((focus, rng.choice(counters)()) for focus in FOCI[: rng.randint(1, 3)])
    with mock.patch.object(services, "SILENT_RUN_LIMIT", 20):
        for depth in range(41):
            assert _cut_outcome(apply_use_bounded, spec, bindings, depth) == _cut_outcome(
                tree_apply_use_bounded, spec, bindings, depth
            )


def _counting_corpus():
    """The soundness corpus with c and d turned into counter actions: each
    program's counter projection, numbered from 0."""
    for i, program in enumerate(soundness_corpus()):
        text = format_program(program)
        text = re.sub(r"\bd\b", "d.dec", re.sub(r"\bc\b", "c.inc", text))
        yield i, project_counter(parse_canonical(text))


def test_bounded_matches_tree_oracle_on_corpus(monkeypatch):
    # c and d become counter actions, bound to counter() and dc() next to
    # the loop counters; a short silent run limit stops the programs that
    # only count
    monkeypatch.setattr(services, "SILENT_RUN_LIMIT", 200)
    outcomes = set()
    for i, projected in _counting_corpus():
        spec = extract_pgau(projected.program)
        bindings = projected.bindings + (
            (("c", FullCounter()),),
            (("c", FullCounter(2)), ("d", DownCounter(1, 2))),
        )[i % 2]
        for depth in (i % 41, 40 - i % 41):
            outcome = _cut_outcome(apply_use_bounded, spec, bindings, depth)
            assert outcome == _cut_outcome(tree_apply_use_bounded, spec, bindings, depth)
            outcomes.add(type(outcome))
    assert outcomes == {str, tuple}


# -- the spec-reading resolver and product, normative oracles ------------------

def _resolved(silent, state, states):
    try:
        return silent.resolve(state, states)
    except DivergenceSuspected as exc:
        return str(exc)


def test_resolve_matches_spec_reading_resolver_on_corpus(monkeypatch):
    # every equation, from the initial service states and from three drawn
    # ones, under the loop counters and counter()/dc() bindings of c and d,
    # the two shapes in turn; one counter() rides on top of the code, and
    # every third program runs again under two, which make the states a
    # tuple, drawing from a generator of its own
    monkeypatch.setattr(services, "SILENT_RUN_LIMIT", 200)
    rng, tuple_rng = random.Random(7), random.Random(8)
    kinds, forms = set(), set()
    for i, projected in _counting_corpus():
        spec = extract_pgau(projected.program)
        shapes = [((("c", FullCounter()),), (("c", FullCounter(2)), ("d", DownCounter(1, 2))))[i % 2]]
        shapes += [(("c", FullCounter()), ("d", FullCounter(1)))] * (i % 3 == 0)
        for shape, draw in zip(shapes, (rng, tuple_rng)):
            bindings = projected.bindings + shape
            silent = _SilentSteps(_spec_states(spec), bindings)
            oracle = SpecSilentSteps(spec, bindings)
            code = packed if type(silent.initial) is int else lambda bindings, states: states
            assert unpacked(bindings, silent.initial) == oracle.initial
            forms.add(type(silent.initial))
            drawn = [tuple(draw.randint(0, getattr(svc, "limit", 3)) for _, svc in bindings)
                     for _ in range(3)]
            for equation in range(1, len(spec) + 1):
                for states in (oracle.initial, *drawn):
                    outcome = _resolved(silent, equation, code(bindings, states))
                    if type(outcome) is tuple:
                        assert type(outcome[1]) is type(silent.initial)
                        outcome = outcome[0], unpacked(bindings, outcome[1])
                    assert outcome == _resolved(oracle, equation, states)
                    kinds.add(outcome if outcome is STOP or outcome is DEADLOCK else type(outcome))
    assert kinds == {STOP, DEADLOCK, tuple, str} and forms == {int, tuple}


def test_packed_resolve_matches_spec_reading_resolver_on_corpus(monkeypatch):
    # finite bindings only, so the resolver carries one code: the loop
    # counters, and dc() on d in every other program; every equation from
    # the initial states and from three drawn ones, encoded, and every
    # outcome decoded
    monkeypatch.setattr(services, "SILENT_RUN_LIMIT", 200)
    rng = random.Random(7)
    kinds = set()
    for i, projected in _counting_corpus():
        spec = extract_pgau(projected.program)
        bindings = projected.bindings + ((("d", DownCounter(1, 2)),) if i % 2 else ())
        silent = _SilentSteps(_spec_states(spec), bindings)
        oracle = SpecSilentSteps(spec, bindings)
        assert type(silent.initial) is int and unpacked(bindings, silent.initial) == oracle.initial
        drawn = [tuple(rng.randint(0, svc.limit) for _, svc in bindings) for _ in range(3)]
        for equation in range(1, len(spec) + 1):
            for states in (oracle.initial, *drawn):
                outcome = _resolved(silent, equation, packed(bindings, states))
                if type(outcome) is tuple:
                    assert type(outcome[1]) is int
                    outcome = outcome[0], unpacked(bindings, outcome[1])
                assert outcome == _resolved(oracle, equation, states)
                kinds.add(outcome if outcome is STOP or outcome is DEADLOCK else type(outcome))
    assert kinds == {STOP, DEADLOCK, tuple}


def _product_nodes(space):
    """Every state of ``space`` that a walk from its root reaches."""
    root, successors = space
    nodes, queue = {root}, [root]
    for node in queue:
        move = successors(node)
        if move is not STOP and move is not DEADLOCK:
            fresh = {move[1], move[2]} - nodes
            nodes |= fresh
            queue += fresh
    return nodes - {STOP, DEADLOCK}


def test_packed_product_of_long_chains_matches_spec_reading_product():
    # 20, 41 and 62 loop counters and a down counter of 10^12 + 1 states:
    # the codes pass 64 bits, and the product is the oracle's, equation by
    # equation
    for k in (20, 41, 62):
        rng = random.Random(k)
        loops = ";".join(f"{rng.randint(2, 6)}x{{;a{i};t;}}x" for i in range(k))
        projected = project_counter(canonicalize(parse_program(f"(+e.dec;b;{loops})^w")))
        bindings = (("e", DownCounter(5, 10**12)),) + projected.bindings
        with_big = ProjectedProgram(projected.program, bindings)
        codes = [states for _, states in _product_nodes(bound_states(with_big))]
        assert all(type(code) is int for code in codes) and max(codes).bit_length() > 64
        spec = apply_bindings(with_big)
        assert spec == spec_apply_use(extract_pgau(projected.program), bindings)
        assert len(spec) > 6 * k


def test_product_of_the_table_matches_spec_reading_product_on_corpus(monkeypatch):
    # the product composed over extraction's table numbers what the product
    # of the extracted spec numbered, and runs out of a small budget where
    # it ran out; c.inc is outside a down counter's alphabet
    monkeypatch.setattr(services, "SILENT_RUN_LIMIT", 200)
    answered = exhausted = 0
    for i, projected in _counting_corpus():
        program = projected.program
        bindings = projected.bindings + (
            (("d", DownCounter(1, 2)),),
            (("c", DownCounter(2, 3)), ("d", DownCounter(0, 1))),
        )[i % 2]
        for limit in (services.PRODUCT_STATE_LIMIT, 4):
            with mock.patch.object(services, "PRODUCT_STATE_LIMIT", limit):
                outcome = _cut_outcome(
                    lambda: explore(*_product_states(_table_states(program), bindings)))
                assert outcome == _cut_outcome(apply_use, extract_pgau(program), bindings)
                assert outcome == _cut_outcome(spec_apply_use, extract_pgau(program), bindings)
            answered += isinstance(outcome, str)
            exhausted += not isinstance(outcome, str)
    assert answered > 800 and exhausted > 50


# -- the irregular counter thread ----------------------------------------------

def test_counter_thread_trace_family():
    spec = counter_spec()
    for n in range(6):
        script = ReplyScript(tuple([True] * n + [False] + [True] * n))
        trace = simulate_with_services(spec, (("c", FullCounter()),), script, max_steps=100)
        names = [str(action) for action in trace.actions]
        assert names == ["a"] * (n + 1) + ["b"] * n
        assert trace.status == "S"


def test_counter_thread_bounded_tree():
    thread = apply_use_bounded(counter_spec(), (("c", FullCounter()),), 8)
    trace = simulate_with_services(thread, (), ReplyScript.from_text("TTFTT"))
    assert [str(act) for act in trace.actions] == ["a", "a", "a", "b", "b"]
    assert trace.status == "S"


def test_counter_law_inc_chain_feeds_dec_loop():
    # after n increments the dec-driven loop emits exactly n b's, then stops
    for n in range(11):
        inc_chain = [BranchRef(i + 1, c_inc, i + 1) for i in range(1, n + 1)]
        r_at = n + 1
        eqs = inc_chain + [
            BranchRef(r_at + 1, c_dec, r_at + 2),
            BranchRef(r_at, b, r_at),
            STOP,
        ]
        spec = lin(*eqs)
        cut = apply_use_bounded(spec, (("c", FullCounter()),), n + 2)
        expected = lin(*(BranchRef(i + 2, b, i + 2) for i in range(n)), STOP)
        assert thread_equal(cut, expected)


# -- simulation against the spec-reading walk (specoracle.walk_simulate) -------

def _simulated(function, *args):
    try:
        trace = function(*args)
    except BudgetExceeded as exc:
        return type(exc), str(exc)
    return trace.steps, trace.status


def _same_walk(spec, bindings, script, max_steps=1000):
    outcome = _simulated(simulate_with_services, spec, bindings, script, max_steps)
    assert outcome == _simulated(walk_simulate, spec, bindings, script, max_steps)
    return outcome


def test_simulation_matches_replaced_walk_on_the_corpus():
    # simulate walks the projected program's table, the others its numbered thread
    rng = after_soundness_corpus()
    ends = set()
    for program in soundness_corpus():
        projected = project_counter(program)
        spec = extract_pgau(projected.program)
        for _ in range(3):
            script = ReplyScript(tuple(rng.random() < 0.5 for _ in range(rng.randint(0, 60))))
            max_steps = rng.randint(0, 70)
            steps, status = _same_walk(spec, projected.bindings, script, max_steps)
            assert _simulated(simulate, projected, script, max_steps) == (steps, status)
            ends.add(status)
    assert ends == {"S", "D", "cutoff"}


def test_long_walks_match_replaced_walk_in_every_form_of_the_service_states(monkeypatch):
    # long scripts over the counting corpus under four binding shapes: none,
    # the loop counters (one code, with simulate's table), the loop counters
    # and one counter() (one code, its slot on top, no table) and two
    # counter()s (a tuple); a trace keeps at most the two steps, one per
    # reply, of each visible thread state
    monkeypatch.setattr(services, "SILENT_RUN_LIMIT", 200)
    rng = random.Random(29)
    ends, forms = set(), set()
    for i, projected in _counting_corpus():
        spec = extract_pgau(projected.program)
        shapes = ((), projected.bindings, projected.bindings + (("c", FullCounter()),),
                  (("c", FullCounter()), ("d", FullCounter(3))))
        for bindings in shapes:
            script = ReplyScript(tuple(rng.random() < 0.5 for _ in range(rng.randint(0, 1500))))
            max_steps = rng.randint(0, 1600)
            outcome = _same_walk(spec, bindings, script, max_steps)
            with_bindings = ProjectedProgram(projected.program, bindings)
            assert _simulated(simulate, with_bindings, script, max_steps) == outcome
            if outcome[0] is DivergenceSuspected:
                ends.add(DivergenceSuspected)
                continue
            trace = simulate_with_services(spec, bindings, script, max_steps)
            foci = {focus for focus, _ in bindings}
            visible = sum(isinstance(rhs, BranchRef) and rhs.action.focus not in foci
                          for rhs in spec.equations)
            assert len(set(map(id, trace.steps))) <= 2 * visible
            forms.add(type(_SilentSteps(_spec_states(spec), bindings).initial))
            ends.add(trace.status)
    assert {"S", "D", "cutoff", DivergenceSuspected} <= ends and forms == {int, tuple}


def test_steps_are_shared_between_visits_of_a_thread_state():
    # the counter() family at n = 4000: 8001 visible steps at two thread
    # states, a and b, so the trace holds at most four step objects
    n = 4000
    replies = tuple([True] * n + [False] + [k % 3 == 0 for k in range(n)])
    script = ReplyScript(replies)
    projected = project(canonicalize(parse_program("(+a;#2;#3;k.inc;#6;+k.dec;#2;!;b;#6)^w")),
                        bindings=(("k", FullCounter()),))
    walked = simulate_with_services(counter_spec(), (("c", FullCounter()),), script, len(replies))
    for trace in (simulate(projected, script, len(replies)), walked):
        assert (len(trace.steps), trace.status) == (8001, "S")
        assert [(str(action), reply) for action, reply in trace.steps] == (
            [("a", True)] * n + [("a", False)] + [("b", reply) for reply in replies[n + 1:]])
        assert len(set(map(id, trace.steps))) <= 4


_C_ACTIONS = (
    a, b, c_inc, c_dec, *(Action("set", focus="c", argument=n) for n in range(5))
)


@st.composite
def _c_specs(draw):
    """A spec of up to six equations over a, b and c.inc, c.dec, c.set:N."""
    n = draw(st.integers(min_value=1, max_value=6))
    index = st.integers(min_value=1, max_value=n)
    rhs = st.one_of(
        st.just(STOP),
        st.just(DEADLOCK),
        st.builds(BranchRef, index, st.sampled_from(_C_ACTIONS), index),
    )
    return lin(*draw(st.lists(rhs, min_size=n, max_size=n)), root=draw(index))


_C_SERVICES = st.one_of(
    st.integers(min_value=0, max_value=3).flatmap(
        lambda top: st.builds(DownCounter, st.integers(min_value=0, max_value=top), st.just(top))
    ),
    st.builds(FullCounter, st.integers(min_value=0, max_value=2)),
)


@settings(max_examples=200, deadline=None)
@given(
    _c_specs(),
    _C_SERVICES,
    st.lists(st.booleans(), max_size=30).map(lambda replies: ReplyScript(tuple(replies))),
    st.integers(min_value=0, max_value=40),
)
def test_simulation_matches_replaced_walk_on_counter_specs(spec, svc, script, max_steps):
    # a small silent run limit makes increment loops stop with
    # DivergenceSuspected at once
    with mock.patch.object(services, "SILENT_RUN_LIMIT", 20):
        _same_walk(spec, (("c", svc),), script, max_steps)


def test_simulation_table_resolves_each_state_once(monkeypatch):
    # 600 replies go round the loop and its counter's states dozens of
    # times; the replaced walk resolves after every step, the table only
    # after a (state, reply) it has not met
    projected = project_counter(canonicalize(parse_program("(3x{;+a;#2;b;c;}x;d)^w")))
    spec = extract_pgau(projected.program)
    rng = random.Random(5)
    script = ReplyScript(tuple(rng.random() < 0.5 for _ in range(600)))
    calls = []
    for resolver in (SpecSilentSteps, _SilentSteps):
        resolve = resolver.resolve
        monkeypatch.setattr(resolver, "resolve",
                            lambda *args, resolve=resolve: calls.append(1) or resolve(*args))
    steps, status = _simulated(walk_simulate, spec, projected.bindings, script)
    walked = len(calls)
    assert _simulated(simulate_with_services, spec, projected.bindings, script) == (steps, status)
    assert status == "cutoff" and walked == len(steps) + 1 == 601
    assert len(calls) - walked < 30


def test_simulation_leaves_an_untaken_divergence_unresolved():
    # X1 = X1 <+a> X2, and X2 consumes steps forever: replies T never go
    # there, a reply F does and runs out of silent steps
    for svc, endless in ((FullCounter(), c_inc), (DownCounter(100, 100), c_dec)):
        spec = lin(BranchRef(1, a, 2), BranchRef(2, endless, 2))
        with mock.patch.object(services, "SILENT_RUN_LIMIT", 20):
            assert _same_walk(spec, (("c", svc),), ReplyScript((True,) * 50)) == (
                ((a, True),) * 50, "cutoff"
            )
            assert _same_walk(spec, (("c", svc),), ReplyScript((True, True, False))) == (
                DivergenceSuspected, "no visible progress within 20 consumed steps"
            )


def test_simulation_rejects_negative_max_steps():
    with pytest.raises(ValueError, match="max_steps must be a natural number"):
        simulate_with_services(lin(BranchRef(1, a, 1)), (), ReplyScript((True,)), -1)


def test_simulation_silent_dec_cycle_is_deadlock():
    spec = lin(BranchRef(2, a, 2), BranchRef(2, c_dec, 2))
    for svc in (DownCounter(2, 3), FullCounter(2)):
        assert _same_walk(spec, (("c", svc),), ReplyScript((True, False))) == (
            ((a, True),), "D"
        )


# -- bindings ------------------------------------------------------------------

def test_apply_bindings_empty_is_plain_extraction():
    program = parse_canonical("+a;#2;!")
    projected = ProjectedProgram(program, ())
    assert thread_equal(apply_bindings(projected), lin(BranchRef(2, a, 3), DEADLOCK, STOP))


def test_apply_bindings_disjoint_foci_commute():
    program = parse_canonical("p:1.dec;a;(q:1.dec;b)^w")
    one = ProjectedProgram(program, (("p:1", DownCounter(1, 1)), ("q:1", DownCounter(1, 2))))
    two = ProjectedProgram(program, (("q:1", DownCounter(1, 2)), ("p:1", DownCounter(1, 1))))
    assert thread_equal(apply_bindings(one), apply_bindings(two))


def test_bound_states_composes_table_product_and_cut():
    # a finite and an unbounded binding: the product, then one cut
    program = parse_canonical("(+d.dec;a;c.inc;b)^w")
    bindings = (("d", DownCounter(1, 1)), ("c", FullCounter()))
    projected = ProjectedProgram(program, bindings)
    spec = extract_pgau(program)
    product = apply_use(spec, bindings[:1])
    for depth in range(6):
        assert explore(*bound_states(projected, depth)) == apply_use_bounded(
            product, bindings[1:], depth)
    assert explore(*bound_states(ProjectedProgram(program, bindings[:1]))) == product
    for build in (bound_states, apply_bindings):
        with pytest.raises(ServiceError, match="no finite state enumeration"):
            build(projected)


def test_project_picks_the_projection_and_keeps_the_bindings_last():
    bind = (("c", FullCounter()),)
    loop = parse_canonical("(2x{;a;}x;c.inc)^w")
    counter = project_counter(loop)
    assert project(loop, "defining", bind) == ProjectedProgram(
        counter.program, counter.bindings + bind)
    assert project(loop, "pure", bind) == ProjectedProgram(project_pure(loop), bind)
    plain = parse_canonical("(a;c.inc)^w")
    assert project(plain, "pure", bind) == project(plain, "defining", bind) == ProjectedProgram(
        plain, bind)
    with pytest.raises(ValueError, match="unknown projection 'counter'"):
        project(loop, "counter")


def _chain_family(k):
    rng = random.Random(k)
    loops = [
        f"{rng.randint(2, 6)}x{{;a{i};{'+t;#2;' if i % 3 == 0 else ''}u;}}x" for i in range(k)
    ]
    return canonicalize(parse_program(f"({';'.join(loops)})^w"))


def test_one_pass_product_equals_chained_passes():
    family = tuple(_chain_family(k) for k in range(1, 41))
    multi = 0
    for program in soundness_corpus() + family:
        projected = project_counter(program)
        extracted = extract_pgau(projected.program)
        chained = extracted
        for focus, svc in projected.bindings:
            chained = apply_use_finite(chained, focus, svc)
        assert apply_use(extracted, projected.bindings) == chained == spec_apply_use(
            extracted, projected.bindings)
        multi += len(projected.bindings) > 1
    assert multi > 200


def test_binding_foci_must_be_distinct():
    with pytest.raises(ValueError):
        ProjectedProgram(
            parse_canonical("a"),
            (("c", DownCounter(0, 1)), ("c", DownCounter(0, 2))),
        )


# -- properties ---------------------------------------------------------------

specs = st.integers(min_value=0, max_value=2**32).map(
    lambda s: random_spec(random.Random(s))
)


@settings(max_examples=60)
@given(specs, st.integers(min_value=0, max_value=3))
def test_use_stop_and_deadlock_fixed(spec, initial):
    used = apply_use_finite(spec, "zz", DownCounter(initial, 3))
    assert thread_equal(used, spec)
