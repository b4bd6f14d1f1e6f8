"""Stateful reply services and the use operator.

A service answers the actions addressed to it through a focus. Asked an
action, it gives that action's reply function, which maps the current state
to a boolean reply and a successor state, or None when the action lies
outside its alphabet. The binding has already chosen the service by the
action's focus, so a service reads only the method and the argument.
Applying a service to a thread (the use operator) consumes every action on
the bound focus silently, branching on the service's reply; actions on other
foci pass through, an action outside the service's alphabet deadlocks, and
a cycle of consumed actions that never emits anything is deadlock as well.
Each thread state asks its service once, so a consumed step only calls the
reply function it was given.

Several services are applied together, one per focus. Their states travel
as one int in mixed radix, each finite service's slot as wide as its state
count (``Service.size``) and at most one :class:`FullCounter`, whose states
are natural numbers, in the top slot; they travel as a tuple with one slot
per binding when another service without a size, or a second counter, is
bound.
The use operator reads a thread as a state space in the
sense of :mod:`pgarl.threads`, ``(root, successors)``, and one resolver
(``_SilentSteps``) consumes its silent steps, classifying each thread state
the first time a run reaches it; so it runs the same over a specification,
over extraction's table (``extraction._table_states``) or over another
product. The finite product (``_product_states``) and the depth-bounded
form (``_bounded_use_states``, over the depth transformer that
:func:`pgarl.threads.pi` uses) are transformers of spaces, and
:func:`bound_states` is the one place that composes them: a projected
program's behaviour is its extraction table, then the finite product over
its finite bindings, then one depth cut over the unbounded ones, and a
caller numbers that space (:func:`apply_bindings`, ``pgarl extract``) or
compares it (``pgarl equiv``) in one walk, so the table is never numbered
only to be read by the product. The public forms take a
:class:`pgarl.threads.LinearSpec` and return one or a trace:
:func:`apply_use` numbers every reachable pair of a thread state and its
service states in a single pass, :func:`apply_use_bounded`
numbers the pairs within a visible depth, so its result is a finite thread
as a spec, and scripted simulation (:func:`simulate_with_services`) walks
one path, remembering the states it meets when every service is finite,
and sharing each visible thread state's two steps between the trace
entries that take it; :func:`simulate` is the same walk over a projected
program's extraction table, which it steps only where the run goes. All of them
limit each silent run to ``SILENT_RUN_LIMIT`` steps and reject a list of
bindings that binds a focus twice. The product may step at most
``PRODUCT_STATE_LIMIT`` states, and the depth-bounded form may unfold at
most as many; a product under a depth cut steps only the states the cut
reaches.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import accumulate, count
from operator import mul

from .extraction import _table_states
from .program import CanonicalProgram
from .threads import (
    DEADLOCK,
    STOP,
    Action,
    LinearSpec,
    ReplyScript,
    Trace,
    _bounded,
    _spec_states,
    explore,
)

SILENT_RUN_LIMIT = 10**6
PRODUCT_STATE_LIMIT = 10**6


class ServiceError(ValueError):
    """A service cannot be used the way it was asked to."""


class BudgetExceeded(RuntimeError):
    """A computation ran out of, or would exceed, one of its fixed budgets."""


class DivergenceSuspected(BudgetExceeded):
    """The silent-step budget ran out before the thread produced anything."""


class Service:
    """Interface: an initial state and ``reply(action)``, asked the thread's
    :class:`pgarl.threads.Action` on the bound focus and reading its
    ``method`` and ``argument``. It returns the action's reply function,
    ``state -> (reply, next state)`` with a boolean reply, or None when the
    service cannot answer the action, which makes the thread deadlock.

    A service with finitely many states states how many, ``size``, and its
    states are then the ints ``0..size - 1``; ``size`` is None for one
    without a finite enumeration. ``finite`` is read off ``size``: the
    finite product (:func:`apply_use`) takes only finite services. States
    are immutable, hashable snapshots, of any kind when there is no
    ``size``; a reply function returns the successor rather than mutating.
    """

    initial: object
    size: int | None = None
    finite = property(lambda self: self.size is not None)

    def reply(self, action: Action):
        raise NotImplementedError


def _dec(state: int) -> tuple[bool, int]:
    return (True, state - 1) if state > 0 else (False, 0)


def _inc(state: int) -> tuple[bool, int]:
    return True, state + 1


@dataclass(frozen=True)
class DownCounter(Service):
    """Bounded counter: ``dec`` replies true and decrements while positive,
    false at zero (leaving it at zero); ``set:n`` replies true and loads n.
    Values above ``limit`` are outside the alphabet, so its states are
    0..limit, ``limit + 1`` of them."""

    initial: int = 0
    limit: int = 0
    size = property(lambda self: self.limit + 1)

    def __post_init__(self) -> None:
        ints = isinstance(self.initial, int) and isinstance(self.limit, int)
        if not ints or not 0 <= self.initial <= self.limit:
            raise ValueError("initial counter value must lie within 0..limit")

    def reply(self, action: Action):
        method, _, n = action
        if method == "set" and n is not None and 0 <= n <= self.limit:
            return lambda state: (True, n)
        return _dec if method == "dec" and n is None else None


@dataclass(frozen=True)
class FullCounter(Service):
    """Unbounded counter: like the down counter but with ``inc`` (always
    true) and no cap on ``set``; it has infinitely many states."""

    initial: int = 0

    def __post_init__(self) -> None:
        if not isinstance(self.initial, int) or self.initial < 0:
            raise ValueError("counter value must be a natural number")

    def reply(self, action: Action):
        method, _, n = action
        if method == "set" and n is not None and n >= 0:
            return lambda state: (True, n)
        return {"dec": _dec, "inc": _inc}.get(method) if n is None else None


# kept only because bench/workloads.py calls it; it leaves with ROADMAP item 1
def full_counter(initial: int = 0) -> FullCounter:
    """An unbounded counter; the optional initial value defaults to zero."""
    return FullCounter(initial)


def check_foci(bindings) -> None:
    """Reject a list of (focus, service) bindings that binds a focus twice."""
    seen: set[str] = set()
    for focus, _ in bindings:
        if focus in seen:
            raise ServiceError(f"focus {focus} is bound more than once")
        seen.add(focus)


@dataclass(frozen=True)
class ProjectedProgram:
    """A program together with the services its foci are bound to."""

    program: CanonicalProgram
    bindings: tuple[tuple[str, Service], ...] = ()

    def __post_init__(self) -> None:
        check_foci(self.bindings)


class _SilentSteps:
    """The consumed (silent) steps of a thread, read as a state space (see
    :func:`pgarl.threads.explore`), under a list of bound services.

    The form of the service states is chosen once, from the bindings. When
    every binding but at most one :class:`FullCounter` has a ``size`` they
    are one int in mixed radix: the finite bindings take the slots from the
    bottom, in binding order, and the counter, if any, the top slot. A slot
    holds its value times the product of the sizes of the slots below it,
    its weight, so the top slot is read by one division, with no modulus,
    and a step rewrites one slot by arithmetic. With any other binding
    without a ``size`` (its states need not be ints), or two counters, they
    are a tuple with one slot per binding; ``finite`` says whether every
    binding has a ``size``. Each thread state is classified the
    first time a run reaches it, and ``moves`` keeps what it is: the
    ``STOP`` or ``DEADLOCK`` it ends in, None for a visible branch, which
    ``visible`` keeps as ``(action, yes, no, (action, False), (action,
    True))``, the last two the steps a trace lists for each reply, a silent
    step ``(slot, size, step, yes, no)`` on one slot (its weight and size in
    the int, the size None on top; its index in the tuple) with the reply
    function ``step`` its service gave for the action, or ``DEADLOCK`` when
    the service gave None.
    """

    def __init__(self, space, bindings) -> None:
        check_foci(bindings)
        self.root, self._successors = space
        unbounded = [svc for _, svc in bindings if not svc.finite]
        self.finite = not unbounded
        # only the counter itself is known to hold ints; a subclass may hold other states
        self.packed = self.finite or len(unbounded) == 1 and type(unbounded[0]) is FullCounter
        if self.packed:  # the finite slots, then the counter on top
            bindings = sorted(bindings, key=lambda binding: not binding[1].finite)
        sizes = [svc.size for _, svc in bindings]
        initial = tuple(svc.initial for _, svc in bindings)
        slots = list(accumulate(sizes[:-1], mul, initial=1)) if self.packed else range(len(sizes))
        self.initial = sum(map(mul, slots, initial)) if self.packed else initial
        self._bound = {f: (slot, size, svc) for slot, size, (f, svc) in zip(slots, sizes, bindings)}
        self.moves: dict = {STOP: STOP, DEADLOCK: DEADLOCK}
        self.visible: dict = {}

    def _classify(self, state):
        move = self._successors(state)
        if move is not STOP and move is not DEADLOCK:
            action, yes, no = move
            if action.focus in self._bound:
                slot, size, svc = self._bound[action.focus]
                step = svc.reply(action)
                move = DEADLOCK if step is None else (slot, size, step, yes, no)
            else:
                self.visible[state] = (action, yes, no, (action, False), (action, True))
                move = None
        self.moves[state] = move
        return move

    def resolve(self, state, states):
        """Consume silent steps from ``state`` until the thread emits a
        visible action, ends, or revisits a (thread state, service states)
        pair; returns STOP, DEADLOCK (a silent cycle is deadlock too) or the
        pair at the visible action. DivergenceSuspected is raised when a step
        is due after SILENT_RUN_LIMIT consumed steps. Most runs consume one
        step, so the pairs met are kept in a set, and built, only from the
        second step on."""
        moves = self.moves
        packed = self.packed
        start, start_states = state, states
        consumed = 0
        while True:
            try:
                move = moves[state]
            except KeyError:
                move = self._classify(state)
            if move is None:
                return state, states
            if move is STOP or move is DEADLOCK:
                return move
            if consumed:  # no set for a run of one step
                seen = {(start, start_states)} if consumed == 1 else seen
                key = (state, states)
                if key in seen:
                    return DEADLOCK
                seen.add(key)
            if consumed == SILENT_RUN_LIMIT:
                raise DivergenceSuspected(f"no visible progress within {consumed} consumed steps")
            consumed += 1
            slot, size, step, yes, no = move
            if packed:  # the top slot has no size and is read without a modulus
                old = states // slot % size if size else states // slot
                reply, value = step(old)
                states += (value - old) * slot
            else:
                reply, value = step(states[slot])
                states = states[:slot] + (value,) + states[slot + 1:]
            state = yes if reply else no


def _product_states(space, bindings):
    """The use operator's finite product of the state space ``space`` (see
    :func:`pgarl.threads.explore`) as a state space: a state is a (thread
    state, service states) pair that performs a visible action, and the
    silent steps between two such pairs are resolved when a pair is stepped.
    Stepping more than PRODUCT_STATE_LIMIT pairs raises BudgetExceeded."""
    if not all(svc.finite for _, svc in bindings):
        raise ServiceError("service has no finite state enumeration; use the bounded form")
    silent = _SilentSteps(space, tuple(bindings))
    resolve, visible = silent.resolve, silent.visible
    explored = count(1)
    limit = PRODUCT_STATE_LIMIT

    def successors(node):
        if next(explored) > limit:
            raise BudgetExceeded(f"the use-operator product has more than {limit} states")
        state, states = node
        action, yes, no, _, _ = visible[state]
        at_yes = resolve(yes, states)
        return action, at_yes, at_yes if no == yes else resolve(no, states)

    return resolve(silent.root, silent.initial), successors


def _bounded_use_states(space, bindings, depth: int):
    """The depth-bounded use operator of the state space ``space`` as a
    state space: the depth cut (``pgarl.threads._bounded``) of the (thread
    state, service states) pairs taken before their silent steps are
    resolved; such a pair steps as the pair it resolves to. Stepping more
    than PRODUCT_STATE_LIMIT (depth, state) pairs raises BudgetExceeded."""
    explored = count(1)
    limit = PRODUCT_STATE_LIMIT

    def successors(node):
        if next(explored) > limit:
            raise BudgetExceeded(f"the bounded use operator unfolds more than {limit} states")
        at = resolve(*node)
        if at is STOP or at is DEADLOCK:
            return at
        action, yes, no, _, _ = visible[at[0]]
        return action, (yes, at[1]), (no, at[1])

    _, bounded = _bounded(None, depth, successors)  # checks the depth before the bindings
    silent = _SilentSteps(space, tuple(bindings))
    resolve, visible = silent.resolve, silent.visible
    return (depth, (silent.root, silent.initial)), bounded


def bound_states(projected: ProjectedProgram, depth: int | None = None):
    """The behaviour of a projected program (see
    :func:`pgarl.rigidloops.project`) as a state space: extraction's table,
    then the finite product over its finite bindings, then, when ``depth``
    is given, one depth cut over the unbounded ones. Without a depth every
    binding must be finite, or ServiceError is raised before anything is
    stepped. The result is walked once, by :func:`pgarl.threads.explore` or
    :func:`pgarl.threads.first_difference`."""
    space = _table_states(projected.program)
    if depth is None:
        return _product_states(space, projected.bindings) if projected.bindings else space
    finite = [(focus, svc) for focus, svc in projected.bindings if svc.finite]
    if finite:
        space = _product_states(space, finite)
    unbounded = [(focus, svc) for focus, svc in projected.bindings if not svc.finite]
    return _bounded_use_states(space, unbounded, depth)  # steps only the states within the cut


def apply_use(spec: LinearSpec, bindings) -> LinearSpec:
    """The use operator with every finite-state service of ``bindings`` (a
    sequence of (focus, service) with distinct foci) applied in one product
    pass: one equation per reachable (thread state, service states) pair that
    performs a visible action, plus shared terminal equations. More than
    PRODUCT_STATE_LIMIT such pairs raise BudgetExceeded, and a silent run
    of more than SILENT_RUN_LIMIT consumed steps DivergenceSuspected."""
    return explore(*_product_states(_spec_states(spec), bindings))


# kept only because bench/tracing.py traces it; it leaves with ROADMAP item 1
def apply_use_finite(spec: LinearSpec, focus: str, svc: Service) -> LinearSpec:
    """Product construction of a thread with one finite-state service. The
    result has at most len(spec) * svc.size branch equations."""
    return apply_use(spec, ((focus, svc),))


def apply_use_bounded(spec: LinearSpec, bindings, depth: int) -> LinearSpec:
    """Depth approximation of a thread using the services of ``bindings`` (a
    sequence of (focus, service) with distinct foci), explored on the fly.

    Works for services without a finite enumeration. Every bound focus is
    consumed in the same pass, so only the remaining actions count toward
    the visible ``depth``, a natural number. The cut is numbered as
    :func:`pgarl.threads.pi` numbers one, over pairs of a remaining depth
    and a (thread state, service states) pair taken before its silent steps
    are resolved; such a pair steps as the pair it resolves to. Each silent
    run between two visible actions may consume at most SILENT_RUN_LIMIT
    steps; running out raises DivergenceSuspected. Stepping more than
    PRODUCT_STATE_LIMIT (depth, state) pairs raises BudgetExceeded.
    """
    return explore(*_bounded_use_states(_spec_states(spec), bindings, depth))


def apply_bindings(projected: ProjectedProgram) -> LinearSpec:
    """The program's thread with all bound services applied:
    :func:`bound_states` with no depth, numbered once. All bound services
    must be finite-state."""
    return explore(*bound_states(projected))


def _simulate(space, bindings, script: ReplyScript, max_steps: int) -> Trace:
    """The scripted walk of the state space ``space`` (see
    :func:`pgarl.threads.explore`) under live services, for
    :func:`simulate_with_services` and :func:`simulate`.

    When every bound service is finite, the product has finitely many
    visible states and a scripted run keeps returning to them, so the walk
    keeps one entry per visible state it meets: the two steps taken there
    and, once a reply has been taken from it, the entry that reply resolves
    to. A state met again costs no silent steps. Only the branch a reply
    takes is resolved, as in the walk without a table, so a divergence
    behind an untaken branch is never raised. Both walks append the steps
    that ``_SilentSteps.visible`` made once per thread state, so the trace
    allocates no step of its own."""
    if max_steps < 0:
        raise ValueError(f"max_steps must be a natural number, got {max_steps}")
    silent = _SilentSteps(space, tuple(bindings))
    resolve, visible = silent.resolve, silent.visible
    at = resolve(silent.root, silent.initial)
    steps: list[tuple[Action, bool]] = []
    if silent.finite:
        table: dict = {STOP: STOP, DEADLOCK: DEADLOCK}  # the terminals stand for themselves

        def entry(at):  # [step on false, on true, where each leads, no, yes, states]
            if at not in table:
                _, yes, no, if_false, if_true = visible[at[0]]
                table[at] = [if_false, if_true, None, None, no, yes, at[1]]
            return table[at]

        at = entry(at)
        for reply in script.values[:max_steps]:
            if at is STOP or at is DEADLOCK:
                break
            steps.append(at[reply])
            if at[2 + reply] is None:
                at[2 + reply] = entry(resolve(at[4 + reply], at[6]))
            at = at[2 + reply]
    else:  # an unbounded service seldom meets a state twice: walk without a table
        for reply in script.values[:max_steps]:
            if at is STOP or at is DEADLOCK:
                break
            _, yes, no, if_false, if_true = visible[at[0]]
            steps.append(if_true if reply else if_false)
            at = resolve(yes if reply else no, at[1])
    status = str(at) if at is STOP or at is DEADLOCK else "cutoff"
    return Trace(tuple(steps), status)


def simulate_with_services(
    spec: LinearSpec,
    bindings: tuple[tuple[str, Service], ...],
    script: ReplyScript,
    max_steps: int = 1000,
) -> Trace:
    """Scripted simulation with live services: actions on bound foci are
    answered by their service and do not appear in the trace or consume the
    script; every other action consumes one scripted reply, for at most
    ``max_steps`` (a natural number) visible steps. Works for services with
    or without a finite enumeration. Each silent run between two visible
    steps may consume at most SILENT_RUN_LIMIT steps."""
    return _simulate(_spec_states(spec), bindings, script, max_steps)


def simulate(projected: ProjectedProgram, script: ReplyScript, max_steps: int = 1000) -> Trace:
    """:func:`simulate_with_services` of a projected program (see
    :func:`pgarl.rigidloops.project`) under its bindings, walking its
    extraction table, so only the states the run reaches are ever stepped."""
    return _simulate(_table_states(projected.program), projected.bindings,
                     script, max_steps)
