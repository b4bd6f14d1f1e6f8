"""Stateful reply services and the use operator.

A service answers co-actions addressed to it through a focus: each step maps
the current state and a co-action to a boolean reply and a successor state.
Applying a service to a thread (the use operator) consumes every action on
the bound focus silently, branching on the service's reply; actions on other
foci pass through, a co-action outside the service's alphabet deadlocks, and
a cycle of consumed actions that never emits anything is deadlock as well.

Several services are applied together, one per focus, over a tuple of
service states, and every form returns a :class:`pgarl.threads.LinearSpec`
or a trace. The finite product (:func:`apply_use`) numbers every reachable
pair of a thread state and such a tuple in a single pass; the depth-bounded
form (:func:`apply_use_bounded`) numbers the pairs within a visible depth,
over the same depth transformer that :func:`pgarl.threads.pi` uses, so its
result is a finite thread as a spec; and scripted simulation
(:func:`simulate_with_services`) walks one path, remembering the states it
meets when every service is finite; :func:`simulate_thread` is that walk
with no services bound. All three resolve consumed steps with one resolver,
which limits each silent run to ``SILENT_RUN_LIMIT`` steps, and all three
reject a list of bindings that binds a focus twice. The product may have at
most ``PRODUCT_STATE_LIMIT`` states, and the depth-bounded form may unfold
at most as many. The product is a state space in the sense of
:mod:`pgarl.threads` (``_product_states``) before it is numbered, so a
caller can compare two products without building either.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import count

from .extraction import extract_pgau
from .program import CanonicalProgram
from .threads import (
    DEADLOCK,
    STOP,
    STATUS_CUTOFF,
    STATUS_DEADLOCK,
    STATUS_STOP,
    Action,
    Deadlock,
    LinearSpec,
    ReplyScript,
    Stop,
    Trace,
    _bounded,
    _require_valid,
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


@dataclass(frozen=True)
class CoAction:
    """A method request as seen by a service: name plus optional argument."""

    method: str
    argument: int | None = None

    def __str__(self) -> str:
        return self.method if self.argument is None else f"{self.method}:{self.argument}"


class Service:
    """Interface: an initial state, a reply function, and an alphabet test.

    ``finite`` tells whether the service has finitely many states, so that
    the finite product (:func:`apply_use`) can take it. States are immutable
    snapshots; ``step`` returns the successor rather than mutating.
    """

    initial: object
    finite = False

    def accepts(self, co: CoAction) -> bool:
        raise NotImplementedError

    def step(self, state, co: CoAction) -> tuple[bool, object]:
        raise NotImplementedError


@dataclass(frozen=True)
class DownCounter(Service):
    """Bounded counter: ``dec`` replies true and decrements while positive,
    false at zero (leaving it at zero); ``set:n`` replies true and loads n.
    Values above ``limit`` are outside the alphabet, so its states are
    0..limit."""

    initial: int = 0
    limit: int = 0
    finite = True

    def __post_init__(self) -> None:
        if not 0 <= self.initial <= self.limit:
            raise ValueError("initial counter value must lie within 0..limit")

    def accepts(self, co: CoAction) -> bool:
        if co.method == "dec":
            return co.argument is None
        if co.method == "set":
            return co.argument is not None and 0 <= co.argument <= self.limit
        return False

    def step(self, state: int, co: CoAction) -> tuple[bool, int]:
        if co.method == "dec":
            return (True, state - 1) if state > 0 else (False, 0)
        return True, co.argument


@dataclass(frozen=True)
class FullCounter(Service):
    """Unbounded counter: like the down counter but with ``inc`` (always
    true) and no cap on ``set``; it has infinitely many states."""

    initial: int = 0

    def __post_init__(self) -> None:
        if self.initial < 0:
            raise ValueError("counter value must be a natural number")

    def accepts(self, co: CoAction) -> bool:
        if co.method in ("dec", "inc"):
            return co.argument is None
        if co.method == "set":
            return co.argument is not None and co.argument >= 0
        return False

    def step(self, state: int, co: CoAction) -> tuple[bool, int]:
        if co.method == "inc":
            return True, state + 1
        if co.method == "dec":
            return (True, state - 1) if state > 0 else (False, 0)
        return True, co.argument


def down_counter(initial: int = 0, max: int = 0) -> DownCounter:
    """A down counter holding values 0..max; fresh counters start at zero."""
    return DownCounter(initial, max)


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
    """The consumed (silent) steps of a thread under a tuple of bound services.

    Service states travel as a tuple with one slot per binding. Each equation
    is classified once: it ends the thread, it performs a visible action, it
    asks a bound service for a co-action outside that service's alphabet
    (deadlock), or it is a silent step on one slot.
    """

    def __init__(self, spec: LinearSpec, bindings) -> None:
        _require_valid(spec)
        check_foci(bindings)
        self.initial = tuple(svc.initial for _, svc in bindings)
        slots = {focus: slot for slot, (focus, _) in enumerate(bindings)}
        moves: list = [None]  # equations count from 1
        for rhs in spec.equations:
            if isinstance(rhs, Stop):
                moves.append(STOP)
            elif isinstance(rhs, Deadlock):
                moves.append(DEADLOCK)
            elif rhs.action.focus not in slots:
                moves.append(None)
            else:
                slot = slots[rhs.action.focus]
                svc = bindings[slot][1]
                co = CoAction(rhs.action.method, rhs.action.argument)
                moves.append(
                    (slot, svc.step, co, rhs.yes, rhs.no) if svc.accepts(co) else DEADLOCK
                )
        self.moves = moves

    def resolve(self, equation: int, states: tuple):
        """Consume silent steps from ``equation`` until the thread emits a
        visible action, ends, or revisits an (equation, states) pair; returns
        STOP, DEADLOCK (a silent cycle is deadlock too) or the pair at the
        visible action. DivergenceSuspected is raised when a step is due
        after SILENT_RUN_LIMIT consumed steps."""
        moves = self.moves
        limit = SILENT_RUN_LIMIT
        seen = set()  # one entry per consumed step
        while True:
            move = moves[equation]
            if move is None:
                return equation, states
            if move is STOP or move is DEADLOCK:
                return move
            key = (equation, states)
            if key in seen:
                return DEADLOCK
            if len(seen) == limit:
                raise DivergenceSuspected(f"no visible progress within {limit} consumed steps")
            seen.add(key)
            slot, step, co, yes, no = move
            reply, state = step(states[slot], co)
            states = states[:slot] + (state,) + states[slot + 1:]
            equation = yes if reply else no


def _product_states(spec: LinearSpec, bindings):
    """The use operator's finite product as a state space (see
    :func:`pgarl.threads.explore`): a state is a (thread state, service
    states) pair that performs a visible action, and the silent steps
    between two such pairs are resolved when a pair is stepped. Stepping
    more than PRODUCT_STATE_LIMIT pairs raises BudgetExceeded."""
    if not all(svc.finite for _, svc in bindings):
        raise ServiceError("service has no finite state enumeration; use the bounded form")
    silent = _SilentSteps(spec, tuple(bindings))
    resolve = silent.resolve
    explored = count(1)
    limit = PRODUCT_STATE_LIMIT

    def successors(node):
        if next(explored) > limit:
            raise BudgetExceeded(f"the use-operator product has more than {limit} states")
        equation, states = node
        rhs = spec.equations[equation - 1]
        yes = resolve(rhs.yes, states)
        return rhs.action, yes, yes if rhs.no == rhs.yes else resolve(rhs.no, states)

    return resolve(spec.root, silent.initial), successors


def apply_use(spec: LinearSpec, bindings) -> LinearSpec:
    """The use operator with every finite-state service of ``bindings`` (a
    sequence of (focus, service) with distinct foci) applied in one product
    pass: one equation per reachable (thread state, service states) pair that
    performs a visible action, plus shared terminal equations. More than
    PRODUCT_STATE_LIMIT such pairs raise BudgetExceeded, and a silent run
    of more than SILENT_RUN_LIMIT consumed steps DivergenceSuspected."""
    return explore(*_product_states(spec, bindings))


def apply_use_finite(spec: LinearSpec, focus: str, svc: Service) -> LinearSpec:
    """Product construction of a thread with one finite-state service. The
    result has at most len(spec) * (svc.limit + 1) branch equations for a
    down counter."""
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
    if depth < 0:
        raise ValueError(f"depth must be a natural number, got {depth}")
    silent = _SilentSteps(spec, tuple(bindings))
    explored = count(1)
    limit = PRODUCT_STATE_LIMIT

    def successors(node):
        if next(explored) > limit:
            raise BudgetExceeded(f"the bounded use operator unfolds more than {limit} states")
        at = silent.resolve(*node)
        if at is STOP or at is DEADLOCK:
            return at
        rhs = spec.rhs(at[0])
        return rhs.action, (rhs.yes, at[1]), (rhs.no, at[1])

    return explore(*_bounded((spec.root, silent.initial), depth, successors))


def apply_bindings(projected: ProjectedProgram) -> LinearSpec:
    """Extract the program's thread, then apply all bound services in one
    product pass. All bound services must be finite-state."""
    spec = extract_pgau(projected.program)
    return apply_use(spec, projected.bindings) if projected.bindings else spec


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
    steps may consume at most SILENT_RUN_LIMIT steps.

    When every bound service is finite, the product has finitely many
    visible states and a scripted run keeps returning to them, so the walk
    keeps one entry per visible state it meets: the action performed there
    and, once a reply has been taken from it, the entry that reply resolves
    to. A state met again costs no silent steps. Only the branch a reply
    takes is resolved, as in the walk without a table, so a divergence
    behind an untaken branch is never raised."""
    if max_steps < 0:
        raise ValueError(f"max_steps must be a natural number, got {max_steps}")
    silent = _SilentSteps(spec, tuple(bindings))
    at = silent.resolve(spec.root, silent.initial)
    steps: list[tuple[Action, bool]] = []
    if all(svc.finite for _, svc in bindings):
        table: dict = {STOP: STOP, DEADLOCK: DEADLOCK}  # the terminals stand for themselves

        def entry(at):  # [action, where false leads, where true leads, equation, states]
            if at not in table:
                table[at] = [spec.rhs(at[0]).action, None, None, *at]
            return table[at]

        at = entry(at)
        for reply in script.values[:max_steps]:
            if at is STOP or at is DEADLOCK:
                break
            steps.append((at[0], reply))
            if at[1 + reply] is None:
                rhs = spec.rhs(at[3])
                at[1 + reply] = entry(silent.resolve(rhs.yes if reply else rhs.no, at[4]))
            at = at[1 + reply]
    else:  # an unbounded service seldom meets a state twice: walk without a table
        for reply in script.values[:max_steps]:
            if at is STOP or at is DEADLOCK:
                break
            rhs = spec.rhs(at[0])
            steps.append((rhs.action, reply))
            at = silent.resolve(rhs.yes if reply else rhs.no, at[1])
    status = STATUS_STOP if at is STOP else STATUS_DEADLOCK if at is DEADLOCK else STATUS_CUTOFF
    return Trace(tuple(steps), status)


def simulate_thread(spec: LinearSpec, script: ReplyScript, max_steps: int = 1000) -> Trace:
    """Run a thread from its root, consuming one scripted reply per branch
    (true selects the left continuation): scripted simulation with no
    services bound. Ends with status ``S``, ``D``, or ``cutoff`` when the
    script or the step budget runs out."""
    return simulate_with_services(spec, (), script, max_steps)
