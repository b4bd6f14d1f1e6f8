"""The use operator read off a linear specification, equation by equation:
the normative oracle for ``services._SilentSteps``, ``services._product_states``
and scripted simulation, and a spec's invariants, each checked on its own:
the oracle for ``pgarl.threads.validate_spec``.

:class:`SpecSilentSteps` classifies every equation of a specification up
front and resolves silent runs over (equation, service states) pairs; the
budgets are read from :mod:`pgarl.services` when a run is resolved, so that
a test that patches them patches the oracle too. :func:`spec_apply_use`
numbers the finite product over those pairs, and :func:`walk_simulate` walks
a spec under a reply script, the oracle for ``services._simulate`` with
services bound and without. :func:`packed` and :func:`unpacked` translate
between this module's tuples of service states and the one int that
``services._SilentSteps`` carries when every binding but at most one
``FullCounter`` has a finite size: the finite slots in binding order, then
the counter on top.
"""

from __future__ import annotations

from itertools import count

from pgarl import DEADLOCK, STOP, BranchRef, Deadlock, LinearSpec, SpecError, Stop, Trace, services
from pgarl.threads import explore


def invariant_problems(spec) -> list[str]:
    """Every invariant a spec breaks, each checked on its own, apart from any
    reading of its steps: at least one equation, the root in range, each
    branch's references in range, and no right-hand side of another kind."""
    problems = []
    n = len(spec.equations)
    if n < 1:
        problems.append("specification has no equations")
    if not 1 <= spec.root <= max(n, 1):
        problems.append(f"root {spec.root} out of range 1..{n}")
    for i, rhs in enumerate(spec.equations, 1):
        if isinstance(rhs, BranchRef):
            for ref in (rhs.yes, rhs.no):
                if not 1 <= ref <= n:
                    problems.append(f"dangling index {ref} in equation {i}")
        elif not isinstance(rhs, (Stop, Deadlock)):
            problems.append(f"equation {i} has an unrecognized right-hand side")
    return problems


def require_valid(spec) -> None:
    """Raise SpecError naming every problem :func:`invariant_problems` finds."""
    problems = invariant_problems(spec)
    if problems:
        raise SpecError("; ".join(problems))


def _slots(bindings):
    """The slot order of the one int: the finite bindings in binding order,
    then the binding without a size, if there is one, on top."""
    return sorted(range(len(bindings)), key=lambda i: not bindings[i][1].finite)


def packed(bindings, states: tuple) -> int:
    """The mixed-radix code of a tuple of service states: slot i holds its
    value times the product of the state counts of the slots below it."""
    code, weight = 0, 1
    for i in _slots(bindings):
        code += states[i] * weight
        weight *= bindings[i][1].size or 1  # the top slot's size is never read
    return code


def unpacked(bindings, states):
    """The tuple of service states that ``states`` stands for: a code is
    decoded slot by slot, the top slot without a modulus; a tuple is already
    one."""
    if isinstance(states, tuple):
        return states
    values = [None] * len(bindings)
    for i in _slots(bindings):
        size = bindings[i][1].size
        states, values[i] = divmod(states, size) if size else (0, states)
    return tuple(values)


class SpecSilentSteps:
    """The consumed (silent) steps of a thread under a tuple of bound services.

    Service states travel as a tuple with one slot per binding. Each equation
    is classified once: it ends the thread, it performs a visible action, it
    asks a bound service for an action outside that service's alphabet
    (deadlock), or it is a silent step on one slot through the reply
    function the service gave for the action.
    """

    def __init__(self, spec: LinearSpec, bindings) -> None:
        require_valid(spec)
        services.check_foci(bindings)
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
                step = bindings[slot][1].reply(rhs.action)
                moves.append(DEADLOCK if step is None else (slot, step, rhs.yes, rhs.no))
        self.moves = moves

    def resolve(self, equation: int, states: tuple):
        """Consume silent steps from ``equation`` until the thread emits a
        visible action, ends, or revisits an (equation, states) pair; returns
        STOP, DEADLOCK (a silent cycle is deadlock too) or the pair at the
        visible action. DivergenceSuspected is raised when a step is due
        after SILENT_RUN_LIMIT consumed steps."""
        moves = self.moves
        limit = services.SILENT_RUN_LIMIT
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
                raise services.DivergenceSuspected(
                    f"no visible progress within {limit} consumed steps")
            seen.add(key)
            slot, step, yes, no = move
            reply, state = step(states[slot])
            states = states[:slot] + (state,) + states[slot + 1:]
            equation = yes if reply else no


def spec_product_states(spec: LinearSpec, bindings):
    """The finite product over (equation, service states) pairs as a state
    space, under the same budgets as ``services._product_states``."""
    if not all(svc.finite for _, svc in bindings):
        raise services.ServiceError(
            "service has no finite state enumeration; use the bounded form")
    silent = SpecSilentSteps(spec, tuple(bindings))
    explored = count(1)
    limit = services.PRODUCT_STATE_LIMIT

    def successors(node):
        if next(explored) > limit:
            raise services.BudgetExceeded(
                f"the use-operator product has more than {limit} states")
        equation, states = node
        rhs = spec.equations[equation - 1]
        yes = silent.resolve(rhs.yes, states)
        return rhs.action, yes, yes if rhs.no == rhs.yes else silent.resolve(rhs.no, states)

    return silent.resolve(spec.root, silent.initial), successors


def spec_apply_use(spec: LinearSpec, bindings) -> LinearSpec:
    """The finite product numbered as one specification."""
    return explore(*spec_product_states(spec, bindings))


def walk_simulate(spec: LinearSpec, bindings, script, max_steps: int = 1000) -> Trace:
    """Scripted simulation by its definition: every visible step resolves
    the silent steps that follow it afresh, with no table."""
    silent = SpecSilentSteps(spec, tuple(bindings))
    equation, states = spec.root, silent.initial
    steps = []
    while True:  # one scripted reply per visible step
        at = silent.resolve(equation, states)
        if at is STOP:
            return Trace(tuple(steps), "S")
        if at is DEADLOCK:
            return Trace(tuple(steps), "D")
        if len(steps) >= max_steps or len(steps) >= len(script.values):
            return Trace(tuple(steps), "cutoff")
        equation, states = at
        rhs = spec.rhs(equation)
        reply = script.values[len(steps)]
        steps.append((rhs.action, reply))
        equation = rhs.yes if reply else rhs.no
