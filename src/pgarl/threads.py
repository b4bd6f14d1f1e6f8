"""Regular threads as finite linear recursive specifications.

A thread describes the behavior of a program under execution: a tree whose
internal nodes carry an action (a request to the environment, answered with a
boolean reply that selects the continuation) and whose leaves are successful
termination or deadlock. Threads with finitely many distinct states are
*regular* and are represented here by a :class:`LinearSpec`, a numbered list
of equations whose right-hand sides are termination, deadlock, or a single
branch on an action. A finite thread, such as a depth cut, is a regular
thread whose equations have no cycle, so it is a :class:`LinearSpec` too.
An :class:`Action` and a branch right-hand side (:class:`BranchRef`) are
tuples of their fields: each compares equal to the plain tuple of its fields
and orders like it, and only :class:`Action` checks its fields when built.
A plain tuple is still no equation: :func:`validate_spec` rejects one.

Every walk here reads a thread as a *state space* ``(root, successors)``:
``successors(state)`` returns the branch ``(action, yes, no)`` performed in
a state, or the ``STOP``/``DEADLOCK`` singleton the state ends in, and the
singletons step to themselves, a rule the walks keep so that no reader has
to. Specifications (``_spec_states``) and
extraction's instruction table (``extraction._table_states``) are read
this way; the use operator's product and its depth-bounded form
(:mod:`pgarl.services`) read a space and are spaces again. Depth is a
transformer of spaces (``_bounded``, over (remaining depth, state) pairs),
and two walks read any of them: :func:`explore` numbers a space breadth
first as a :class:`LinearSpec`, so the approximation operator :func:`pi`
and the use operator's depth-bounded form are :func:`explore` over a
bounded space; and :func:`first_difference` walks two spaces in step, stopping
at the first pair of states that disagrees. That walk decides the
refinement order and equality (:func:`refines`, :func:`thread_equal`) and
finds distinguishing traces (:func:`distinguish`) without numbering either
side first. Scripted runs are the use operator's with no services bound, so
they live in :mod:`pgarl.services`.

A specification is read in one pass, by ``_read_spec``: it lays out the
step of every equation and lists every invariant violation, so
:func:`validate_spec` (the list) and ``_spec_states`` (the steps, or a
SpecError naming the list) state one rule. It is the only reader of a
spec's equations besides :func:`format_spec` and ``extraction.synthesize``.
"""

from __future__ import annotations

import re
import struct
from dataclasses import dataclass
from typing import NamedTuple, Union

# The lexical rules every text is read by: program text, actions and the
# foci of service bindings. Only ASCII letters and digits count. A focus has
# one spelling: its number, if any, is written without leading zeros.
NAME = re.compile(r"[a-z][a-z0-9_]*")
NAT = re.compile(r"[0-9]+")
FOCUS = re.compile(rf"{NAME.pattern}(:(0|[1-9][0-9]*))?")


class SpecError(ValueError):
    """An operation was applied to an invalid specification or state index."""


class _ActionFields(NamedTuple):
    method: str
    focus: str | None = None
    argument: int | None = None


class Action(_ActionFields):
    """One action: an optional focus (channel), a method name, and an
    optional natural-number argument (only meaningful with a focus, as in
    ``rlc:6.set:3``). A tuple of its three fields, checked when built."""

    __slots__ = ()

    def __new__(cls, method: str, focus: str | None = None, argument: int | None = None):
        if not NAME.fullmatch(method):
            raise ValueError(f"bad method identifier {method!r}")
        if focus is not None and not FOCUS.fullmatch(focus):
            raise ValueError(f"bad focus identifier {focus!r}")
        if argument is not None:
            if argument < 0:
                raise ValueError("action argument must be a natural number")
            if focus is None:
                raise ValueError("an action argument requires a focus.method action")
        return tuple.__new__(cls, (method, focus, argument))

    _make = classmethod(lambda cls, fields: cls(*fields))  # so ``_replace`` checks too

    def __str__(self) -> str:
        text = self.method if self.focus is None else f"{self.focus}.{self.method}"
        if self.argument is not None:
            text = f"{text}:{self.argument}"
        return text


@dataclass(frozen=True)
class Stop:
    """Successful termination."""

    def __str__(self) -> str:
        return "S"


@dataclass(frozen=True)
class Deadlock:
    """Inaction: no further behavior."""

    def __str__(self) -> str:
        return "D"


STOP = Stop()
DEADLOCK = Deadlock()


class BranchRef(NamedTuple):
    """Right-hand side of a linear equation: branch on ``action`` to the
    equations numbered ``yes`` / ``no``."""

    yes: int
    action: Action
    no: int


SpecRhs = Union[Stop, Deadlock, BranchRef]


@dataclass(frozen=True)
class LinearSpec:
    """A finite linear recursive specification: equations indexed 1..n, each
    right-hand side one of Stop, Deadlock, or a BranchRef, plus the index of
    the distinguished root equation.

    The constructor is permissive; :func:`validate_spec` reports invariant
    violations.
    """

    equations: tuple[SpecRhs, ...]
    root: int = 1

    def rhs(self, index: int) -> SpecRhs:
        return self.equations[index - 1]

    def __len__(self) -> int:
        return len(self.equations)


def _read_spec(spec: LinearSpec) -> tuple[list, list[str]]:
    """Read a specification in one pass: returns ``(steps, problems)``.
    ``steps[i]`` is the step of equation i, ``(action, yes, no)`` or the
    ``STOP``/``DEADLOCK`` singleton (entry 0 is no equation's), and
    ``problems`` names every invariant violation, the list
    :func:`validate_spec` returns."""
    n = len(spec.equations)
    steps: list = [DEADLOCK]
    problems = [] if n else ["specification has no equations"]
    if not 1 <= spec.root <= max(n, 1):
        problems.append(f"root {spec.root} out of range 1..{n}")
    for i, rhs in enumerate(spec.equations, 1):
        if isinstance(rhs, BranchRef) and 1 <= rhs.yes <= n and 1 <= rhs.no <= n:
            steps.append((rhs.action, rhs.yes, rhs.no))
        elif isinstance(rhs, (Stop, Deadlock)):
            steps.append(STOP if isinstance(rhs, Stop) else DEADLOCK)
        elif isinstance(rhs, BranchRef):
            problems += [f"dangling index {ref} in equation {i}"
                         for ref in (rhs.yes, rhs.no) if not 1 <= ref <= n]
        else:
            problems.append(f"equation {i} has an unrecognized right-hand side")
    return steps, problems


def validate_spec(spec: LinearSpec) -> list[str]:
    """Report every invariant violation; an empty list means the spec is
    well formed. Never raises."""
    return _read_spec(spec)[1]


def pi(n: int, spec: LinearSpec, state: int) -> LinearSpec:
    """Depth approximation: cut the unfolding of equation ``state`` at depth
    ``n``, a natural number, replacing everything deeper by deadlock. Depth
    0 is deadlock; termination and deadlock survive any positive depth.

    The cut is a finite thread, returned as the specification that numbers
    its (remaining depth, equation) pairs with :func:`explore`: at most
    n * len(spec) branch equations, and no cycle.
    """
    _, successors = _spec_states(spec)
    if not 1 <= state <= len(spec.equations):
        raise SpecError(f"state {state} out of range 1..{len(spec.equations)}")
    return explore(*_bounded(state, n, successors))


def _spec_states(spec: LinearSpec):
    """Read a specification as a state space: returns ``(root, successors)``.
    A state is an equation number, and a terminal equation steps to the
    singleton of its kind. The steps come from :func:`_read_spec`; on an
    invalid spec this raises SpecError, naming every problem."""
    steps, problems = _read_spec(spec)
    if problems:
        raise SpecError("; ".join(problems))
    return spec.root, steps.__getitem__


@dataclass(frozen=True)
class Witness:
    """A finite trace separating two threads: the scripted steps taken to
    reach the first disagreement, and what disagreed there."""

    steps: tuple[tuple[Action, bool], ...]
    reason: str

    def __str__(self) -> str:
        lines = [f"{action} {'true' if reply else 'false'}" for action, reply in self.steps]
        lines.append(f"differs: {self.reason}")
        return "\n".join(lines)


def first_difference(space_p, space_q, deadlock_below: bool) -> Witness | None:
    """Walk the reachable state pairs of two state spaces (see
    :func:`explore`) in step, breadth first with yes before no, and return a
    shortest trace to the first pair that disagrees, or None when no
    reachable pair disagrees.

    Branches must agree on the action and are followed on both replies; other
    pairs must agree in kind, except that a deadlock on the left is below
    everything when ``deadlock_below`` holds. Each side steps each of its
    states once, when a pair first reaches it, so a walk that stops at a
    difference has stepped only the states of the pairs before it.
    """
    (root_p, next_p), (root_q, next_q) = space_p, space_q
    steps_p: dict = {}  # each side's states and the steps they took
    steps_q: dict = {}
    start = (root_p, root_q)
    parent: dict = {start: None}  # pair -> (previous pair, action, reply)
    queue = [start]
    for pair in queue:  # the list grows while it is walked
        x, y = pair
        a = steps_p.get(x)
        if a is None:
            a = steps_p[x] = x if x is STOP or x is DEADLOCK else next_p(x)
        b = steps_q.get(y)
        if b is None:
            b = steps_q[y] = y if y is STOP or y is DEADLOCK else next_q(y)
        if type(a) is tuple:
            if type(b) is not tuple or a[0] != b[0]:
                break
            nxt = a[1], b[1]
            if nxt not in parent:
                parent[nxt] = (pair, a[0], True)
                queue.append(nxt)
            nxt = a[2], b[2]
            if nxt not in parent:
                parent[nxt] = (pair, a[0], False)
                queue.append(nxt)
        elif a is not b and not (deadlock_below and a is DEADLOCK):
            break
    else:
        return None
    steps = []
    link = parent[pair]
    while link is not None:
        pair, action, reply = link
        steps.append((action, reply))
        link = parent[pair]
    reason = " vs ".join(f"action {s[0]}" if isinstance(s, tuple) else str(s) for s in (a, b))
    return Witness(tuple(reversed(steps)), reason)


def refines(spec_p: LinearSpec, spec_q: LinearSpec) -> bool:
    """Decide the refinement order between the root threads of two specs.

    For regular threads the order is already determined at finite depth: with
    n the total number of equations of both specs, it holds exactly when the
    depth-n approximations of the two roots are related. That criterion is
    decided here by a synchronized walk over reachable state pairs, assuming
    the relation on revisited pairs; the walk computes the same answer without
    building the approximations.
    """
    return first_difference(_spec_states(spec_p), _spec_states(spec_q), True) is None


def thread_equal(spec_p: LinearSpec, spec_q: LinearSpec) -> bool:
    """Equality of the root threads: one synchronized walk in which every
    reachable pair of states agrees in kind and action (refinement in both
    directions, decided in a single pass)."""
    return first_difference(_spec_states(spec_p), _spec_states(spec_q), False) is None


def distinguish(spec_p: LinearSpec, spec_q: LinearSpec) -> Witness | None:
    """Search for a shortest distinguishing trace; None when the root threads
    are equal."""
    return first_difference(_spec_states(spec_p), _spec_states(spec_q), False)


_FALSE_BYTES = bytes.maketrans(b"Ff0", bytes(3))  # a false reply reads as a zero byte


@dataclass(frozen=True)
class ReplyScript:
    """An ordered supply of boolean replies, consumed from the first. A walk
    indexes its table by the reply, so any value but a bool is refused."""

    values: tuple[bool, ...] = ()

    def __post_init__(self) -> None:
        if not {*map(type, self.values)} <= {bool}:  # read in C; the bad one is named after
            bad = next(value for value in self.values if type(value) is not bool)
            raise ValueError(f"a reply must be a bool, got {bad!r}")

    @classmethod
    def from_text(cls, text: str) -> "ReplyScript":
        """Build a script from a compact string, e.g. ``TTF`` or ``110``:
        ``T``, ``t`` and ``1`` are true, ``F``, ``f`` and ``0`` false, and
        commas and spaces are skipped. The text is read in C; only a bad
        character is looked for again, one character at a time."""
        raw = text.encode("ascii", "replace")  # a character outside ASCII reads as ?
        if raw.translate(None, b"TtFf10, "):
            bad = next(ch for ch in text if ch not in "TtFf10, ")
            raise ValueError(f"bad reply character {bad!r}")
        raw = raw.translate(_FALSE_BYTES, b", ")
        return cls(struct.unpack(f"{len(raw)}?", raw))  # any byte but zero unpacks as True


@dataclass(frozen=True)
class Trace:
    """The visible steps of one simulation run and how it ended."""

    steps: tuple[tuple[Action, bool], ...]
    status: str

    @property
    def actions(self) -> tuple[Action, ...]:
        return tuple(action for action, _ in self.steps)

    def __str__(self) -> str:
        lines = [f"{action} {'true' if reply else 'false'}" for action, reply in self.steps]
        lines.append(self.status)
        return "\n".join(lines)


def explore(root, successors) -> LinearSpec:
    """Number the states of the state space ``(root, successors)`` reachable
    from ``root`` as a linear specification.

    A state is any hashable value; ``STOP`` and ``DEADLOCK`` (the module's
    singletons) stand for termination and deadlock and step to themselves.
    ``successors(state)`` returns ``(action, yes, no)``, the branch performed
    in ``state`` and the states the two replies lead to, or one of the
    singletons, whose equation the state then shares. It runs once per
    state, when the walk first meets it. States are numbered breadth-first
    from the root, which gets 1, with yes before no; the terminals come last,
    in the order they are first reached.
    """
    index: dict = {}
    rows: list = []  # the step of each numbered state, until its targets are numbered
    terminals: list[SpecRhs] = []

    def number(state) -> int:  # terminal i (from 0) is -1 - i until the branches are counted
        ref = index.get(state)
        if ref is None:
            step = state if state is STOP or state is DEADLOCK else successors(state)
            if step is STOP or step is DEADLOCK:
                if step not in terminals:
                    terminals.append(step)
                ref = -1 - terminals.index(step)
            else:
                rows.append(step)
                ref = len(rows)
            index[state] = ref
        return ref

    number(root)
    get = index.get
    for i, (action, yes, no) in enumerate(rows):  # the list grows while it is walked
        rows[i] = (get(yes) or number(yes), action, get(no) or number(no))
    n = len(rows)
    equations: list[SpecRhs] = [
        BranchRef(yes if yes > 0 else n - yes, action, no if no > 0 else n - no)
        for yes, action, no in rows
    ]
    return LinearSpec(tuple(equations + terminals), 1)


def _bounded(root, depth: int, successors):
    """The depth cut of a state space as a state space: its states are
    (remaining depth, state) pairs, from ``(depth, root)``. A pair with no
    depth left is deadlock and does not call ``successors``; every other pair
    steps as its state does, one level down. A negative ``depth`` raises
    ValueError."""
    if depth < 0:
        raise ValueError(f"depth must be a natural number, got {depth}")

    def bounded(pair):
        k, state = pair
        if k <= 0:
            return DEADLOCK
        step = state if state is STOP or state is DEADLOCK else successors(state)
        if step is STOP or step is DEADLOCK:
            return step
        action, yes, no = step
        return action, (k - 1, yes), (k - 1, no)

    return (depth, root), bounded


def format_spec(spec: LinearSpec) -> str:
    """Line-oriented text form: ``root N`` then one ``Xi = ...`` line per
    equation, branches written ``Xi = Xj <action> Xk``."""
    lines = [f"root {spec.root}"]
    for i, rhs in enumerate(spec.equations, 1):
        if isinstance(rhs, Stop):
            lines.append(f"X{i} = S")
        elif isinstance(rhs, Deadlock):
            lines.append(f"X{i} = D")
        else:
            lines.append(f"X{i} = X{rhs.yes} <{rhs.action}> X{rhs.no}")
    return "\n".join(lines)
