"""The thread layer's value types and spec reader as frozen dataclasses, a
validity check and a closure: the oracle for the tuple types
``pgarl.threads.Action`` and ``pgarl.threads.BranchRef``, for the problem
list of ``pgarl.threads.validate_spec`` and for the step list
``pgarl.threads._spec_states`` lays out (both read off
``pgarl.threads._read_spec``).

:class:`Action` and :class:`BranchRef` check, print and compare as the
library's do, but are dataclasses, so they equal no tuple.
:func:`validate_spec` checks the spec's invariants one by one, apart from
any reading of its steps. :func:`spec_states` validates the whole spec with
it first and then reads one equation per call.

:class:`DownCounter` and :class:`FullCounter` are the counter services as
two methods, an alphabet test ``accepts(action)`` and ``step(state,
action)``, which answers an accepted action: the oracle for the one method
``reply(action)`` of ``pgarl.services.DownCounter`` and ``FullCounter``.
"""

from __future__ import annotations

from dataclasses import dataclass

from pgarl.threads import (
    DEADLOCK,
    FOCUS,
    NAME,
    STOP,
    BranchRef as LibraryBranchRef,
    Deadlock,
    SpecError,
    Stop,
)


@dataclass(frozen=True)
class Action:
    """One action: an optional focus (channel), a method name, and an
    optional natural-number argument (only meaningful with a focus, as in
    ``rlc:6.set:3``)."""

    method: str
    focus: str | None = None
    argument: int | None = None

    def __post_init__(self) -> None:
        if not NAME.fullmatch(self.method):
            raise ValueError(f"bad method identifier {self.method!r}")
        if self.focus is not None and not FOCUS.fullmatch(self.focus):
            raise ValueError(f"bad focus identifier {self.focus!r}")
        if self.argument is not None:
            if self.argument < 0:
                raise ValueError("action argument must be a natural number")
            if self.focus is None:
                raise ValueError("an action argument requires a focus.method action")

    def __str__(self) -> str:
        text = self.method if self.focus is None else f"{self.focus}.{self.method}"
        if self.argument is not None:
            text = f"{text}:{self.argument}"
        return text


@dataclass(frozen=True)
class BranchRef:
    """Right-hand side of a linear equation: branch on ``action`` to the
    equations numbered ``yes`` / ``no``."""

    yes: int
    action: Action
    no: int


def validate_spec(spec) -> list[str]:
    """Report every invariant violation; an empty list means the spec is
    well formed. Never raises."""
    problems = []
    n = len(spec.equations)
    if n < 1:
        problems.append("specification has no equations")
    if not 1 <= spec.root <= max(n, 1):
        problems.append(f"root {spec.root} out of range 1..{n}")
    for i, rhs in enumerate(spec.equations, 1):
        if isinstance(rhs, LibraryBranchRef):
            for ref in (rhs.yes, rhs.no):
                if not 1 <= ref <= n:
                    problems.append(f"dangling index {ref} in equation {i}")
        elif not isinstance(rhs, (Stop, Deadlock)):
            problems.append(f"equation {i} has an unrecognized right-hand side")
    return problems


def require_valid(spec) -> None:
    """Raise SpecError naming every problem :func:`validate_spec` finds."""
    problems = validate_spec(spec)
    if problems:
        raise SpecError("; ".join(problems))


def spec_states(spec):
    """Read a specification as a state space: returns ``(root, successors)``.
    A state is an equation number, and a terminal equation steps to the
    singleton of its kind. Raises SpecError on an invalid spec."""
    require_valid(spec)
    equations = spec.equations

    def successors(i: int):
        rhs = equations[i - 1]
        if isinstance(rhs, LibraryBranchRef):
            return rhs.action, rhs.yes, rhs.no
        return STOP if isinstance(rhs, Stop) else DEADLOCK

    return spec.root, successors


@dataclass(frozen=True)
class DownCounter:
    """Bounded counter: ``dec`` replies true and decrements while positive,
    false at zero (leaving it at zero); ``set:n`` replies true and loads n.
    Values above ``limit`` are outside the alphabet."""

    initial: int = 0
    limit: int = 0

    def accepts(self, action) -> bool:
        if action.method == "dec":
            return action.argument is None
        if action.method == "set":
            return action.argument is not None and 0 <= action.argument <= self.limit
        return False

    def step(self, state: int, action) -> tuple[bool, int]:
        if action.method == "dec":
            return (True, state - 1) if state > 0 else (False, 0)
        return True, action.argument


@dataclass(frozen=True)
class FullCounter:
    """Unbounded counter: like the down counter but with ``inc`` (always
    true) and no cap on ``set``."""

    initial: int = 0

    def accepts(self, action) -> bool:
        if action.method in ("dec", "inc"):
            return action.argument is None
        if action.method == "set":
            return action.argument is not None and action.argument >= 0
        return False

    def step(self, state: int, action) -> tuple[bool, int]:
        if action.method == "inc":
            return True, state + 1
        if action.method == "dec":
            return (True, state - 1) if state > 0 else (False, 0)
        return True, action.argument
