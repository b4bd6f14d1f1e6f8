"""The thread layer's value types and spec reader as frozen dataclasses and a
closure: the oracle for the tuple types ``pgarl.threads.Action`` and
``pgarl.threads.BranchRef`` and for the step list ``pgarl.threads._spec_states``
lays out.

:class:`Action` and :class:`BranchRef` check, print and compare as the
library's do, but are dataclasses, so they equal no tuple. :func:`spec_states`
validates the whole spec first and then reads one equation per call.
"""

from __future__ import annotations

from dataclasses import dataclass

from pgarl.threads import (
    DEADLOCK,
    FOCUS,
    NAME,
    STOP,
    BranchRef as LibraryBranchRef,
    Stop,
    _require_valid,
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


def spec_states(spec):
    """Read a specification as a state space: returns ``(root, successors)``.
    A state is an equation number, and a terminal equation steps to the
    singleton of its kind. Raises SpecError on an invalid spec."""
    _require_valid(spec)
    equations = spec.equations

    def successors(i: int):
        rhs = equations[i - 1]
        if isinstance(rhs, LibraryBranchRef):
            return rhs.action, rhs.yes, rhs.no
        return STOP if isinstance(rhs, Stop) else DEADLOCK

    return spec.root, successors
