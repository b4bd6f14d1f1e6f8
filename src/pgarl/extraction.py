"""From instruction sequences to threads and back.

Extraction evaluates a canonical program position by position: halts map to
termination, falling off the end or an unreachable jump target to deadlock,
tests to branches, and jump chains are resolved (a chain that revisits a
position without performing an action is deadlock). Units count as a single
instruction for outside jump counting; execution enters a unit at its first
instruction, a jump issued inside a unit counts the remaining inner
instructions individually and then whole outer instructions, and falling off
a unit's end continues after it.

Synthesis goes the other way: every regular thread is laid out as a repeated
program with one test-jump-jump triple per branch equation and one
instruction per terminal equation.
"""

from __future__ import annotations

from .program import (
    AnnClose,
    AnnJump,
    Basic,
    CanonicalProgram,
    Halt,
    HALT,
    Instruction,
    Jump,
    LoopClose,
    LoopHeader,
    NegTest,
    PosTest,
    ProgramError,
    Unit,
    has_units,
    program_instructions,
)
from .threads import (
    DEADLOCK,
    STOP,
    BranchRef,
    Deadlock,
    LinearSpec,
    Stop,
    _require_valid,
    explore,
    thread_equal,
)

Position = tuple[int, tuple[int, ...]]


def _reject_rigid(program: CanonicalProgram) -> None:
    for ins in program_instructions(program):
        if isinstance(ins, (LoopHeader, LoopClose, AnnClose, AnnJump)):
            raise ProgramError(
                "cannot extract a program containing rigid loop or annotated "
                "instructions; project it first"
            )


class _Walker:
    """Position arithmetic over a canonical program, unit-aware.

    A position is (outer, path): the 1-based outer slot (prefix then body,
    wrapping inside the body) plus offsets into nested unit bodies.
    """

    def __init__(self, program: CanonicalProgram):
        self.prefix = program.prefix
        self.body = program.body or ()
        self.plen = len(self.prefix)
        self.blen = len(self.body)

    def outer_norm(self, p: int) -> int | None:
        if p <= self.plen:
            return p
        if self.blen:
            return self.plen + ((p - self.plen - 1) % self.blen) + 1
        return None

    def outer_instruction(self, p: int) -> Instruction:
        if p <= self.plen:
            return self.prefix[p - 1]
        return self.body[p - self.plen - 1]

    def at(self, pos: Position) -> Instruction:
        ins = self.outer_instruction(pos[0])
        for off in pos[1]:
            assert isinstance(ins, Unit)
            ins = ins.body[off - 1]
        return ins

    def _enter(self, pos: Position) -> Position:
        outer, path = pos
        ins = self.at(pos)
        while isinstance(ins, Unit):
            path = path + (1,)
            ins = ins.body[0]
        return (outer, path)

    def start(self) -> Position | None:
        first = self.outer_norm(1)
        if first is None:
            return None
        return self._enter((first, ()))

    def advance(self, pos: Position, distance: int) -> Position | None:
        """The position ``distance`` slots further, or None past the end.
        Inside a unit the remaining inner instructions count one by one;
        every outer instruction (units included) counts as a single slot."""
        outer, path = pos
        if distance == 0:
            return pos
        chain = []
        ins = self.outer_instruction(outer)
        for off in path:
            chain.append(ins.body)  # type: ignore[union-attr]
            ins = ins.body[off - 1]  # type: ignore[union-attr]
        offsets = list(path)
        while offsets:
            containing = chain[len(offsets) - 1]
            remaining = len(containing) - offsets[-1]
            if distance <= remaining:
                offsets[-1] += distance
                return self._enter((outer, tuple(offsets)))
            distance -= remaining
            offsets.pop()
        landing = self.outer_norm(outer + distance)
        if landing is None:
            return None
        return self._enter((landing, ()))

    def resolve(self, pos: Position | None):
        """Follow jump chains from ``pos``; returns STOP, DEADLOCK or the
        position of an action instruction."""
        seen: set[Position] = set()
        while True:
            if pos is None or pos in seen:
                return DEADLOCK
            seen.add(pos)
            ins = self.at(pos)
            if isinstance(ins, Halt):
                return STOP
            if isinstance(ins, Jump):
                if ins.distance == 0:
                    return DEADLOCK
                pos = self.advance(pos, ins.distance)
                continue
            return pos


def _extract(program: CanonicalProgram, allow_units: bool) -> LinearSpec:
    _reject_rigid(program)
    if not allow_units and has_units(program):
        raise ProgramError("program contains unit instructions; use the unit-aware extraction")
    if len(program) == 0:
        return LinearSpec((DEADLOCK,), 1)
    walker = _Walker(program)

    def successors(pos: Position):
        ins = walker.at(pos)
        after = walker.resolve(walker.advance(pos, 1))
        if isinstance(ins, Basic):
            return ins.action, after, after
        skip = walker.resolve(walker.advance(pos, 2))
        if isinstance(ins, PosTest):
            return ins.action, after, skip
        if isinstance(ins, NegTest):
            return ins.action, skip, after
        raise AssertionError(f"unresolved instruction {ins!r}")

    return explore(walker.resolve(walker.start()), successors)


def extract_pga(program: CanonicalProgram) -> LinearSpec:
    """Thread extraction for unit-free programs."""
    return _extract(program, allow_units=False)


def extract_pgau(program: CanonicalProgram) -> LinearSpec:
    """Thread extraction with unit instructions allowed."""
    return _extract(program, allow_units=True)


def synthesize(spec: LinearSpec) -> CanonicalProgram:
    """Lay a regular thread out as a program that extracts back to it.

    Deterministic layout: equations in order inside one repeated body, three
    slots (+action;#yes;#no) per branch equation and one slot (! or #0) per
    terminal; jump distances are (target - source) mod body length. A root
    other than the first equation is reached through a one-jump prefix; a spec
    whose root is already terminal collapses to ``!`` or ``#0``.
    """
    _require_valid(spec)
    root_rhs = spec.rhs(spec.root)
    if isinstance(root_rhs, Stop):
        return CanonicalProgram((HALT,), None)
    if isinstance(root_rhs, Deadlock):
        return CanonicalProgram((Jump(0),), None)

    starts: list[int] = []
    position = 1
    for rhs in spec.equations:
        starts.append(position)
        position += 3 if isinstance(rhs, BranchRef) else 1
    length = position - 1

    body: list[Instruction] = []
    for rhs, start in zip(spec.equations, starts):
        if isinstance(rhs, Stop):
            body.append(HALT)
        elif isinstance(rhs, Deadlock):
            body.append(Jump(0))
        else:
            to_yes = (starts[rhs.yes - 1] - (start + 1)) % length or length
            to_no = (starts[rhs.no - 1] - (start + 2)) % length or length
            body.extend((PosTest(rhs.action), Jump(to_yes), Jump(to_no)))

    root_start = starts[spec.root - 1]
    prefix: tuple[Instruction, ...] = () if root_start == 1 else (Jump(root_start),)
    return CanonicalProgram(prefix, tuple(body))


def behav_equiv(p: CanonicalProgram, q: CanonicalProgram) -> bool:
    """Behavioral equivalence: both programs extract to equal threads."""
    return thread_equal(extract_pgau(p), extract_pgau(q))


def pgau2pga(program: CanonicalProgram) -> CanonicalProgram:
    """Eliminate unit instructions while preserving behavior: extract the
    thread and synthesize a unit-free program for it. Unit-free input is
    returned unchanged."""
    if not has_units(program):
        return program
    return synthesize(extract_pgau(program))
