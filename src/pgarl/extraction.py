"""From instruction sequences to threads and back.

Extraction first lays a canonical program out as a flat table: its
executable instructions numbered 0..n-1 in program order, descending into
units, in int lists that give each entry its unit level, its slot there and
where its jump chain ends, and each level its slot starts and its slot in
the level above. One pass builds the table, dispatching on each
instruction's exact type, and rejects rigid-loop and annotated
instructions. Halts map to termination, falling off the end or an
unreachable jump target to deadlock, tests to branches. Units count as a
single instruction for outside jump counting; execution enters a unit at its
first instruction, a jump issued inside a unit counts the remaining inner
instructions individually and then whole outer instructions (climbing the
level records), and falling off a unit's end continues after it. Units are
nonempty and laid out contiguously, so the instruction after entry i is
entry i + 1, or past the last entry the body's first: an action's
fall-through and a ``#1`` cost an addition, and only skips and longer jumps
climb the levels. Each jump chain is resolved the first time a walk reaches
it and remembered; a chain that revisits an instruction without performing
an action is deadlock. The table is then a state space over instruction
numbers (see :mod:`pgarl.threads`), which extraction numbers,
:func:`behav_equiv` compares as it walks it, and the use operator of
:mod:`pgarl.services` reads as the thread it applies services to.

Synthesis goes the other way: every regular thread is laid out as a repeated
program with one test-jump-jump triple per branch equation and one
instruction per terminal equation.
"""

from __future__ import annotations

from .program import (
    Basic,
    CanonicalProgram,
    Halt,
    HALT,
    Instruction,
    Jump,
    NegTest,
    PosTest,
    ProgramError,
    Unit,
    has_units,
)
from .threads import (
    DEADLOCK,
    STOP,
    BranchRef,
    Deadlock,
    LinearSpec,
    Stop,
    _spec_states,
    explore,
    first_difference,
)


def _table_states(program: CanonicalProgram):
    """Lay ``program`` out as its flat table and return the table as a
    state space ``(root, successors)``, whose states are the numbers of its
    action instructions. ``successors`` resolves the jump chains after an
    action only when a walk first steps it, so a walk that stops early
    resolves little of a large table."""
    # Entry i of the table is the i-th executable instruction in program
    # order, units descended into: ``table[i]``, at slot ``slot_of[i]`` of unit
    # level ``level_of[i]``. Level 0 is the outer sequence; ``levels[v]`` is
    # (the first entry of each slot, the parent level, the slot the unit takes
    # in it). Units are nonempty and laid out contiguously, so the entry after
    # i is i + 1, or past the end the body's first entry. ``resolved[i]`` is
    # where the jump chain from i ends: STOP for a halt, i itself for an
    # action, DEADLOCK for #0, and for any other jump None until a walk
    # first reaches it.
    outer = program.prefix + (program.body or ())
    plen, blen = len(program.prefix), len(outer) - len(program.prefix)
    table: list[Instruction] = []
    level_of: list[int] = []
    slot_of: list[int] = []
    resolved: list = []
    levels = [([0] * len(outer), 0, 0)]
    stack = [(0, iter(enumerate(outer)))]  # explicit, so the table has no cycle
    while stack:
        level, items = stack[-1]
        starts = levels[level][0]
        for slot, ins in items:
            starts[slot] = len(table)
            kind = type(ins)
            if kind is Jump:
                resolved.append(None if ins.distance else DEADLOCK)
            elif kind is Basic or kind is PosTest or kind is NegTest:
                resolved.append(len(table))
            elif kind is Halt:
                resolved.append(STOP)
            elif kind is Unit:
                levels.append(([0] * len(ins.body), level, slot))
                stack.append((len(levels) - 1, iter(enumerate(ins.body))))
                break
            else:
                raise ProgramError(
                    "cannot extract a program containing rigid loop or annotated "
                    "instructions; project it first"
                )
            table.append(ins)
            level_of.append(level)
            slot_of.append(slot)
        else:
            stack.pop()
    last = len(table) - 1
    first = levels[0][0][plen] if blen else None  # where falling off the end continues

    def advance(i: int, distance: int) -> int | None:
        """The instruction ``distance`` slots after i, or None past the end.
        Inside a unit the remaining inner slots count one by one, then the
        unit's own slot in the level above counts as one."""
        level, slot = level_of[i], slot_of[i]
        while level:
            starts, up, up_slot = levels[level]
            if slot + distance < len(starts):
                return starts[slot + distance]
            distance -= len(starts) - 1 - slot
            level, slot = up, up_slot
        slot += distance
        if slot >= plen:
            if not blen:
                return None
            slot = plen + (slot - plen) % blen
        return levels[0][0][slot]

    def resolve(i: int | None):
        """STOP, DEADLOCK or the action instruction the jump chain from i
        reaches; a chain that revisits an instruction is deadlock."""
        chain = []
        while i is not None:
            end = resolved[i]
            if end is not None:
                break
            resolved[i] = DEADLOCK  # until the chain ends: a revisit is a cycle
            chain.append(i)
            distance = table[i].distance  # type: ignore[attr-defined]
            i = (i + 1 if i < last else first) if distance == 1 else advance(i, distance)
        else:
            end = DEADLOCK
        for j in chain:
            resolved[j] = end
        return end

    def successors(i: int):
        ins = table[i]
        after = resolve(i + 1 if i < last else first)
        kind = type(ins)
        if kind is Basic:
            return ins.action, after, after
        skip = resolve(advance(i, 2))
        if kind is PosTest:
            return ins.action, after, skip
        return ins.action, skip, after

    return resolve(0) if table else DEADLOCK, successors


def extract_pga(program: CanonicalProgram) -> LinearSpec:
    """Thread extraction for unit-free programs. A rigid-loop instruction is
    reported before a unit."""
    space = _table_states(program)
    if has_units(program):
        raise ProgramError("program contains unit instructions; use the unit-aware extraction")
    return explore(*space)


def extract_pgau(program: CanonicalProgram) -> LinearSpec:
    """Thread extraction with unit instructions allowed."""
    return explore(*_table_states(program))


def synthesize(spec: LinearSpec) -> CanonicalProgram:
    """Lay a regular thread out as a program that extracts back to it.

    Deterministic layout: equations in order inside one repeated body, three
    slots (+action;#yes;#no) per branch equation and one slot (! or #0) per
    terminal; jump distances are (target - source) mod body length. A root
    other than the first equation is reached through a one-jump prefix; a spec
    whose root is already terminal collapses to ``!`` or ``#0``.
    """
    _spec_states(spec)  # raises SpecError on an invalid spec
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
    """Behavioral equivalence: both programs extract to equal threads,
    compared as the two tables are walked, without numbering either."""
    return first_difference(_table_states(p), _table_states(q), False) is None


def pgau2pga(program: CanonicalProgram) -> CanonicalProgram:
    """Eliminate unit instructions while preserving behavior: extract the
    thread and synthesize a unit-free program for it. Unit-free input is
    returned unchanged."""
    if not has_units(program):
        return program
    return synthesize(extract_pgau(program))
