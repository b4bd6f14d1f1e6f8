"""From instruction sequences to threads and back.

Extraction first lays a canonical program out as a flat table: its
executable instructions numbered 0..n-1 in program order, descending into
units, each with its unit level and its slot there, and each level with its
length and its slot in the level above. One pass builds the table and rejects
rigid-loop and annotated instructions. Halts map to termination, falling off
the end or an unreachable jump target to deadlock, tests to branches. Units
count as a single instruction for outside jump counting; execution enters a
unit at its first instruction, a jump issued inside a unit counts the
remaining inner instructions individually and then whole outer instructions
(climbing the level records), and falling off a unit's end continues after
it. Each jump chain is resolved once and remembered; a chain that revisits an
instruction without performing an action is deadlock. The table is then a
state space over instruction numbers (see :mod:`pgarl.threads`), which
extraction numbers, :func:`behav_equiv` compares as it walks it, and the use
operator of :mod:`pgarl.services` reads as the thread it applies services to.

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
    first_difference,
)

_RIGID = (LoopHeader, LoopClose, AnnClose, AnnJump)


def _table_states(program: CanonicalProgram, allow_units: bool):
    """Lay ``program`` out as its flat table and return the table as a
    state space ``(root, successors)``, whose states are the numbers of its
    action instructions."""
    # The flat table: ``table[i]`` is the i-th executable instruction in
    # program order, units descended into, and ``where[i]`` its (level, slot).
    # Level 0 is the outer sequence; ``levels[v]`` is (the first instruction
    # of each slot, the parent level, the slot the unit takes in it).
    outer = program.prefix + (program.body or ())
    plen, blen = len(program.prefix), len(outer) - len(program.prefix)
    table: list[Instruction] = []
    where: list[tuple[int, int]] = []
    levels = [([0] * len(outer), 0, 0)]
    # resolved jump chains, seeded with the instructions that end one
    resolved: dict[int, object] = {}
    stack = [(0, iter(enumerate(outer)))]  # explicit, so the table has no cycle
    while stack:
        level, items = stack[-1]
        for slot, ins in items:
            levels[level][0][slot] = len(table)
            if isinstance(ins, Unit):
                levels.append(([0] * len(ins.body), level, slot))
                stack.append((len(levels) - 1, iter(enumerate(ins.body))))
                break
            if isinstance(ins, _RIGID):
                raise ProgramError(
                    "cannot extract a program containing rigid loop or annotated "
                    "instructions; project it first"
                )
            if isinstance(ins, Halt):
                resolved[len(table)] = STOP
            elif not isinstance(ins, Jump):
                resolved[len(table)] = len(table)
            elif not ins.distance:
                resolved[len(table)] = DEADLOCK
            table.append(ins)
            where.append((level, slot))
        else:
            stack.pop()
    if not allow_units and len(levels) > 1:
        raise ProgramError("program contains unit instructions; use the unit-aware extraction")

    def advance(i: int, distance: int) -> int | None:
        """The instruction ``distance`` slots after i, or None past the end.
        Inside a unit the remaining inner slots count one by one, then the
        unit's own slot in the level above counts as one."""
        level, slot = where[i]
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
        while i is not None and i not in resolved:
            resolved[i] = DEADLOCK  # until the chain ends: a revisit is a cycle
            chain.append(i)
            i = advance(i, table[i].distance)  # type: ignore[attr-defined]
        end = DEADLOCK if i is None else resolved[i]
        for j in chain:
            resolved[j] = end
        return end

    def successors(i: int):
        ins = table[i]
        after = resolve(advance(i, 1))
        if isinstance(ins, Basic):
            return ins.action, after, after
        skip = resolve(advance(i, 2))
        if isinstance(ins, PosTest):
            return ins.action, after, skip
        if isinstance(ins, NegTest):
            return ins.action, skip, after
        raise AssertionError(f"unresolved instruction {ins!r}")

    return resolve(0) if table else DEADLOCK, successors


def extract_pga(program: CanonicalProgram) -> LinearSpec:
    """Thread extraction for unit-free programs."""
    return explore(*_table_states(program, allow_units=False))


def extract_pgau(program: CanonicalProgram) -> LinearSpec:
    """Thread extraction with unit instructions allowed."""
    return explore(*_table_states(program, allow_units=True))


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
    """Behavioral equivalence: both programs extract to equal threads,
    compared as the two tables are walked, without numbering either."""
    return first_difference(_table_states(p, True), _table_states(q, True), False) is None


def pgau2pga(program: CanonicalProgram) -> CanonicalProgram:
    """Eliminate unit instructions while preserving behavior: extract the
    thread and synthesize a unit-free program for it. Unit-free input is
    returned unchanged."""
    if not has_units(program):
        return program
    return synthesize(extract_pgau(program))
