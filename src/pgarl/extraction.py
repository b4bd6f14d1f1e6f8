"""From instruction sequences to threads and back.

Extraction first lays a canonical program out as a flat table: its
executable instructions numbered 0..n-1 in program order, descending into
units. The table costs what a walk reads. A unit-free sequence is the table
as it stands; a sequence with units is laid out one stretch (a run of slots
between units) at a time, in C-level slices, with one record per stretch and
per unit level instead of one per entry. One pass over each level's
instruction types rejects rigid-loop and annotated instructions before any
step. An entry is classified the first time a jump chain reaches it: an
action ends the chain at itself, a halt at termination, ``#0``, falling off
the end or an unreachable jump target at deadlock, and any other jump is
followed. Units count as a single instruction for outside jump counting;
execution enters a unit at its first instruction, a jump issued inside a unit
counts the remaining inner instructions individually and then whole outer
instructions (climbing the level records), and falling off a unit's end
continues after it. Units are nonempty and laid out contiguously, so the
instruction after entry i is entry i + 1, or past the last entry the body's
first: an action's fall-through, a ``#1`` and a jump that stays in its
stretch cost an addition, and only jumps that leave a stretch climb the
levels. Each chain is remembered once resolved; a chain that revisits an
instruction without performing an action is deadlock. The table is then a
state space over instruction numbers (see :mod:`pgarl.threads`), which
extraction numbers, :func:`behav_equiv` compares as it walks it, and the use
operator of :mod:`pgarl.services` reads as the thread it applies services
to.

Synthesis goes the other way: every regular thread is laid out as a repeated
program with one test-jump-jump triple per branch equation and one
instruction per terminal equation.
"""

from __future__ import annotations

from bisect import bisect_right
from itertools import chain

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


_EXECUTABLE = frozenset((Basic, PosTest, NegTest, Halt, Jump, Unit))  # what extraction reads


def _table_states(program: CanonicalProgram):
    """Lay ``program`` out as its flat table and return the table as a
    state space ``(root, successors)``, whose states are the numbers of its
    action instructions. An entry is classified, and the jump chains after
    an action are resolved, only when a walk first reaches them, so a walk
    that stops early reads little of a large table."""
    # Entry i of the table is the i-th executable instruction in program
    # order, units descended into. Level 0 is the outer sequence and each
    # unit body a level of its own, whose record is (the first entry of each
    # slot, the parent level's record or None, the slot the unit takes
    # there); a level without units numbers its slots with a range. A
    # stretch is a run of slots of one level between its units; the table
    # takes it whole, and ``firsts``, ``owners`` and ``offsets`` give its
    # first entry, its level's record and its first slot minus that entry.
    # Units are nonempty and laid out contiguously, so the entry after i is
    # i + 1, or past the end the body's first entry. ``resolved[i]`` is
    # where the jump chain from i ends, None until a walk first reaches i,
    # and DEADLOCK past the last entry.
    outer = program.prefix + (program.body or ())
    plen, blen = len(program.prefix), len(outer) - len(program.prefix)
    parts, firsts, owners, offsets, types, stack, n = [], [], [], [], set(), [], 0
    # the sequence scanned, its instruction types or None for a new level,
    # its level's record or the parent's, and its next slot or the unit's
    # slot; ``stack`` holds the scans a unit interrupted, explicit so that
    # the table has no cycle
    seq, kinds, level, slot = outer, None, None, None
    while True:
        if kinds is None:  # the outer sequence or a unit body
            types |= (new := set(map(type, seq)))
            kinds = [*map(type, seq), Unit] if Unit in new else ()  # a unit past the end
            level, slot = ([] if kinds else range(n, n + len(seq)), level, slot), 0
        end = kinds.index(Unit, slot) if kinds else len(seq)
        firsts.append(n)
        owners.append(level)
        offsets.append(slot - n)
        parts.append(seq[slot:end])
        if kinds:
            level[0].extend(range(n, n + end - slot))
        n += end - slot
        if end < len(seq):  # descend into the unit at end
            level[0].append(n)
            stack.append((seq, kinds, level, end + 1))
            seq, kinds, slot = seq[end].body, None, end
        elif stack:
            seq, kinds, level, slot = stack.pop()
        else:
            break
    if not types <= _EXECUTABLE:  # one pass over each level's types found them all
        raise ProgramError("cannot extract a program containing rigid loop or "
                           "annotated instructions; project it first")
    firsts.append(n)  # where the last stretch ends
    table = parts[0] if len(parts) == 1 else [*chain.from_iterable(parts)]
    resolved = [None] * (n + 1)  # one allocation, not a copy
    resolved[n] = DEADLOCK  # falling off the end
    last = n - 1

    def advance(i: int, distance: int) -> int:
        """The instruction ``distance`` slots after i, or n past the end.
        Inside a unit the remaining inner slots count one by one, then the
        unit's own slot in the level above counts as one."""
        k = bisect_right(firsts, i)
        if i + distance < firsts[k]:  # still in i's stretch
            return i + distance
        starts, parent, up_slot = owners[k - 1]
        slot = offsets[k - 1] + i + distance  # the target slot in i's level
        while parent and slot >= len(starts):
            slot += up_slot + 1 - len(starts)
            starts, parent, up_slot = parent
        if not parent and slot >= plen and blen:
            slot = plen + (slot - plen) % blen
        return starts[slot] if slot < len(starts) else n

    # falling off the end continues at level 0's slot plen; level 0's first
    # stretch, laid out first, has the record of level 0
    first = owners[0][0][plen] if blen else n

    def resolve(i: int):
        """STOP, DEADLOCK or the action instruction the jump chain from i
        reaches, each entry classified the first time a chain reaches it:
        an action ends at itself, a halt at STOP, #0 at DEADLOCK, and any
        other jump is followed. A chain that revisits an instruction is
        deadlock."""
        trail = []
        while (end := resolved[i]) is None:
            kind = type(ins := table[i])
            if kind is not Jump or not ins.distance:
                end = resolved[i] = DEADLOCK if kind is Jump else STOP if kind is Halt else i
                break
            resolved[i] = DEADLOCK  # until the chain ends: a revisit is a cycle
            trail.append(i)
            i = (i + 1 if i < last else first) if ins.distance == 1 else advance(i, ins.distance)
        for j in trail:
            resolved[j] = end
        return end

    def successors(i: int):
        after = resolve(i + 1 if i < last else first)
        kind = type(ins := table[i])
        if kind is Basic:
            return ins.action, after, after
        skip = resolve(advance(i, 2))
        if kind is PosTest:
            return ins.action, after, skip
        return ins.action, skip, after

    return resolve(0), successors


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
