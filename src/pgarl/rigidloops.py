"""Rigid loops: well-formedness, annotation, and the two projections.

A rigid loop repeats its body a fixed number of times through a counter that
the program itself cannot observe. The counter projection keeps the program
small: it annotates every loop closure with the repetitions left after the
first pass and the body size, replaces each closure by a five-instruction
unit driving a dedicated down counter, packs counter resets onto jumps that
leave a loop, and binds one counter service per closure position. The pure
projection instead unrolls every loop into plain instructions, which is
behaviorally equivalent but blows the program up combinatorially.
:func:`project` picks one of the two, the first step from a program to its
behaviour.

Both projections read the repeated body with normalized jumps, and with the
repetition boundary moved forward past every loop that has its header in the
prefix and its closure in the body. That reading costs about what its output
costs: one pass lists the errors that block a projection, and the boundary
scan stops after the first period when the loop depth is 0 at both of its
ends (then no period splits a loop, and the program is read as it is). The
counter projection's table (``_psi``) then runs only on headers, annotated
closures and annotated jumps, and every other instruction passes through
as it is; the two inner jumps of a closure's unit are shared by all units.

The pure projection is built in time linear in its output by two passes
over the source. The layout pass is its one plan: it matches the loops once,
places the first instance of every instruction, and so gives the output
length and the loop product in closed form (``size_report`` reads both
without building anything). The emission pass follows the plan, with no
bracket matching of its own: at each matched closure it repeats the loop's
finished block and shortens the jumps that leave it, one block per
iteration. Those jumps are read off the
finished block, closing skip included: a jump in it leaves the loop when it
lands at or past the block's end.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from dataclasses import dataclass

from .program import (
    AnnClose,
    AnnJump,
    Basic,
    CanonicalProgram,
    Instruction,
    Jump,
    LoopClose,
    LoopHeader,
    NegTest,
    PosTest,
    Unit,
    has_rigid,
    normalize_jumps,
    program_instructions,
)
from .services import BudgetExceeded, DownCounter, ProjectedProgram, apply_bindings, check_foci
from .threads import Action, LinearSpec

PURE_LENGTH_LIMIT = 10**7
UNSPLIT_LENGTH_LIMIT = 10**6
RESET_LIMIT = 10**7
_SKIP = Jump(1)
# the closure unit's ways to its jump back while the counter is positive, and out of the loop
_REPEAT, _LEAVE = Jump(3), Jump(2)
_PROJECTED = {LoopHeader, AnnClose, AnnJump}  # every other instruction projects to itself


class WellFormednessError(ValueError):
    """Raised when a projection is asked to run on an ill-formed program."""

    def __init__(self, diagnostics: list["Diagnostic"]):
        super().__init__("; ".join(str(d) for d in diagnostics))
        self.diagnostics = diagnostics


@dataclass(frozen=True)
class Diagnostic:
    severity: str  # "error" or "warning"
    position: int | None
    message: str

    def __str__(self) -> str:
        where = f" at {self.position}" if self.position is not None else ""
        return f"{self.severity}{where}: {self.message}"


def _match_loops(instructions) -> tuple[dict[int, int], list[int], list[int]]:
    """Left-to-right innermost matching of headers and closures; returns
    (closure position -> header position, lonely headers, lonely closures)."""
    stack: list[int] = []
    pairs: dict[int, int] = {}
    lonely_closures: list[int] = []
    for pos, ins in enumerate(instructions, 1):
        if isinstance(ins, LoopHeader):
            stack.append(pos)
        elif isinstance(ins, LoopClose):
            if stack:
                pairs[pos] = stack.pop()
            else:
                lonely_closures.append(pos)
    return pairs, stack, lonely_closures


def _unsplit_loops(program: CanonicalProgram) -> CanonicalProgram:
    """The same instruction sequence with no matched loop that has its header
    before the repetition boundary and its closure after it, nor one that
    straddles the boundary between two periods of the repeated body.

    ``canonicalize`` absorbs a suffix of the prefix into the body by rotation,
    which can move a closure past the boundary, a body whose brackets do not
    balance within one period closes prefix headers in later periods, and a
    body can close in each period a loop opened in the period before. This
    moves the boundary forward, X;(Y;Z)^w to X;Y;(Z;Y)^w, to the first place
    where neither boundary of the first period splits a matched loop. Then
    no period closes a header opened before it, so every period matches its
    brackets within itself, like one copy of the body. That place exists:
    once no prefix header is matched later, every period matches like the
    one before; within such a period, every closure that closes an earlier
    period's header comes before every header left open past the period; so
    a boundary right after the last such closure splits nothing.

    The stream X;Y;Y;... is read once, with the depth of the greedy matching
    (as in :func:`_match_loops`) after each position, two periods from the
    boundary. A loop is split exactly when, within one of these periods,
    the depth drops below its value at the start of that period. The first
    such drop closes the innermost loop open at the start of its period, and
    every boundary up to the drop (in the first period) or up to the drop
    less one period (in the second) splits that loop too, so the boundary
    jumps there. When the depth is 0 at both ends of the first period, every
    period matches like the first and none splits a loop, so the scan stops
    there and returns ``program`` itself. A boundary more than
    ``UNSPLIT_LENGTH_LIMIT`` instructions past the written one raises
    BudgetExceeded.
    """
    prefix, body = program.prefix, program.body
    if not body:
        return program
    p, m = len(prefix), len(body)
    depths = [0]  # loops open after each stream position
    moved = p
    while moved is not None:
        boundary = moved
        if boundary - p > UNSPLIT_LENGTH_LIMIT:
            raise BudgetExceeded(
                f"unsplitting would exceed {UNSPLIT_LENGTH_LIMIT} instructions moved to the prefix"
            )
        for end in (boundary + m, boundary + 2 * m):
            for pos in range(len(depths), end + 1):
                kind = type(prefix[pos - 1] if pos <= p else body[(pos - p - 1) % m])
                d = depths[-1]
                if kind is LoopHeader:
                    d += 1
                elif kind is LoopClose and d:
                    d -= 1
                depths.append(d)
            if depths[p] == depths[p + m] == 0:  # every period matches like the first
                return program
        moves = (
            t - (start - boundary)
            for start in (boundary, boundary + m)
            for t in range(start + 1, start + m + 1)
            if depths[t] < depths[start]
        )
        moved = next(moves, None)
    periods, turn = divmod(boundary - p, m)
    return CanonicalProgram(prefix + body * periods + body[:turn], body[turn:] + body[:turn])


def _errors(program: CanonicalProgram) -> list[Diagnostic]:
    """The diagnostics that block projection: annotated instructions, then
    units in a program with a loop bracket (a rigid-loop program is PGA
    plus loop instructions, and neither projection reads the jumps inside a
    unit), then loop closures directly preceded by a test (wrapping within
    the body). One pass collects all three."""
    body = program.body or ()
    flat = program.prefix + body
    start = len(program.prefix) + 1  # the body's first position, also run right after its last
    wrapped = type(body[-1]) if body else None
    annotated, units, closures = [], [], []
    bracketed = False
    previous = None
    for pos, ins in enumerate(flat, 1):
        kind = type(ins)
        if kind is LoopClose:
            bracketed = True
            if previous in (PosTest, NegTest) or pos == start and wrapped in (PosTest, NegTest):
                closures.append(Diagnostic(
                    "error", pos, "loop closure directly preceded by a test instruction"))
        elif kind is LoopHeader:
            bracketed = True
        elif kind is AnnClose or kind is AnnJump:
            annotated.append(Diagnostic("error", pos, "annotated instruction in a source program"))
        elif kind is Unit:
            units.append(Diagnostic("error", pos, "unit instruction in a rigid-loop program"))
        previous = kind
    return annotated + (units if bracketed else []) + closures


def validate_pgarl(program: CanonicalProgram) -> list[Diagnostic]:
    """Check the projection restrictions. Errors block projection; lonely
    headers and closures are legal (they act as skips) and only warn.

    Brackets are matched as both projections read them, on
    :func:`_unsplit_loops`'s form, and a bracket warns only if no copy of it
    there is matched; positions are the written program's. Like the
    projections, this raises BudgetExceeded when that form is too long.
    """
    out = _errors(program)
    plen, k = len(program.prefix), len(program.body or ())
    unsplit = _unsplit_loops(program)
    pairs, lonely_headers, lonely_closures = _match_loops(unsplit.prefix + (unsplit.body or ()))

    def written(positions) -> set[int]:
        return {q if q <= plen else plen + 1 + (q - plen - 1) % k for q in positions}

    matched = written(pairs) | written(pairs.values())
    for lonely, kind, other in (
        (lonely_headers, "header", "closure"),
        (lonely_closures, "closure", "header"),
    ):
        out += [
            Diagnostic("warning", pos, f"loop {kind} has no matching {other}; acts as a skip")
            for pos in sorted(written(lonely) - matched)
        ]
    return out + [
        Diagnostic(
            "warning",
            plen + offset,
            f"jump distance {ins.distance:d} in a repeated body of length {k} "
            "never reaches another instruction",
        )
        for offset, ins in enumerate(normalize_jumps(program.body) if k else (), 1)
        if isinstance(ins, Jump) and ins.distance >= k
    ]


def require_well_formed(program: CanonicalProgram) -> None:
    """Raise WellFormednessError with the error diagnostics of
    :func:`validate_pgarl`, if there are any; warnings pass."""
    errors = _errors(program)
    if errors:
        raise WellFormednessError(errors)


def annotate(instructions, cyclic: bool = False) -> tuple[Instruction, ...]:
    """Annotate one instruction list.

    First pass: match headers and closures (:func:`_match_loops`); a closure
    whose header carries count c and whose body spans m instructions becomes
    the annotated closure (c-1, m), and a closure with no header becomes
    (0, 0). Second pass: a jump whose path crosses annotated closures becomes
    an annotated jump listing those closure positions (in increasing order)
    with their left annotations. A jump of distance d at p crosses the
    closures at p < j < p + d; with ``cyclic`` the path wraps, so it crosses
    those with 0 < (j - p) mod n < d, where n is the body length. The
    resets of all jumps are counted from the bisection bounds before any is
    listed, and more than ``RESET_LIMIT`` of them raise BudgetExceeded.
    """
    items = list(instructions)
    n = len(items)
    pairs, _, lonely_closures = _match_loops(items)
    for pos, header_pos in pairs.items():
        items[pos - 1] = AnnClose(items[header_pos - 1].count - 1, pos - header_pos - 1)
    for pos in lonely_closures:
        items[pos - 1] = AnnClose(0, 0)
    closures = [(j, ins.remaining) for j, ins in enumerate(items, 1) if isinstance(ins, AnnClose)]
    positions = [j for j, _ in closures]

    def between(low: int, high: int) -> range:
        """The indices in ``closures`` of those at low < j < high, by bisection."""
        return range(bisect_right(positions, low), bisect_left(positions, high))

    crossings = {  # jump position -> the closures its path crosses, wrapped part first
        pos: (
            between(0, min(pos, pos + ins.distance - n)) if cyclic else range(0),
            between(pos, pos + ins.distance),
        )
        for pos, ins in enumerate(items, 1)
        if isinstance(ins, Jump)
    }
    resets = sum(len(wrapped) + len(ahead) for wrapped, ahead in crossings.values())
    if resets > RESET_LIMIT:
        raise BudgetExceeded(
            f"annotation would list {resets} counter resets, over the limit of {RESET_LIMIT}"
        )
    for pos, (wrapped, ahead) in crossings.items():
        crossed = closures[wrapped.start : wrapped.stop] + closures[ahead.start : ahead.stop]
        if crossed:
            items[pos - 1] = AnnJump(items[pos - 1].distance, tuple(crossed))
    return tuple(items)


def _psi(ins: Instruction, position: int, body_len: int, sets: dict[int, Basic]) -> Instruction:
    """The counter projection of one header, annotated closure or annotated
    jump, with ``sets`` the counter initialization of each closure position.
    Every other instruction projects to itself and is not passed here."""
    kind = type(ins)
    if kind is LoopHeader:
        return _SKIP
    if kind is AnnJump:
        return Unit(tuple(sets[j] for j, _ in ins.resets) + (Jump(ins.distance),))
    init = sets[position]
    dec = PosTest(Action("dec", focus=init.action.focus))
    return Unit((dec, _REPEAT, init, _LEAVE, Jump(body_len - ins.body_size)))


def _omega_form(program: CanonicalProgram) -> tuple[Instruction, ...]:
    """Bring any canonical shape to a single repeated body.

    A body-only program is taken as is (jumps normalized). A repetition-free
    program is wrapped with two trailing dead jumps, capping every jump so it
    lands at most on them. A mixed program appends two wrap-back jumps of the
    prefix length + 2 after the body; they lead back to the body start past
    the prefix, which only runs once. Body jumps that would wrap are raised by
    the same amount.
    """
    if program.body is not None and not program.prefix:
        return normalize_jumps(program.body)
    if program.body is None:
        k = len(program.prefix)
        wrapped = [
            Jump(min(ins.distance, k + 2 - i)) if isinstance(ins, Jump) else ins
            for i, ins in enumerate(program.prefix, 1)
        ]
        return tuple(wrapped) + (Jump(0), Jump(0))
    k = len(program.prefix)
    m = len(program.body)
    head = [  # a jump past the first period lands as many periods earlier
        Jump(k - i + 1 + (ins.distance - (k - i) - 1) % m)
        if isinstance(ins, Jump) and ins.distance > k - i + m
        else ins
        for i, ins in enumerate(program.prefix, 1)
    ]
    mid: list[Instruction] = []
    for i, ins in enumerate(normalize_jumps(program.body), 1):
        if isinstance(ins, Jump) and i + ins.distance > m:
            ins = Jump(ins.distance + k + 2)
        mid.append(ins)
    return tuple(head) + tuple(mid) + (Jump(k + 2), Jump(k + 2))


# xi_tail is kept only because bench/workloads.py passes it; it leaves with ROADMAP item 1
def project_counter(program: CanonicalProgram, xi_tail: str = "derived") -> ProjectedProgram:
    """The counter-service projection.

    The output program starts with one counter initialization per annotated
    closure, followed by the repeated body with headers turned into skips,
    closures into counter-driving units, and annotated jumps into units that
    reset the counters of every loop they leave. Each closure position gets
    its own down-counter binding. A loop that the canonical form split across
    the prefix/repetition boundary is made whole first (:func:`_unsplit_loops`).

    ``xi_tail`` names the wrap-back distance of :func:`_omega_form`; only
    ``"derived"`` exists, and any other value raises ValueError.
    """
    if xi_tail != "derived":
        raise ValueError(f"unknown wrap-back tail {xi_tail!r}; the only one is 'derived'")
    if not has_rigid(program):  # then nothing is ill-formed: every error needs a rigid instruction
        return ProjectedProgram(program, ())
    require_well_formed(program)
    # no jump of the omega form reaches past its end, so normalizing it changes
    # nothing: with k the prefix length and m the body length, body jumps are
    # normalized and then raised by at most k + 2, the head jump at i is folded
    # to at most k - i + m, and a prefix-only jump at i is capped at k + 2 - i
    body = _omega_form(_unsplit_loops(program))
    annotated = annotate(body, cyclic=True)
    # one initialization per counter, whose focus names its closure's position:
    # the prefix, the closure and every reset share it
    sets = {pos: Basic(Action("set", focus=f"rlc:{pos}", argument=ins.remaining))
            for pos, ins in enumerate(annotated, 1) if type(ins) is AnnClose}
    mapped = [_psi(ins, pos, len(body), sets) if type(ins) in _PROJECTED else ins
              for pos, ins in enumerate(annotated, 1)]
    bindings = tuple((init.action.focus, DownCounter(0, init.action.argument))
                     for init in sets.values())
    return ProjectedProgram(CanonicalProgram(tuple(sets.values()), tuple(mapped)), bindings)


# xi_tail is kept only because bench/workloads.py passes it; it leaves with ROADMAP item 1
def defining_thread(program: CanonicalProgram, xi_tail: str = "derived") -> LinearSpec:
    """The meaning of a rigid-loop program: project with counters, then apply
    the counter services (:func:`pgarl.services.apply_bindings`). ``xi_tail``
    is as in :func:`project_counter`."""
    return apply_bindings(project_counter(program, xi_tail))


def project(program: CanonicalProgram, via: str = "defining", bindings=()) -> ProjectedProgram:
    """The program whose thread, under its bindings, is the behaviour of
    ``program``: the first step of every path from a program to its
    behaviour, before :func:`pgarl.services.bound_states`. ``"defining"``
    gives the counter projection, bound to its loop counters and then to
    ``bindings`` (a sequence of (focus, service)); ``"pure"`` gives the pure
    projection (:func:`project_pure`, which also normalizes the jumps of a
    program with no rigid loops), bound to ``bindings``. The counter
    projection checks the program before the foci are checked, and the pure
    projection after."""
    bindings = tuple(bindings)
    if via == "defining":
        counted = project_counter(program)
        return ProjectedProgram(counted.program, counted.bindings + bindings)
    if via != "pure":
        raise ValueError(f"unknown projection {via!r}; expected 'defining' or 'pure'")
    check_foci(bindings)
    return ProjectedProgram(project_pure(program), bindings)


def _pure_layout(program: CanonicalProgram) -> tuple[list[Instruction], int, list[int], dict, int]:
    """The layout pass, the pure projection's one plan: check the program,
    then walk it once. Returns the program as one source list (the prefix,
    then the repeated body with normalized jumps), lonely brackets already
    turned into skips; the prefix length; ``first``; the matched loops
    (closure position -> header position); and the loop product.

    An output instruction is a source position together with the iteration
    of each loop enclosing it; ``first[p]`` is the output position of p in
    the first iteration of all of them, and ``first[-1]`` is one past the
    last output position, so the output length is ``first[-1] - 1``. A loop
    of count c whose body expands to L instructions takes c blocks of L + 2
    (one skip per bracket), and its iteration i sits i blocks after the
    first. The loop product is the most output copies of one source
    position: the copies of the current position are multiplied by a loop's
    count at its header and divided by it at its closure."""
    require_well_formed(program)
    program = _unsplit_loops(program)
    source = list(program.prefix)
    plen = len(source)
    if program.body:
        source.extend(normalize_jumps(program.body))
    pairs, lonely_headers, lonely_closures = _match_loops(source)
    for pos in lonely_headers + lonely_closures:
        source[pos - 1] = _SKIP
    first = [0] * (len(source) + 2)
    end = 0  # output instructions laid out so far
    copies = product = 1
    for pos, ins in enumerate(source, 1):
        end += 1
        first[pos] = end
        if type(ins) is LoopHeader:  # every bracket left is matched
            copies *= ins.count
            product = max(product, copies)
        elif (header := pairs.get(pos)) is not None:
            end = first[header] - 1 + source[header - 1].count * (end - first[header] + 1)
            copies //= source[header - 1].count
    first[-1] = end + 1
    return source, plen, first, pairs, product


def project_pure(program: CanonicalProgram) -> CanonicalProgram:
    """Remove every rigid loop by unrolling it: a loop of count c becomes c
    copies of its expanded body, each between two skips that replace the
    brackets. Lonely headers and closures become skips. A loop that the
    canonical form split across the prefix/repetition boundary is first made
    whole again by moving the boundary (:func:`_unsplit_loops`). The repeated
    body's jumps are normalized first, as in the counter projection.

    Two linear passes build the result. The layout pass (:func:`_pure_layout`)
    is the plan: it matches the loops, places the first instance of every
    source instruction and gives the output length, which is checked against
    ``PURE_LENGTH_LIMIT`` before anything is built. The emission pass then
    walks the source once and repeats a block where the plan places one: at
    the closure of each matched loop, the finished block from the header's
    first instance on is repeated count - 1 times, with the jumps that leave
    the loop read off that block. A jump keeps the iteration of every loop
    enclosing both it and its target and enters every other loop in its
    first iteration, so its distance is fixed by the layout except for the
    loops it leaves: in iteration i of such a loop it is i blocks shorter. A
    jump leaves a loop when it lands past the loop's first block, because its
    target's first instance comes after all of the loop's blocks. A jump past
    the end of the repeated body lands in a later period, each one body's
    output length further on.

    The result has the shape of a :class:`CanonicalProgram` but is not always
    in first canonical form: its body need not be its minimal period, and a
    suffix of its prefix may be one that ``canonicalize`` absorbs. So its
    printed text can read back as another value with the same thread (on 33
    of the 500 programs of the soundness corpus; the counter projection's
    never did there).
    """
    source, plen, first, pairs, _ = _pure_layout(program)
    length = first[-1] - 1
    if length > PURE_LENGTH_LIMIT:
        raise BudgetExceeded(
            f"the pure projection would have {length} instructions, "
            f"over the limit of {PURE_LENGTH_LIMIT}"
        )
    n = len(source)
    period = first[-1] - first[plen + 1]  # output length of one repeated body

    def target(q: int) -> int:
        """Output position of the first instance of stream position q."""
        if q <= n:
            return first[q]
        if not program.body:
            return first[-1] + q - n - 1
        periods, offset = divmod(q - plen - 1, n - plen)
        return first[plen + 1 + offset] + periods * period

    out: list[Instruction] = []
    for pos, ins in enumerate(source, 1):
        if isinstance(ins, (LoopHeader, LoopClose)):
            out.append(_SKIP)
            if (header := pairs.get(pos)) is not None:  # repeat the finished block out[start:end]
                start, end, count = first[header] - 1, first[pos], source[header - 1].count
                leaving = [at for at, jump in enumerate(out[start:-1], start)
                           if type(jump) is Jump and at + jump.distance >= end]
                out.extend(out[start:] * (count - 1))
                for i in range(1, count):
                    for at in leaving:
                        out[at + i * (end - start)] = Jump(out[at].distance - i * (end - start))
        elif isinstance(ins, Jump) and ins.distance:
            out.append(Jump(target(pos + ins.distance) - first[pos]))
        else:
            out.append(ins)
    cut = first[plen + 1] - 1
    return CanonicalProgram(tuple(out[:cut]), tuple(out[cut:]) if program.body else None)


@dataclass(frozen=True)
class SizeReport:
    """Instruction counts of a program and its two projections. Outer counts
    treat a unit as one instruction; the expanded count sums unit bodies.
    ``loop_product`` is the largest product of iteration counts along one
    nesting chain (1 when there are no loops), read with no loop split
    across the repetition boundary, as both projections read it."""

    source_len: int
    pure_len: int
    counter_len: int
    counter_len_expanded: int
    loop_product: int


def size_report(program: CanonicalProgram) -> SizeReport:
    """Measure the source against both projections. The pure length and the
    loop product come from the layout pass alone (:func:`_pure_layout`), so
    the pure program is never built and its loop nest is read once."""
    counter = project_counter(program).program
    _, _, first, _, loop_product = _pure_layout(program)
    return SizeReport(
        source_len=len(program),
        pure_len=first[-1] - 1,
        counter_len=len(counter),
        counter_len_expanded=sum(
            not isinstance(ins, Unit) for ins in program_instructions(counter)
        ),
        loop_product=loop_product,
    )
