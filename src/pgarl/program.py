"""Instruction sequences: primitive and extended instructions, concatenation
and repetition, and the first canonical form.

A program is a finite instruction list, a repeated list, or a finite prefix
followed by a repeated part. Canonicalization truncates everything after the
first repetition, reduces the repeated body to its minimal period, and absorbs
a maximal suffix of the prefix into the body by rotation; two programs are
instruction-sequence congruent exactly when their canonical forms coincide.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from typing import Iterable, Iterator

from .threads import Action

# Units nest at most this deep, so that every walk over a unit's body, and
# the parser, stays far from Python's recursion limit.
UNIT_NESTING_LIMIT = 100


class ProgramError(ValueError):
    """A program was used in a way its shape does not support."""


class DeadCodeWarning(UserWarning):
    """Instructions after a repetition are unreachable and get dropped."""


class Instruction:
    """Base class for all instructions."""


@dataclass(frozen=True)
class Basic(Instruction):
    """Perform the action; the reply is ignored."""

    action: Action


@dataclass(frozen=True)
class PosTest(Instruction):
    """Perform the action; on false skip the next instruction."""

    action: Action


@dataclass(frozen=True)
class NegTest(Instruction):
    """Perform the action; on true skip the next instruction."""

    action: Action


@dataclass(frozen=True)
class Halt(Instruction):
    """Successful termination (written ``!``)."""


@dataclass(frozen=True)
class Jump(Instruction):
    """Jump ``distance`` instructions forward; 0 jumps to itself (deadlock),
    1 acts as a skip."""

    distance: int

    def __post_init__(self) -> None:
        if not isinstance(self.distance, int) or self.distance < 0:
            raise ValueError("jump distance must be a natural number")


@dataclass(frozen=True)
class LoopHeader(Instruction):
    """Open a rigid loop repeating its body ``count`` times (written
    ``3x{``)."""

    count: int

    def __post_init__(self) -> None:
        if not isinstance(self.count, int) or self.count < 1:
            raise ValueError("loop count must be positive")


@dataclass(frozen=True)
class LoopClose(Instruction):
    """Close the most recently opened rigid loop (written ``}x``)."""


def _naturals(m, n) -> bool:
    """Whether both values are ints of at least 0 (a bool is an int)."""
    return isinstance(m, int) and isinstance(n, int) and m >= 0 and n >= 0


@dataclass(frozen=True)
class AnnClose(Instruction):
    """Annotated loop closure ``n}x m``: ``remaining`` repetitions still to
    run after the first pass, over a body of ``body_size`` instructions."""

    remaining: int
    body_size: int

    def __post_init__(self) -> None:
        if not _naturals(self.remaining, self.body_size):
            raise ValueError("closure annotations must be natural numbers")


@dataclass(frozen=True)
class AnnJump(Instruction):
    """Annotated jump ``#l(j1,n1)...``: a jump of ``distance`` whose path
    crosses annotated closures at the listed positions; each crossed loop
    counter is reset to the paired value."""

    distance: int
    resets: tuple[tuple[int, int], ...]

    def __post_init__(self) -> None:
        if not isinstance(self.distance, int) or self.distance < 0:
            raise ValueError("jump distance must be a natural number")
        resets = self.resets  # (position, value) pairs; with none it would be a Jump
        if not (isinstance(resets, tuple) and resets and all(isinstance(pair, tuple)
                and len(pair) == 2 and _naturals(*pair) for pair in resets)):
            raise ValueError("annotated jump resets must be nonempty pairs of natural numbers")


@dataclass(frozen=True)
class Unit(Instruction):
    """A wrapped fragment that counts as a single instruction for outside
    jump counting while executing its body instruction by instruction. Units
    nest at most ``UNIT_NESTING_LIMIT`` deep, as the parser reads them."""

    body: tuple[Instruction, ...]

    def __post_init__(self) -> None:
        if not self.body:
            raise ValueError("unit body must be nonempty")
        depth = 1  # units nested here, this one included; kept beside the fields
        for ins in self.body:
            if isinstance(ins, (LoopHeader, LoopClose, Unit)):
                if not isinstance(ins, Unit):
                    raise ValueError("rigid loop instructions are not allowed inside a unit")
                depth = max(depth, ins.depth + 1)
        if depth > UNIT_NESTING_LIMIT:
            raise ValueError(f"units nested more than {UNIT_NESTING_LIMIT} deep")
        self.__dict__["depth"] = depth


HALT = Halt()
CLOSE = LoopClose()


@dataclass(frozen=True)
class Part:
    """One concatenation operand: a finite instruction list, possibly
    repeated."""

    instructions: tuple[Instruction, ...]
    repeated: bool = False

    def __post_init__(self) -> None:
        if self.repeated and not self.instructions:
            raise ValueError("repeated part must be nonempty")


@dataclass(frozen=True)
class RawProgram:
    """Parsed program: concatenated parts as written. The parser accepts
    instructions after a repetition; canonicalization drops them."""

    parts: tuple[Part, ...]


@dataclass(frozen=True)
class CanonicalProgram:
    """First canonical form shape: a finite prefix and an optional repeated
    body (prefix only, body only, or both)."""

    prefix: tuple[Instruction, ...] = ()
    body: tuple[Instruction, ...] | None = None

    def __post_init__(self) -> None:
        if self.body is not None and not self.body:
            raise ValueError("repeated body must be nonempty when present")

    def __len__(self) -> int:
        return len(self.prefix) + (len(self.body) if self.body else 0)


def walk_instructions(instructions: Iterable[Instruction]) -> Iterator[Instruction]:
    """All instructions, descending into unit bodies."""
    for ins in instructions:
        yield ins
        if isinstance(ins, Unit):
            yield from walk_instructions(ins.body)


def program_instructions(program: CanonicalProgram) -> Iterator[Instruction]:
    yield from walk_instructions(program.prefix)
    if program.body:
        yield from walk_instructions(program.body)


def has_units(program: CanonicalProgram) -> bool:
    return any(isinstance(ins, Unit) for ins in program_instructions(program))


def has_rigid(program: CanonicalProgram) -> bool:
    return any(
        isinstance(ins, (LoopHeader, LoopClose, AnnClose, AnnJump))
        for ins in program_instructions(program)
    )


def format_instruction(ins: Instruction) -> str:
    """The text of one instruction; every number is written as the int it
    equals, so ``Jump(True)`` is ``#1``."""
    if isinstance(ins, Halt):
        return "!"
    if isinstance(ins, Jump):
        return f"#{ins.distance:d}"
    if isinstance(ins, AnnJump):
        return f"#{ins.distance:d}" + "".join(f"({j:d},{n:d})" for j, n in ins.resets)
    if isinstance(ins, Basic):
        return str(ins.action)
    if isinstance(ins, PosTest):
        return f"+{ins.action}"
    if isinstance(ins, NegTest):
        return f"-{ins.action}"
    if isinstance(ins, LoopHeader):
        return f"{ins.count:d}x{{"
    if isinstance(ins, LoopClose):
        return "}x"
    if isinstance(ins, AnnClose):
        return f"{ins.remaining:d}}}x{ins.body_size:d}"
    if isinstance(ins, Unit):
        return f"u({format_sequence(ins.body)})"
    raise TypeError(f"not an instruction: {ins!r}")


def format_sequence(instructions: Iterable[Instruction]) -> str:
    return ";".join(format_instruction(ins) for ins in instructions)


def format_program(program: RawProgram | CanonicalProgram) -> str:
    if isinstance(program, RawProgram):
        chunks = []
        for part in program.parts:
            text = format_sequence(part.instructions)
            chunks.append(f"({text})^w" if part.repeated else text)
        return ";".join(chunks)
    chunks = []
    if program.prefix:
        chunks.append(format_sequence(program.prefix))
    if program.body:
        chunks.append(f"({format_sequence(program.body)})^w")
    return ";".join(chunks)


def _minimal_period(body: list[Instruction]) -> list[Instruction]:
    n = len(body)  # nonempty, so d = n at the latest returns
    for d in range(1, n + 1):
        if n % d == 0 and body == body[:d] * (n // d):
            return body[:d]


def canonicalize(program: RawProgram) -> CanonicalProgram:
    """Reduce to first canonical form: drop everything after the first
    repetition, shrink the body to its minimal period, then absorb the
    longest possible prefix suffix into the body by right rotation."""
    prefix: list[Instruction] = []
    body: list[Instruction] | None = None
    for i, part in enumerate(program.parts):
        if part.repeated:
            body = list(part.instructions)
            if i + 1 < len(program.parts):
                warnings.warn(
                    "instructions after a repetition are unreachable and were dropped",
                    DeadCodeWarning,
                    stacklevel=2,
                )
            break
        prefix.extend(part.instructions)
    if body is None:
        return CanonicalProgram(tuple(prefix), None)
    body = _minimal_period(body)
    # after k one-step rotations the body ends with its instruction k places
    # (mod m) before the last: count the absorbed instructions, then rotate once
    m, k = len(body), 0
    while k < len(prefix) and prefix[-1 - k] == body[-1 - k % m]:
        k += 1
    turn = m - k % m
    return CanonicalProgram(tuple(prefix[: len(prefix) - k]), tuple(body[turn:] + body[:turn]))


def congruent(p: RawProgram, q: RawProgram) -> bool:
    """Instruction-sequence congruence: identical canonical forms."""
    return canonicalize(p) == canonicalize(q)


def normalize_jumps(body: Iterable[Instruction]) -> tuple[Instruction, ...]:
    """Reduce jump distances inside a repeated body of length k: a distance
    m > k wraps to ((m-1) mod k) + 1, which lands on the same instruction of
    the periodic stream; distances up to and including k stay as written."""
    items = tuple(body)
    if not items:
        raise ProgramError("cannot normalize jumps of an empty body")
    k = len(items)
    out = []
    for ins in items:
        if isinstance(ins, Jump) and ins.distance > k:
            ins = Jump(((ins.distance - 1) % k) + 1)
        out.append(ins)
    return tuple(out)
