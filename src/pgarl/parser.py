"""Concrete syntax for instruction sequences.

The grammar is ASCII and whitespace-insensitive between tokens::

    program := part (';' part)*
    part    := instr | '(' seq ')^w'
    seq     := instr (';' instr)*
    instr   := '!' | '#' NAT annots? | '+' action | '-' action | action
             | NAT 'x{' | '}x' | NAT '}x' NAT | 'u(' seq ')'
    annots  := ('(' NAT ',' NAT ')')+
    action  := IDENT | focus '.' IDENT (':' NAT)?     (one token)
    focus   := IDENT (':' NAT)?

IDENT, NAT and a focus are the patterns ``threads.NAME``, ``threads.NAT``
and ``threads.FOCUS`` (``[a-z][a-z0-9_]*``, ``[0-9]+``), which ``Action``
checks and ``--bind`` text is read by too.

The printed form of any program parses back to itself. A focus may carry a
``:NAT`` suffix, so ``rlc:5.set:1`` is the action with focus ``rlc:5``,
method ``set``, and argument 1. Units nest at most ``UNIT_NESTING_LIMIT``
deep; a deeper one is a parse error.
"""

from __future__ import annotations

import re

from .program import (
    CLOSE,
    HALT,
    AnnClose,
    AnnJump,
    Basic,
    CanonicalProgram,
    Instruction,
    Jump,
    LoopHeader,
    NegTest,
    Part,
    PosTest,
    RawProgram,
    Unit,
    canonicalize,
)
from .threads import NAME, NAT, Action

UNIT_NESTING_LIMIT = 100
_SPACE = re.compile(r"\s")


class ParseError(ValueError):
    def __init__(self, message: str, line: int, column: int):
        super().__init__(f"{message} at line {line}, column {column}")
        self.line = line
        self.column = column


class _Scanner:
    def __init__(self, text: str):
        self.text = text
        self.pos = 0
        self.units = 0  # units open around the current position

    def error(self, message: str, pos: int | None = None) -> ParseError:
        at = self.pos if pos is None else pos
        line = self.text.count("\n", 0, at) + 1
        column = at - (self.text.rfind("\n", 0, at) + 1) + 1
        return ParseError(message, line, column)

    def skip_ws(self) -> None:
        while self.pos < len(self.text) and self.text[self.pos].isspace():
            self.pos += 1

    def at_end(self) -> bool:
        self.skip_ws()
        return self.pos >= len(self.text)

    def peek(self, offset: int = 0) -> str:
        at = self.pos + offset
        return self.text[at] if at < len(self.text) else ""

    def take(self, expected: str) -> None:
        self.skip_ws()
        if not self.text.startswith(expected, self.pos):
            raise self.error(f"expected {expected!r}")
        self.pos += len(expected)

    def try_take(self, expected: str) -> bool:
        if self.text.startswith(expected, self.pos):
            self.pos += len(expected)
            return True
        return False

    def take_match(self, pattern: re.Pattern, what: str) -> str:
        """Skip whitespace, then take the text ``pattern`` matches at the cursor."""
        self.skip_ws()
        match = pattern.match(self.text, self.pos)
        if match is None:
            raise self.error(f"expected {what}")
        self.pos = match.end()
        return match[0]

    def take_nat(self) -> int:
        digits = self.take_match(NAT, "a number")
        try:
            return int(digits)
        except ValueError:  # past the interpreter's limit on integer digits
            raise self.error("number too long", self.pos - len(digits)) from None

    def take_ident(self) -> str:
        return self.take_match(NAME, "an identifier")


def _parse_action(sc: _Scanner, first: str | None = None) -> Action:
    """Read ``NAME[:NAT][.NAME[:NAT]]`` (``first`` is the NAME, when the
    caller has taken it). An action is one token: whitespace may come before
    it, but not inside it."""
    name = sc.take_ident() if first is None else first
    start = sc.pos - len(name)
    focus = None
    if sc.peek() == ":":
        mark = sc.pos
        sc.take(":")
        number = sc.take_nat()
        if sc.peek() != ".":
            raise sc.error("an action argument requires a focus.method action", mark)
        focus = f"{name}:{number}"
    elif sc.peek() == ".":
        focus = name
    if focus is None:
        return Action(name)
    sc.take(".")
    method = sc.take_ident()
    argument = None
    if sc.peek() == ":":
        sc.take(":")
        argument = sc.take_nat()
    gap = _SPACE.search(sc.text, start, sc.pos)
    if gap:
        raise sc.error("whitespace inside an action", gap.start())
    return Action(method, focus=focus, argument=argument)


def _parse_annots(sc: _Scanner) -> tuple[tuple[int, int], ...]:
    resets = []
    while True:
        sc.skip_ws()
        if sc.peek() != "(":
            break
        sc.take("(")
        position = sc.take_nat()
        sc.take(",")
        value = sc.take_nat()
        sc.take(")")
        resets.append((position, value))
    return tuple(resets)


def _parse_instruction(sc: _Scanner) -> Instruction:
    sc.skip_ws()
    ch = sc.peek()
    if ch == "!":
        sc.take("!")
        return HALT
    if ch == "#":
        sc.take("#")
        distance = sc.take_nat()
        resets = _parse_annots(sc)
        return AnnJump(distance, resets) if resets else Jump(distance)
    if ch == "+":
        sc.take("+")
        return PosTest(_parse_action(sc))
    if ch == "-":
        sc.take("-")
        return NegTest(_parse_action(sc))
    if ch == "}":
        sc.take("}")
        if sc.peek() != "x":
            raise sc.error("expected 'x' after '}'")
        sc.take("x")
        return CLOSE
    if NAT.match(ch):
        mark = sc.pos
        number = sc.take_nat()
        sc.skip_ws()
        if sc.peek() == "}":
            sc.take("}")
            if sc.peek() != "x":
                raise sc.error("expected 'x' after '}'")
            sc.take("x")
            size = sc.take_nat()
            return AnnClose(number, size)
        if NAME.match(sc.peek()):
            word = sc.take_ident()
            if word == "x" and sc.peek() == "{":
                sc.take("{")
                if number < 1:
                    raise sc.error("loop count must be positive", mark)
                return LoopHeader(number)
        raise sc.error("expected 'x{' or '}x' after a number", mark)
    if NAME.match(ch):
        mark = sc.pos
        name = sc.take_ident()
        if name == "u" and sc.peek() == "(":
            if sc.units == UNIT_NESTING_LIMIT:
                raise sc.error(f"units nested more than {UNIT_NESTING_LIMIT} deep", mark)
            sc.take("(")
            sc.units += 1
            body = _parse_sequence(sc)
            sc.units -= 1
            sc.take(")")
            try:
                return Unit(tuple(body))
            except ValueError as exc:
                raise sc.error(str(exc), mark) from None
        return Basic(_parse_action(sc, first=name))
    raise sc.error("expected an instruction")


def _parse_sequence(sc: _Scanner) -> list[Instruction]:
    """Read ``seq`` up to, not including, its closing ``)``."""
    items = [_parse_instruction(sc)]
    while True:
        sc.skip_ws()
        if sc.peek() == ";":
            sc.take(";")
            items.append(_parse_instruction(sc))
        elif sc.peek() == ")":
            return items
        else:
            raise sc.error("expected ';' or ')'")


def parse_program(text: str) -> RawProgram:
    """Parse source text into a RawProgram; raises ParseError with line and
    column on malformed input."""
    sc = _Scanner(text)
    parts: list[Part] = []
    current: list[Instruction] = []
    while True:
        sc.skip_ws()
        if sc.peek() == "(":
            sc.take("(")
            body = _parse_sequence(sc)
            sc.take(")")
            if not sc.try_take("^w"):
                raise sc.error("expected '^w' after ')'")
            if current:
                parts.append(Part(tuple(current)))
                current = []
            parts.append(Part(tuple(body), repeated=True))
        else:
            current.append(_parse_instruction(sc))
        sc.skip_ws()
        if sc.at_end():
            break
        sc.take(";")
        if sc.at_end():
            raise sc.error("trailing ';'")
    if current:
        parts.append(Part(tuple(current)))
    return RawProgram(tuple(parts))


def parse_canonical(text: str) -> CanonicalProgram:
    """Parse then canonicalize in one step."""
    return canonicalize(parse_program(text))


def parse_action(text: str) -> Action:
    """Parse a single action, e.g. ``rlc:5.set:1``."""
    sc = _Scanner(text)
    sc.skip_ws()
    action = _parse_action(sc)
    if not sc.at_end():
        raise sc.error("unexpected input after action")
    return action
