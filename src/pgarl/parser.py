"""Concrete syntax for instruction sequences.

The grammar is ASCII::

    program := part (';' part)*
    part    := instr | '(' seq ')^w'
    seq     := instr (';' instr)*
    instr   := '!' | '#' NAT annots? | '+' action | '-' action | action
             | NAT 'x{' | '}x' | NAT '}x' NAT | 'u(' seq ')'
    annots  := ('(' NAT ',' NAT ')')+
    action  := IDENT | focus '.' IDENT (':' NAT)?     (one token)
    focus   := IDENT (':' NAT)?

Whitespace may come before any token, but never inside one: not inside an
action, ``}x``, ``x{``, ``)^w`` or ``u(``.

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

    def skip_ws(self) -> str:
        """Skip whitespace; return the next character, or "" at the end."""
        while self.text[self.pos : self.pos + 1].isspace():
            self.pos += 1
        return self.text[self.pos : self.pos + 1]

    def at_end(self) -> bool:
        return not self.skip_ws()

    def peek(self) -> str:
        return self.text[self.pos : self.pos + 1]

    def expect(self, expected: str, message: str | None = None) -> None:
        """Take ``expected`` at the cursor, with no whitespace before it."""
        if not self.text.startswith(expected, self.pos):
            raise self.error(message or f"expected {expected!r}")
        self.pos += len(expected)

    def take(self, expected: str) -> None:
        self.skip_ws()
        self.expect(expected)

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


def _glue(sc: _Scanner, separator: str) -> None:
    """Take ``separator`` inside an action and check that the action goes on
    right after it: an action is one token, so whitespace inside it is an
    error where it stands."""
    sc.expect(separator)
    if sc.peek().isspace():
        raise sc.error("whitespace inside an action")


def _parse_action(sc: _Scanner, name: str) -> Action:
    """Read the rest of ``NAME[:NAT][.NAME[:NAT]]``, whose NAME the caller
    has taken, each part glued to the one before it."""
    focus = name
    if sc.peek() == ":":
        mark = sc.pos
        _glue(sc, ":")
        focus += f":{sc.take_nat()}"
        if sc.peek() != ".":
            raise sc.error("an action argument requires a focus.method action", mark)
    elif sc.peek() != ".":
        return Action(name)
    _glue(sc, ".")
    method = sc.take_ident()
    argument = None
    if sc.peek() == ":":
        _glue(sc, ":")
        argument = sc.take_nat()
    return Action(method, focus=focus, argument=argument)


def _parse_instruction(sc: _Scanner) -> Instruction:
    ch = sc.skip_ws()
    mark = sc.pos
    if ch == "!":
        sc.expect("!")
        return HALT
    if ch == "#":
        sc.expect("#")
        distance = sc.take_nat()
        resets = []
        while sc.skip_ws() == "(":
            sc.expect("(")
            position = sc.take_nat()
            sc.take(",")
            resets.append((position, sc.take_nat()))
            sc.take(")")
        return AnnJump(distance, tuple(resets)) if resets else Jump(distance)
    if ch in ("+", "-"):
        sc.expect(ch)
        test = PosTest if ch == "+" else NegTest
        return test(_parse_action(sc, sc.take_ident()))
    if ch == "}":
        sc.expect("}")
        sc.expect("x", "expected 'x' after '}'")
        return CLOSE
    if NAT.match(ch):
        number = sc.take_nat()
        if sc.skip_ws() == "}":
            sc.expect("}")
            sc.expect("x", "expected 'x' after '}'")
            return AnnClose(number, sc.take_nat())
        if not sc.text.startswith("x{", sc.pos):
            raise sc.error("expected 'x{' or '}x' after a number", mark)
        sc.expect("x{")
        if number < 1:
            raise sc.error("loop count must be positive", mark)
        return LoopHeader(number)
    if NAME.match(ch):
        name = sc.take_ident()
        if name != "u" or sc.peek() != "(":
            return Basic(_parse_action(sc, name))
        if sc.units == UNIT_NESTING_LIMIT:
            raise sc.error(f"units nested more than {UNIT_NESTING_LIMIT} deep", mark)
        sc.expect("(")
        sc.units += 1
        body = _parse_sequence(sc)
        sc.units -= 1
        try:
            return Unit(body)
        except ValueError as exc:
            raise sc.error(str(exc), mark) from None
    raise sc.error("expected an instruction")


def _parse_sequence(sc: _Scanner) -> tuple[Instruction, ...]:
    """Read ``seq`` and its closing ``)``."""
    items = [_parse_instruction(sc)]
    while sc.skip_ws() == ";":
        sc.expect(";")
        items.append(_parse_instruction(sc))
    sc.expect(")", "expected ';' or ')'")
    return tuple(items)


def parse_program(text: str) -> RawProgram:
    """Parse source text into a RawProgram; raises ParseError with line and
    column on malformed input."""
    sc = _Scanner(text)
    parts: list[Part] = []
    current: list[Instruction] = []
    ch = sc.skip_ws()
    while True:
        if ch == "(":
            sc.expect("(")
            body = _parse_sequence(sc)
            sc.expect("^w", "expected '^w' after ')'")
            if current:
                parts.append(Part(tuple(current)))
                current = []
            parts.append(Part(body, repeated=True))
        else:
            current.append(_parse_instruction(sc))
        if not sc.skip_ws():
            break
        sc.expect(";")
        if not (ch := sc.skip_ws()):
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
    action = _parse_action(sc, sc.take_ident())
    if not sc.at_end():
        raise sc.error("unexpected input after action")
    return action
