"""Concrete syntax for instruction sequences.

The grammar is ASCII::

    program := part (';' part)*
    part    := instr | '(' seq ')^w'
    seq     := instr (';' instr)*
    instr   := '!' | '#' NAT annots? | '+' action | '-' action | action
             | NAT 'x{' | '}x' | NAT '}x' NAT | 'u(' seq ')'
    annots  := ('(' NAT ',' NAT ')')+
    action  := IDENT | focus '.' IDENT (':' NAT)?
    focus   := IDENT (':' NAT)?

Text is read one token at a time with one pattern, ``_TOKEN``: whitespace,
then exactly one token, which is ``x{``, ``}x``, ``)^w`` or ``u(``, a whole
action ``NAME[:NAT][.NAME[:NAT]]``, a NAT, any other single character, or
the end of the text. So whitespace may come before any token and never
inside one. An action's pattern reads as much of that shape as the text
has, and a part it leaves empty is the error where it stands (``whitespace
inside an action``, when whitespace stands there). Where an action is
expected, ``x{`` and ``u(`` are the actions ``x`` and ``u`` before a stray
character; where a unit or an annotation closes, ``)^w`` is ``)`` before
a stray ``^``.

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
    UNIT_NESTING_LIMIT,
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

_TOKEN = re.compile(
    r"\s*(?:(?P<glued>x\{|\}x|\)\^w|u\()|(?P<char>[^a-z0-9]|\Z)"
    rf"|(?P<nat>{NAT.pattern})|(?P<action>(?P<name>{NAME.pattern})(?::(?P<focus>[0-9]*))?"
    rf"(?:\.(?P<method>(?:{NAME.pattern})?)(?::(?P<argument>[0-9]*))?)?))"
)


class ParseError(ValueError):
    def __init__(self, message: str, line: int, column: int):
        super().__init__(f"{message} at line {line}, column {column}")
        self.line = line
        self.column = column


class _Scanner:
    """One token of lookahead over ``text``: ``match`` is the current match
    of ``_TOKEN``, ``kind`` the name of its alternative, ``token`` its text
    ("" at the end) and ``at`` where that text starts."""

    def __init__(self, text: str):
        self.text = text
        self.shared: dict[str, Instruction] = {}  # sign and action text -> their instruction
        self.advance(0)

    def advance(self, pos: int | None = None) -> None:
        """Read the token after ``pos``, by default after the current one."""
        match = self.match = _TOKEN.match(self.text, self.match.end() if pos is None else pos)
        self.kind = kind = match.lastgroup
        self.token = match[kind]
        self.at = match.start(kind)

    def error(self, message: str, at: int | None = None) -> ParseError:
        at = self.at if at is None else at
        line = self.text.count("\n", 0, at) + 1
        return ParseError(message, line, at - self.text.rfind("\n", 0, at))

    def expect(self, token: str) -> None:
        """Take ``token``, which may start the current one as ``)`` starts ``)^w``."""
        if not self.token.startswith(token):
            raise self.error(f"expected {token!r}")
        self.advance(self.at + len(token))

    def prefix(self, pattern: re.Pattern, what: str) -> re.Match:
        """Take what ``pattern`` matches at the start of the current token;
        the rest of that token is read again as the next one."""
        match = pattern.match(self.text, self.at)
        if match is None:
            raise self.error(f"expected {what}")
        self.advance(match.end())
        return match

    def part(self, group: str, what: str) -> str:
        """The text of ``group`` in the current token: the token itself, or a
        part of an action, which is empty where the text stops short."""
        text = self.match[group]
        if text:
            return text
        at = self.at if text is None else self.match.start(group)
        inside = self.text[at : at + 1].isspace()
        raise self.error("whitespace inside an action" if inside else f"expected {what}", at)

    def number(self, group: str = "nat") -> int:
        digits = self.part(group, "a number")
        try:
            return int(digits)
        except ValueError:  # past the interpreter's limit on integer digits
            raise self.error("number too long", self.match.start(group)) from None

    def nat(self) -> int:
        number = self.number()
        self.advance()
        return number


def _action(sc: _Scanner) -> Action:
    """Take the action at the current token."""
    if sc.kind != "action":  # x{ and u( are the actions x and u before a stray character
        return Action(sc.prefix(NAME, "an identifier")[0])
    focus, method, argument = sc.match.group("name", "method", "argument")
    if sc.match["focus"] is not None:
        focus += f":{sc.number('focus')}"
        if method is None:
            raise sc.error("an action argument requires a focus.method action",
                           sc.match.start("focus") - 1)
    if method is not None:
        method = sc.part("method", "an identifier")
        argument = None if argument is None else sc.number("argument")
    sc.advance()
    return Action(focus) if method is None else Action(method, focus, argument)


_TESTS = {"+": PosTest, "-": NegTest}


def _instruction(sc: _Scanner, units: int = 0) -> Instruction:
    """Take one instruction inside ``units`` units. The instructions that
    perform an action are one object per sign and action text, so each
    distinct action is read once."""
    start, token = sc.at, sc.token
    sign = token if token in _TESTS else ""
    if sign:
        sc.advance()
    if sc.kind == "action":
        key = sign + sc.token
        if key in sc.shared:
            sc.advance()
        else:
            sc.shared[key] = _TESTS.get(sign, Basic)(_action(sc))
        return sc.shared[key]
    if sign or token == "x{":  # an error, or the action x before a stray '{'
        return _TESTS.get(sign, Basic)(_action(sc))
    if token == "u(":
        if units == UNIT_NESTING_LIMIT:
            raise sc.error(f"units nested more than {UNIT_NESTING_LIMIT} deep")
        body = _sequence(sc, units + 1)
        sc.expect(")")
        try:
            return Unit(body)
        except ValueError as exc:
            raise sc.error(str(exc), start) from None
    if token == "!":
        sc.advance()
        return HALT
    if token == "#":
        sc.advance()
        distance = sc.nat()
        resets = []
        while sc.token == "(":
            sc.advance()
            position = sc.nat()
            sc.expect(",")
            resets.append((position, sc.nat()))
            sc.expect(")")
        return AnnJump(distance, tuple(resets)) if resets else Jump(distance)
    if sc.kind == "nat" or token in ("}", "}x"):  # NAT x{, }x or NAT }x NAT
        number = sc.nat() if sc.kind == "nat" else None
        if sc.token == "}":
            raise sc.error("expected 'x' after '}'", sc.at + 1)
        if sc.token == "}x":
            sc.advance()
            return CLOSE if number is None else AnnClose(number, sc.nat())
        if sc.token != "x{":
            raise sc.error("expected 'x{' or '}x' after a number", start)
        if number < 1:
            raise sc.error("loop count must be positive", start)
        sc.advance()
        return LoopHeader(number)
    raise sc.error("expected an instruction")


def _sequence(sc: _Scanner, units: int = 0) -> tuple[Instruction, ...]:
    """Take the ``(`` or ``u(`` that opens a ``seq``, and the ``seq`` up to
    its closing ``)``, which the caller takes."""
    items: list[Instruction] = []
    while not items or sc.token == ";":
        sc.advance()  # the opening token, then each ';'
        items.append(_instruction(sc, units))
    if not sc.token.startswith(")"):
        raise sc.error("expected ';' or ')'")
    return tuple(items)


def parse_program(text: str) -> RawProgram:
    """Parse source text into a RawProgram; raises ParseError with line and
    column on malformed input."""
    sc = _Scanner(text)
    parts: list[Part] = []
    current: list[Instruction] = []
    while True:
        if sc.token == "(":
            body = _sequence(sc)
            if sc.token != ")^w":
                raise sc.error("expected '^w' after ')'", sc.at + 1)
            sc.advance()
            if current:
                parts.append(Part(tuple(current)))
                current = []
            parts.append(Part(body, repeated=True))
        else:
            current.append(_instruction(sc))
        if not sc.token:
            break
        sc.expect(";")
        if not sc.token:
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
    action = _action(sc)
    if sc.token:
        raise sc.error("unexpected input after action")
    return action
