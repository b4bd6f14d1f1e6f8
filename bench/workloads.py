"""Seeded inputs, ops and reference checks of the four workloads.

The generators live here rather than in ``tests/`` so that an edit to the test
suite cannot change what the benchmark measures. Every op starts from program
text and calls the library in the order the matching CLI handler does
(``_cmd_equiv`` or ``_cmd_simulate``); library functions are looked up on their
modules at call time so that the tracer can wrap them. ``run`` holds only the
library calls and is what gets timed; ``check`` compares the result with a
reference built here by hand, never by pgarl, and runs outside the timer.

Sizes come from fixed ladders of 15 classes, shuffled per cycle; the seed draws
everything else (action names, counts inside chains, reply scripts, which
references are mutated and where). A run always measures whole cycles, so each
class is timed equally often and, with an odd ladder, the median and the 90th
percentile fall inside one class rather than between two.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from pgarl import extraction, parser, program, rigidloops, services, threads
from pgarl.threads import Action, BranchRef, LinearSpec

# Errors the CLI maps to an exit code. An op that raises one has failed; any
# other exception is a fault of the benchmark and ends the run.
DOCUMENTED_ERRORS = (
    program.ProgramError,
    rigidloops.WellFormednessError,
    services.DivergenceSuspected,
)

# Action names the generators draw from; ``x`` and ``u`` would read as loop or
# unit syntax next to other tokens, and ``z`` is kept for mutated references.
NAMES = "abcdefghijklmnopqrstvwy"
MUTANT = "z"


class WrongVerdict(Exception):
    """The library's answer differs from the hand-built reference."""


def _cycle_spec(actions: list[str]) -> LinearSpec:
    """The thread that performs ``actions`` in order, forever."""
    n = len(actions)
    return LinearSpec(
        tuple(BranchRef(i % n + 1, Action(a), i % n + 1) for i, a in enumerate(actions, 1))
    )


def _program_spec(prog, via: str):
    """Build the spec the CLI's ``_program_spec`` builds, through the same calls."""
    if program.has_rigid(prog):
        if via == "pure":
            return extraction.extract_pgau(rigidloops.project_pure(prog))
        return rigidloops.defining_thread(prog, "derived")
    if program.has_units(prog):
        return extraction.extract_pgau(prog)
    return extraction.extract_pga(prog)


# --------------------------------------------------------------------------
# corpus: random rigid-loop programs, defining thread against pure projection


@dataclass(frozen=True)
class CorpusOp:
    text: str


def _flat_token(rng: random.Random) -> list:
    roll = rng.random()
    action = rng.choice("abcd")
    if roll < 0.35:
        return ["basic", action]
    if roll < 0.55:
        return ["pos", action]
    if roll < 0.65:
        return ["neg", action]
    if roll < 0.70:
        return ["halt"]
    return ["jump", 0]


def _segment(rng: random.Random, budget: int, depth: int) -> list:
    out: list = []
    while len(out) < budget:
        room = budget - len(out)
        if depth < 3 and room >= 3 and rng.random() < 0.3:
            inner = _segment(rng, rng.randint(1, min(room - 2, 5)), depth + 1)
            out.append(["open", rng.randint(1, 4)])
            out.extend(inner)
            out.append(["close"])
        else:
            out.append(_flat_token(rng))
    return out


def _fill_jumps(rng: random.Random, items: list, high) -> None:
    for i, token in enumerate(items, 1):
        if token[0] == "jump":
            token[1] = rng.randint(0, high(i))


def _no_test_before_close(items: list, cyclic: bool) -> None:
    for pos, token in enumerate(items):
        if token[0] == "close":
            pred = pos - 1 if pos > 0 else (len(items) - 1 if cyclic else None)
            if pred is not None and items[pred][0] in ("pos", "neg"):
                items[pred][0] = "basic"


def _render(items: list) -> str:
    forms = {
        "basic": "{}",
        "pos": "+{}",
        "neg": "-{}",
        "halt": "!",
        "jump": "#{}",
        "open": "{}x{{",
        "close": "}}x",
    }
    return ";".join(forms[token[0]].format(*token[1:]) for token in items)


def corpus_program(rng: random.Random, shape: str) -> str:
    """A well-formed random rigid-loop program as text: loop counts <= 4,
    nesting <= 3, segments of <= 12 instructions, tests, halts and jumps into
    and out of loops. Same distribution and draw order as the test suite's
    ``random_pgarl``."""
    if shape == "omega":
        body = _segment(rng, rng.randint(2, 12), 0)
        _fill_jumps(rng, body, lambda pos: len(body) - 1)
        _no_test_before_close(body, cyclic=True)
        return f"({_render(body)})^w"
    if shape == "finite":
        prefix = _segment(rng, rng.randint(1, 12), 0)
        _fill_jumps(rng, prefix, lambda pos: len(prefix) + 2)
        _no_test_before_close(prefix, cyclic=False)
        return _render(prefix)
    prefix = _segment(rng, rng.randint(1, 6), 0)
    body = _segment(rng, rng.randint(2, 12), 0)
    _fill_jumps(rng, prefix, lambda pos: len(prefix) - pos + len(body))
    _fill_jumps(rng, body, lambda pos: len(body) - 1)
    _no_test_before_close(prefix, cyclic=False)
    _no_test_before_close(body, cyclic=True)
    if prefix[-1][0] in ("pos", "neg") and body[0][0] == "close":
        prefix[-1][0] = "basic"
    return f"{_render(prefix)};({_render(body)})^w"


class Corpus:
    """Acceptance criterion 4 on text: the defining thread and the extracted
    pure projection must be equal."""

    name = "corpus"

    def cycle(self, rng: random.Random) -> list[CorpusOp]:
        return [CorpusOp(corpus_program(rng, shape)) for shape in ("omega", "finite", "mixed") * 5]

    def run(self, op: CorpusOp):
        prog = program.canonicalize(parser.parse_program(op.text))
        defining = rigidloops.defining_thread(prog)
        pure = extraction.extract_pgau(rigidloops.project_pure(prog))
        return threads.thread_equal(defining, pure)

    def check(self, op: CorpusOp, equal: bool) -> None:
        if not equal:
            raise WrongVerdict(f"defining thread and pure projection differ on {op.text}")


# --------------------------------------------------------------------------
# nested and chain: equiv against a hand-built cycle, one in four mutated


@dataclass(frozen=True)
class EquivOp:
    text: str
    reference: LinearSpec
    # None when the reference is the program's behaviour; otherwise the step at
    # which the mutated reference first differs, and the actions compared there.
    witness_steps: int | None
    reason: str | None


def _equiv_op(rng: random.Random, text: str, actions: list[str]) -> EquivOp:
    if rng.random() < 0.25:
        at = rng.randrange(len(actions))
        reason = f"action {actions[at]} vs action {MUTANT}"
        actions = actions[:at] + [MUTANT] + actions[at + 1:]
        return EquivOp(text, _cycle_spec(actions), at, reason)
    return EquivOp(text, _cycle_spec(actions), None, None)


class _Equiv:
    """An ``equiv`` op through the projection named by ``via``."""

    via: str

    def run(self, op: EquivOp):
        prog = program.canonicalize(parser.parse_program(op.text))
        return threads.distinguish(_program_spec(prog, self.via), op.reference)

    def check(self, op: EquivOp, witness) -> None:
        if op.witness_steps is None:
            if witness is not None:
                raise WrongVerdict(f"{op.text} reported different from its own behaviour")
            return
        if witness is None:
            raise WrongVerdict(f"{op.text} reported equal to a mutated reference")
        if len(witness.steps) != op.witness_steps or witness.reason != op.reason:
            raise WrongVerdict(
                f"{op.text}: witness of {len(witness.steps)} steps ({witness.reason}), "
                f"expected {op.witness_steps} steps ({op.reason})"
            )


class Nested(_Equiv):
    """``equiv --via pure`` on two- and three-deep nests; the pure projection
    unrolls them and dominates the op."""

    name = "nested"
    via = "pure"
    LADDER = (
        (8, 8), (8, 16), (12, 12), (8, 24), (24, 8), (16, 16), (16, 20), (20, 20),
        (20, 24), (24, 24), (8, 8, 2), (6, 6, 6), (8, 8, 4), (16, 8, 2), (12, 8, 3),
    )

    @staticmethod
    def nest(counts: tuple[int, ...], names: list[str]) -> tuple[str, list[str]]:
        """Text and action cycle of nested loops, outermost count first; each
        loop but the innermost ends its body with an action of its own."""
        *outer, innermost = counts
        text = f"{innermost}x{{;{names[0]};}}x"
        actions = [names[0]] * innermost
        for count, tail in zip(reversed(outer), names[1:]):
            text = f"{count}x{{;{text};{tail};}}x"
            actions = (actions + [tail]) * count
        return f"({text})^w", actions

    def cycle(self, rng: random.Random) -> list[EquivOp]:
        ops = []
        for counts in rng.sample(self.LADDER, len(self.LADDER)):
            text, actions = self.nest(counts, rng.sample(NAMES, len(counts)))
            ops.append(_equiv_op(rng, text, actions))
        return ops


class Chain(_Equiv):
    """``equiv --via defining`` on k sequential loops; the use operator makes
    one product pass per loop counter and dominates the op."""

    name = "chain"
    via = "defining"
    LADDER = tuple(range(20, 63, 3))

    def cycle(self, rng: random.Random) -> list[EquivOp]:
        ops = []
        for k in rng.sample(self.LADDER, len(self.LADDER)):
            tail = rng.choice(NAMES)
            loops, actions = [], []
            for i in range(k):
                count, name = rng.randint(2, 6), f"{rng.choice(NAMES)}{i}"
                loops.append(f"{count}x{{;{name};{tail};}}x")
                actions += [name, tail] * count
            ops.append(_equiv_op(rng, f"({';'.join(loops)})^w", actions))
        return ops


# --------------------------------------------------------------------------
# simulate: live walks against counter services with long reply scripts


@dataclass(frozen=True)
class SimulateOp:
    text: str
    bindings: tuple  # the services of the CLI's --bind, as (focus, service)
    replies: str  # the CLI's --replies
    max_steps: int
    steps: tuple[tuple[str, bool], ...]  # expected visible steps
    status: str


def loops_trace(n: int, m: int, names: list[str], replies: list[bool]) -> list[tuple[str, bool]]:
    """Closed form of ``(n x{;+t;#2;u;v;m x{;w;}x;}x;z)^w`` under ``replies``:
    each of n passes shows t, then u only when t was answered false, then v
    and m times w; z follows the n passes, and all of it repeats until the
    replies run out."""
    t, u, v, w, z = names
    steps: list[tuple[str, bool]] = []

    def emit(action: str) -> bool:
        steps.append((action, replies[len(steps)]))
        return len(steps) < len(replies)

    while True:
        for _ in range(n):
            if not emit(t) or (not steps[-1][1] and not emit(u)):
                return steps
            for action in [v] + [w] * m:
                if not emit(action):
                    return steps
        if not emit(z):
            return steps


class Simulate:
    """``simulate`` with long reply scripts: rigid-loop programs against their
    counter bindings, and the full-counter family of acceptance criterion 8."""

    name = "simulate"
    LADDER = (
        ("loops", 2, 2, 1500), ("loops", 3, 5, 2500), ("loops", 4, 4, 3000),
        ("loops", 5, 7, 4000), ("loops", 6, 3, 5000), ("loops", 8, 8, 6000),
        ("loops", 3, 8, 7000), ("loops", 7, 2, 8000), ("counter", 600),
        ("counter", 1200), ("counter", 1800), ("counter", 2400), ("counter", 3000),
        ("counter", 3600), ("counter", 4000),
    )

    def cycle(self, rng: random.Random) -> list[SimulateOp]:
        ops = []
        for family, *sizes in rng.sample(self.LADDER, len(self.LADDER)):
            make = self._loops if family == "loops" else self._counter
            ops.append(make(rng, *sizes))
        return ops

    @staticmethod
    def _script(replies: list[bool]) -> str:
        return "".join("T" if reply else "F" for reply in replies)

    def _loops(self, rng: random.Random, n: int, m: int, length: int) -> SimulateOp:
        names = rng.sample(NAMES, 5)
        t, u, v, w, z = names
        replies = [rng.random() < 0.5 for _ in range(length)]
        return SimulateOp(
            f"({n}x{{;+{t};#2;{u};{v};{m}x{{;{w};}}x;}}x;{z})^w",
            (),
            self._script(replies),
            length,
            tuple(loops_trace(n, m, names, replies)),
            "cutoff",
        )

    def _counter(self, rng: random.Random, n: int) -> SimulateOp:
        # criterion 8: Q = (k.inc . Q) <a> R ; R = (b . R) <k.dec> S, which
        # answers T^n F with a^(n+1), then shows b n times and stops.
        a, b, k = rng.sample(NAMES, 3)
        tail = [rng.random() < 0.5 for _ in range(n)]
        replies = [True] * n + [False] + tail
        return SimulateOp(
            f"(+{a};#2;#3;{k}.inc;#6;+{k}.dec;#2;!;{b};#6)^w",
            ((k, services.full_counter()),),
            self._script(replies),
            len(replies),
            tuple([(a, True)] * n + [(a, False)] + [(b, reply) for reply in tail]),
            "S",
        )

    def run(self, op: SimulateOp):
        prog = program.canonicalize(parser.parse_program(op.text))
        bindings = op.bindings
        if program.has_rigid(prog):
            projected = rigidloops.project_counter(prog, "derived")
            spec = extraction.extract_pgau(projected.program)
            bindings = tuple(projected.bindings) + bindings
        else:
            spec = extraction.extract_pgau(prog)
        script = threads.ReplyScript.from_text(op.replies)
        return services.simulate_with_services(spec, bindings, script, op.max_steps)

    def check(self, op: SimulateOp, trace) -> None:
        steps = tuple((str(action), reply) for action, reply in trace.steps)
        if trace.status != op.status or steps != op.steps:
            raise WrongVerdict(
                f"{op.text}: {len(steps)} steps ending {trace.status}, "
                f"expected {len(op.steps)} ending {op.status}"
            )


WORKLOADS = {w.name: w for w in (Corpus(), Nested(), Chain(), Simulate())}
