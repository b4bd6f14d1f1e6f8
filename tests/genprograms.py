"""Seeded random program generators shared by the test modules, the
soundness corpus built once from them, and two small spec builders."""

from __future__ import annotations

import functools
import random

from pgarl import (
    Action,
    Basic,
    BranchRef,
    CanonicalProgram,
    DEADLOCK,
    HALT,
    Jump,
    LinearSpec,
    LoopClose,
    LoopHeader,
    NegTest,
    Part,
    PosTest,
    RawProgram,
    STOP,
)

ACTIONS = tuple(Action(name) for name in ("a", "b", "c", "d"))
SOUNDNESS_SEED = 20260808


def lin(*eqs, root=1) -> LinearSpec:
    return LinearSpec(tuple(eqs), root)


def cycle_of(names) -> LinearSpec:
    """The infinite thread repeating the given action names."""
    n = len(names)
    return lin(*[BranchRef(i % n + 1, Action(x), i % n + 1) for i, x in enumerate(names, 1)])


def random_spec(rng: random.Random, max_equations: int = 8) -> LinearSpec:
    n = rng.randint(1, max_equations)
    equations = []
    for _ in range(n):
        roll = rng.random()
        if roll < 0.15:
            equations.append(STOP)
        elif roll < 0.3:
            equations.append(DEADLOCK)
        else:
            equations.append(
                BranchRef(rng.randint(1, n), rng.choice(ACTIONS), rng.randint(1, n))
            )
    return LinearSpec(tuple(equations), rng.randint(1, n))


def _flat_instruction(rng: random.Random):
    roll = rng.random()
    action = rng.choice(ACTIONS)
    if roll < 0.35:
        return Basic(action)
    if roll < 0.55:
        return PosTest(action)
    if roll < 0.65:
        return NegTest(action)
    if roll < 0.70:
        return HALT
    return Jump(0)  # distance filled in later


def _segment(rng: random.Random, budget: int, depth: int) -> list:
    out: list = []
    while len(out) < budget:
        room = budget - len(out)
        if depth < 3 and room >= 3 and rng.random() < 0.3:
            inner_budget = rng.randint(1, min(room - 2, 5))
            inner = _segment(rng, inner_budget, depth + 1)
            out.append(LoopHeader(rng.randint(1, 4)))
            out.extend(inner)
            out.append(LoopClose())
        else:
            out.append(_flat_instruction(rng))
    return out


def _fill_jumps(rng: random.Random, items: list, low: int, high) -> None:
    """Give every placeholder jump a distance; high may depend on position."""
    for i, ins in enumerate(items):
        if isinstance(ins, Jump):
            items[i] = Jump(rng.randint(low, high(i + 1)))


def _avoid_tests_before_closures(items: list, cyclic: bool) -> None:
    n = len(items)
    for pos in range(n):
        if isinstance(items[pos], LoopClose):
            pred = pos - 1 if pos > 0 else (n - 1 if cyclic else None)
            if pred is not None and isinstance(items[pred], (PosTest, NegTest)):
                items[pred] = Basic(items[pred].action)


def random_pgarl(rng: random.Random, shape: str | None = None) -> CanonicalProgram:
    """A well-formed random rigid-loop program: matched loops (counts <= 4,
    nesting <= 3), segments of <= 12 instructions, jumps into and out of
    loops, tests and halts."""
    shape = shape or rng.choice(("omega", "finite", "mixed"))
    if shape == "omega":
        body = _segment(rng, rng.randint(2, 12), 0)
        _fill_jumps(rng, body, 0, lambda pos: len(body) - 1)
        _avoid_tests_before_closures(body, cyclic=True)
        return CanonicalProgram((), tuple(body))
    if shape == "finite":
        prefix = _segment(rng, rng.randint(1, 12), 0)
        _fill_jumps(rng, prefix, 0, lambda pos: len(prefix) + 2)
        _avoid_tests_before_closures(prefix, cyclic=False)
        return CanonicalProgram(tuple(prefix), None)
    prefix = _segment(rng, rng.randint(1, 6), 0)
    body = _segment(rng, rng.randint(2, 12), 0)
    _fill_jumps(rng, prefix, 0, lambda pos: len(prefix) - pos + len(body))
    _fill_jumps(rng, body, 0, lambda pos: len(body) - 1)
    _avoid_tests_before_closures(prefix, cyclic=False)
    _avoid_tests_before_closures(body, cyclic=True)
    if isinstance(prefix[-1], (PosTest, NegTest)) and isinstance(body[0], LoopClose):
        prefix[-1] = Basic(prefix[-1].action)
    return CanonicalProgram(tuple(prefix), tuple(body))


@functools.cache
def _soundness_draw():
    rng = random.Random(SOUNDNESS_SEED)
    shapes = ("omega", "finite", "mixed")
    return tuple(random_pgarl(rng, shape=shapes[i % 3]) for i in range(500)), rng.getstate()


def soundness_corpus() -> tuple[CanonicalProgram, ...]:
    """The 500 programs of acceptance criterion 4: ``random_pgarl`` from
    seed 20260808, with the shapes omega, finite and mixed in turn. Drawn
    once per session; the programs are frozen, so callers share them."""
    return _soundness_draw()[0]


def after_soundness_corpus() -> random.Random:
    """A generator in the state that drawing the corpus left its own in."""
    rng = random.Random()
    rng.setstate(_soundness_draw()[1])
    return rng


def nested_exits(n: int) -> str:
    """n nested two-count loops, each header followed by a jump to the final
    ``b``: ``(2x{;#3n;2x{;#3n-2;...;a;}x;...;b)^w``. Every jump's path
    crosses all n closures, so the counter projection lists n * n resets."""
    heads = ";".join(f"2x{{;#{3 * n + 2 - 2 * i}" for i in range(1, n + 1))
    return f"({heads};a;{'}x;' * n}b)^w"


def random_pga(rng: random.Random, max_len: int = 8) -> RawProgram:
    """A loop-free random program in raw (parts) form."""
    def instructions(count: int, length_hint: int) -> tuple:
        out = []
        for _ in range(count):
            ins = _flat_instruction(rng)
            if isinstance(ins, Jump):
                ins = Jump(rng.randint(0, length_hint + 2))
            out.append(ins)
        return tuple(out)

    n = rng.randint(1, max_len)
    if rng.random() < 0.5:
        split = rng.randint(0, n - 1)
        parts = []
        if split:
            parts.append(Part(instructions(split, n)))
        parts.append(Part(instructions(n - split, n), repeated=True))
        return RawProgram(tuple(parts))
    return RawProgram((Part(instructions(n, n)),))


def rewrite_with_axioms(rng: random.Random, program: RawProgram, steps: int = 3) -> RawProgram:
    """Apply random congruence-preserving rewrites: body duplication, prefix
    unrolling/rotation, and dead code after the repetition."""
    parts = list(program.parts)
    for _ in range(steps):
        rep_at = next((i for i, part in enumerate(parts) if part.repeated), None)
        choice = rng.random()
        if rep_at is None:
            if choice < 0.3 and len(parts) == 1 and not parts[0].repeated:
                seq = parts[0].instructions
                if len(seq) > 1:  # re-associate: split into two parts
                    cut = rng.randint(1, len(seq) - 1)
                    parts = [Part(seq[:cut]), Part(seq[cut:])]
            continue
        rep = parts[rep_at]
        if choice < 0.35:  # repeat the body n times
            n = rng.randint(2, 3)
            parts[rep_at] = Part(rep.instructions * n, repeated=True)
        elif choice < 0.7:  # unroll one instruction into the prefix
            head = rep.instructions[0]
            rotated = rep.instructions[1:] + (rep.instructions[0],)
            parts[rep_at] = Part(rotated, repeated=True)
            parts.insert(rep_at, Part((head,)))
        else:  # dead code after the repetition
            parts = parts[: rep_at + 1] + [Part((Basic(rng.choice(ACTIONS)),))]
    return RawProgram(tuple(parts))
