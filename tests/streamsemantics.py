"""A direct interpreter of X;Y^w read as one instruction stream: the normative
oracle for both rigid-loop projections.

The stream is the prefix X followed by the body Y repeated forever; stream
positions count from 1. Headers and closures are matched greedily on the
stream itself, innermost first. Each matched loop instance (a header at one
stream position) has one counter, which starts at count - 1. A matched
closure decrements a positive counter and goes to the instruction after its
header; at zero it resets the counter and falls through. A jump resets the
counters of the loops whose closures it jumps over. Matched headers and
lonely brackets are skips. A silent run that revisits a (position, counters)
pair, or that runs more than ``PERIOD_LIMIT`` periods past where it started,
is deadlock, and so is running off the end of a finite program.
"""

from __future__ import annotations

from pgarl import (
    DEADLOCK,
    STOP,
    Basic,
    CanonicalProgram,
    Halt,
    Jump,
    LoopClose,
    LoopHeader,
    NegTest,
    PosTest,
)
from pgarl.threads import _bounded, explore

PERIOD_LIMIT = 8


class _Stream:
    """The instruction stream of one program with its bracket matching.

    Matching is computed on a finite window of the stream and is final for
    every closure in it. A header at h is matched, if ever, within
    (|X| + 1) periods after max(h, |X|): past the prefix, a period that does
    not close it either leaves it open for good (the body opens at least as
    many loops as it closes) or lowers the depth by at least one. So the
    window is widened whenever a header nearer its end than that is asked
    about.
    """

    def __init__(self, program: CanonicalProgram) -> None:
        self.prefix = program.prefix
        self.body = program.body or ()
        self.window = 0
        self.header_of: dict[int, int] = {}  # closure position -> header position
        self.reach(len(self.prefix) + PERIOD_LIMIT * len(self.body))

    def at(self, p: int):
        """The instruction at stream position p, or None past the end."""
        if p <= len(self.prefix):
            return self.prefix[p - 1]
        if not self.body:
            return None
        return self.body[(p - len(self.prefix) - 1) % len(self.body)]

    def reach(self, p: int) -> None:
        """Make the matching final for every position up to p."""
        reach = max(p, len(self.prefix)) + (len(self.prefix) + 1) * len(self.body)
        if reach <= self.window:
            return
        self.window = 2 * reach if self.body else reach
        stack: list[int] = []
        self.header_of.clear()
        for q in range(1, self.window + 1):
            ins = self.at(q)
            if isinstance(ins, LoopHeader):
                stack.append(q)
            elif isinstance(ins, LoopClose) and stack:
                self.header_of[q] = stack.pop()

    def resolve(self, p: int, counters: tuple):
        """Run silent steps from (p, counters) to a visible instruction;
        returns STOP, DEADLOCK or (position, counters, instruction)."""
        seen = set()
        start = p
        while True:
            ins = self.at(p)
            if ins is None:
                return DEADLOCK
            if isinstance(ins, Halt):
                return STOP
            if isinstance(ins, (Basic, PosTest, NegTest)):
                return p, counters, ins
            if (p, counters) in seen or self.body and p > start + PERIOD_LIMIT * len(self.body):
                return DEADLOCK
            seen.add((p, counters))
            self.reach(p)
            values = dict(counters)
            if isinstance(ins, Jump):
                for q in range(p + 1, p + ins.distance):
                    self.reach(q)
                    values.pop(self.header_of.get(q), None)
                p += ins.distance
            elif isinstance(ins, LoopClose) and p in self.header_of:
                h = self.header_of[p]
                left = values.pop(h, self.at(h).count - 1)
                if left > 0:
                    values[h] = left - 1
                    p = h + 1
                else:
                    p += 1
            elif isinstance(ins, (LoopHeader, LoopClose)):
                p += 1
            else:
                raise TypeError(f"not a source instruction: {ins!r}")
            counters = tuple(sorted(values.items()))


def stream_states(program: CanonicalProgram):
    """The program's stream thread as a state space (see
    ``pgarl.threads.explore``): a state is a (position, counters) pair before
    its silent steps are run, and it steps as the visible instruction they
    reach."""
    stream = _Stream(program)

    def successors(state):
        at = stream.resolve(*state)
        if at is STOP or at is DEADLOCK:
            return at
        p, counters, ins = at
        yes = no = p + 1
        if isinstance(ins, PosTest):
            no = p + 2
        elif isinstance(ins, NegTest):
            yes = p + 2
        return ins.action, (yes, counters), (no, counters)

    return (1, ()), successors


def stream_pi(program: CanonicalProgram, depth: int):
    """The depth-``depth`` approximation of the program's stream thread, as
    a linear specification."""
    root, successors = stream_states(program)
    return explore(*_bounded(root, depth, successors))
