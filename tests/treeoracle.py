"""Finite threads as trees: the normative oracle for the depth cuts ``pi``
and ``apply_use_bounded``, and the check of ``threads._bounded`` that shares
no code with it.

A tree is a :class:`Branch` node or one of the leaves ``Stop()`` and
``Deadlock()``. :func:`cut` unfolds a state space (see
``pgarl.threads.explore``) to a depth as a tree, the definition of π_n: no
depth left is deadlock, a leaf stays a leaf, and a branch cuts both its
replies one level shallower. It shares the subtree of each (remaining depth,
state) pair. :func:`tree_states` reads a tree back as a state space, one
state per node told apart by identity, and :func:`number` numbers a tree as
a linear specification with ``explore``. So ``number(tree_pi(n, spec,
state))`` is ``pi(n, spec, state)``.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import count

from pgarl import DEADLOCK, STOP, Action, BranchRef, LinearSpec, Stop
from pgarl import services
from pgarl.threads import explore

from specoracle import SpecSilentSteps


@dataclass(frozen=True)
class Branch:
    """Branch on the reply to ``action``: ``yes`` on true, ``no`` on false."""

    yes: object
    action: Action
    no: object


def cut(root, depth: int, successors):
    """The depth cut of the state space ``(root, successors)`` as a tree,
    built over (remaining depth, state) pairs in preorder, yes before no, on
    an explicit stack; each pair's subtree is built once and shared, and a
    pair with no depth left is deadlock without calling ``successors``."""
    memo: dict = {}
    stack = [((depth, root), None)]
    while stack:  # a branch comes back, with its step, once both cuts below it exist
        pair, step = stack.pop()
        if step is not None:
            action, yes, no = step
            memo[pair] = Branch(memo[yes], action, memo[no])
        elif pair not in memo:
            left, state = pair
            terminal = state is STOP or state is DEADLOCK
            step = DEADLOCK if left == 0 else state if terminal else successors(state)
            if step is STOP or step is DEADLOCK:
                memo[pair] = step
            else:
                action, yes, no = step
                below = (left - 1, yes), (left - 1, no)
                stack.extend(((pair, (action, *below)), (below[1], None), (below[0], None)))
    return memo[depth, root]


def tree_states(thread):
    """Read a tree as a state space: a branch node is its id(), kept in a
    dict so that shared subtrees are one state; a leaf is the singleton of
    its kind."""
    nodes: dict[int, Branch] = {}

    def state(t):
        if isinstance(t, Branch):
            nodes[id(t)] = t
            return id(t)
        return STOP if isinstance(t, Stop) else DEADLOCK

    def successors(key):
        t = nodes[key]
        return t.action, state(t.yes), state(t.no)

    return state(thread), successors


def number(thread) -> LinearSpec:
    """Number a tree's nodes as a linear specification, one equation per
    node and per kind of leaf."""
    return explore(*tree_states(thread))


def tree_pi(n: int, spec: LinearSpec, state: int):
    """The depth-``n`` cut of equation ``state`` of ``spec`` as a tree."""

    def successors(i):
        rhs = spec.rhs(i)
        if isinstance(rhs, BranchRef):
            return rhs.action, rhs.yes, rhs.no
        return STOP if isinstance(rhs, Stop) else DEADLOCK

    return cut(state, n, successors)


def tree_apply_use_bounded(spec: LinearSpec, bindings, depth: int):
    """The depth-bounded use operator as a tree: the unresolved (thread
    state, service states) pairs, cut at the visible ``depth``, under the
    same budgets as ``apply_use_bounded``, resolving silent runs with the
    spec-reading resolver of ``specoracle``."""
    if depth < 0:
        raise ValueError(f"depth must be a natural number, got {depth}")
    silent = SpecSilentSteps(spec, tuple(bindings))
    explored = count(1)
    limit = services.PRODUCT_STATE_LIMIT

    def successors(node):
        if next(explored) > limit:
            raise services.BudgetExceeded(
                f"the bounded use operator unfolds more than {limit} states")
        at = silent.resolve(*node)
        if at is STOP or at is DEADLOCK:
            return at
        rhs = spec.rhs(at[0])
        return rhs.action, (rhs.yes, at[1]), (rhs.no, at[1])

    return cut((spec.root, silent.initial), depth, successors)
