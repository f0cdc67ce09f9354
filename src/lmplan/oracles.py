"""Exact brute-force deciders for landmark and order properties.

Every decider reduces a universally quantified statement over action
sequences to a finite reachability search, sometimes over states tagged with
one or two monotone flags.  The reductions:

* landmark: L is a landmark iff the goal is unreachable inside the subspace
  of states not containing L (a goal-reaching path in that subspace is
  exactly a solution on which L is never true).
* necessary order: holds iff lp is not initial and no reachable state
  without l has a successor containing lp (prefixes of sequences are
  sequences, so per-transition checking covers every quantified sequence).
* greedy necessary order: same check restricted to transitions leaving the
  "lp never true yet" subspace (paths with lp false everywhere are exactly
  the first-achievement prefixes).
* reasonable order: the achieved-before set S is found inside the l-free
  subspace as targets of lp-adding transitions; the aftermath is refuted by
  a goal-reaching path from some s in S on which lp never follows an l seen
  at step >= 1; the deletion requirement is refuted by reaching l from some
  s in S using only actions that never delete lp.  Each refutation search
  runs once, from all of S together: a path from some s in S is exactly a
  path from the set S, and the deletion search runs first.  The aftermath
  search keeps each state once, with whether l has been seen on the way,
  and drops paths that lp followed l on; an arrival with l unseen replaces
  an entry with l seen.
* inconsistency: no reachable state contains both facts.

Every search reads successors through ``_Table.successors``, the one
caller of ``core.successors`` here.  A successor table maps a state to its
(action id, successor) pairs in ops order, generated the first time any
search expands the state.  A state's successors depend on the actions
alone, so there is one table per action set, kept in the record of
``Task.shared_index``: every problem the grounder poses on one kept task
reads it, and so does every task derived without new facts or actions
(``with_init`` tasks among them), so each reachable state is expanded once
per action set.  A task with new facts or actions (a compiled sub-task)
starts a table of its own.  The achieved-before scan keeps the pairs of
lp's adders; the deletion search drops those of actions deleting lp.
``_closure``, the breadth-first search over plain states, maps each state it
keeps to whether one of its successors contains the forbidden fact (the
state has an exit from the subspace, which the greedy-necessary test reads).

The closure of the initial state that never enters a given fact (0 for the
whole space) is kept per task and fact: the landmark, greedy-necessary and
reasonable deciders search it for the fact tested, the order's target and
the order's source.  The whole space's closure is the one state source of
``enumerate_states``, the necessary-order test, ``oracle_inconsistent`` and
``task_solvable`` without a space.  Callers must not change the mapping
they get.

The kept closures live as long as their task (a derived task keeps its
own) and hold at most ``MEMO_BUDGET`` entries per task, a closure counting
its states.  A table lives as long as one task of its action set does, or
the grounder's object-set memo holds that set, and a table entry counts
its state and transitions.  The entries of every live table together are
at most ``MEMO_BUDGET``: a table hands its entries back when it dies.  Past
a budget a closure is searched, or a state expanded, anew each time.

Caps: every search, the aftermath search included, counts the states it
keeps and raises CapExceeded(cap) rather than keep one more than ``cap``;
its start states are kept whatever the cap, and a goal state that refutes
an order ends the aftermath search unkept.  A search caps its own states
whatever the memo keeps, so a kept closure of N states answers cap c as a
fresh search would: it is returned if N <= max(c, 1) (a closure of the
start alone fits any cap), else CapExceeded(c) is raised.  A search that
raises CapExceeded may leave table entries behind: they are facts about
the action set.
"""

from __future__ import annotations

import warnings
import weakref
from typing import Callable, Iterable, NamedTuple, Optional, Sequence

from .core import PlanningError, Task, bits, successors

DEFAULT_STATE_CAP = 200_000
# the entries each task's closures keep, and those every live table keeps
# together; at up to 100 bytes an entry (CPython 3.11, blocksworld and
# logistics), at most 12.4 MiB each: less than one default cap of closure
# states alone, at 68-86 bytes a state
MEMO_BUDGET = 130_000

Successors = Sequence[tuple[int, int]]  # (action id, successor), in ops order


class CapExceeded(PlanningError):
    def __init__(self, cap: int):
        super().__init__(f"state cap of {cap} exceeded")
        self.cap = cap


class _Budget:
    """A count of kept entries, held within ``MEMO_BUDGET``."""

    __slots__ = ("stored",)

    def __init__(self):
        self.stored = 0

    def keep(self, entries: int) -> bool:
        """Whether ``entries`` more fit the budget; if so they count."""
        if self.stored + entries > MEMO_BUDGET:
            return False
        self.stored += entries
        return True


# the entries of every live table
_TABLES = _Budget()


def _hand_back(states: dict[int, Successors]) -> None:
    """Uncount the entries of a table that died."""
    _TABLES.stored -= len(states) + sum(map(len, states.values()))


class _Table:
    """The successor table of one action set (see the module docstring)."""

    __slots__ = ("ops", "states", "__weakref__")

    def __init__(self, task: Task):
        self.ops = task.ops
        self.states: dict[int, Successors] = {}
        weakref.finalize(self, _hand_back, self.states)

    def successors(self, s: int) -> Successors:
        """``core.successors(ops, s)`` as a tuple, from the table."""
        ts = self.states.get(s)
        if ts is None:
            ts = tuple(successors(self.ops, s))
            if _TABLES.keep(1 + len(ts)):
                self.states[s] = ts
        return ts


class _TaskMemo(_Budget):
    """What the oracles keep about one task: its kept closures, counted
    against its own budget, and its action set's table."""

    __slots__ = ("closures", "table")

    def __init__(self, task: Task):
        super().__init__()
        # per forbidden bit, the complete closure of the initial state
        self.closures: dict[int, dict[int, bool]] = {}
        self.table: _Table = task.shared_index(_Table)


_MEMOS: "weakref.WeakKeyDictionary[Task, _TaskMemo]" = weakref.WeakKeyDictionary()


def _memo(task: Task) -> _TaskMemo:
    memo = _MEMOS.get(task)
    if memo is None:
        memo = _MEMOS[task] = _TaskMemo(task)
    return memo


def _closure(expand: Callable[[int], Successors], starts: Iterable[int],
             cap: int, forbid_bit: int = 0) -> dict[int, bool]:
    """BFS closure of the states ``starts`` under ``expand`` (a state's
    successors, such as ``_Table.successors``, possibly filtered); states
    containing ``forbid_bit`` are never entered (no start may contain it).
    Returns states in discovery order, each mapped to whether one of its
    successors contains ``forbid_bit`` (it has an exit from the subspace).
    Each kept state is expanded once."""
    seen: dict[int, bool] = dict.fromkeys(starts, False)
    if any(s & forbid_bit for s in seen):
        raise PlanningError("start state violates the subspace restriction")
    frontier = list(seen)
    while frontier:
        nxt: list[int] = []
        for s in frontier:
            for _, t in expand(s):
                if t & forbid_bit:
                    seen[s] = True
                    continue
                if t in seen:
                    continue
                if len(seen) >= cap:
                    raise CapExceeded(cap)
                seen[t] = False
                nxt.append(t)
        frontier = nxt
    return seen


def _init_closure(task: Task, cap: int, forbid_bit: int = 0) -> dict[int, bool]:
    """``_closure`` of ``task.init`` under its action set's successor
    table, memoised per task and forbidden bit (see the module docstring).
    Read-only."""
    memo = _memo(task)
    seen = memo.closures.get(forbid_bit)
    if seen is None:
        seen = _closure(memo.table.successors, (task.init,), cap, forbid_bit)
        if memo.keep(len(seen)):
            memo.closures[forbid_bit] = seen
    elif len(seen) > max(cap, 1):
        raise CapExceeded(cap)
    return seen


def enumerate_states(task: Task, cap: int = DEFAULT_STATE_CAP) -> tuple[int, ...]:
    """The reachable states, in discovery order."""
    return tuple(_init_closure(task, cap))


def co_occurrence(space: Iterable[int], num_facts: int) -> list[int]:
    """per-fact mask of facts that co-occur with it in some state."""
    co = [0] * num_facts
    for s in space:
        for f in bits(s):
            co[f] |= s
    return co


def task_solvable(task: Task, cap: int = DEFAULT_STATE_CAP,
                  space: Optional[Sequence[int]] = None) -> bool:
    goal = task.goal
    if space is None:
        space = _init_closure(task, cap)
    return any(s & goal == goal for s in space)


# ---------------------------------------------------------------------------
# Landmarks and necessary orders
# ---------------------------------------------------------------------------

def oracle_landmark(task: Task, fact_id: int, cap: int = DEFAULT_STATE_CAP,
                    space: Optional[Sequence[int]] = None) -> bool:
    """Exact landmark test; on an unsolvable task every fact qualifies (the
    quantification is over no solutions), reported with a warning."""
    if not task_solvable(task, cap, space):
        warnings.warn("task is unsolvable: every fact is vacuously a landmark")
        return True
    fbit = 1 << fact_id
    if (task.init | task.goal) & fbit:
        return True
    goal = task.goal
    return not any(s & goal == goal for s in _init_closure(task, cap, fbit))


def oracle_n(task: Task, l: int, lp: int, cap: int = DEFAULT_STATE_CAP) -> bool:
    if task.init >> lp & 1:
        return False
    lbit, lpbit = 1 << l, 1 << lp
    expand = _memo(task).table.successors
    return not any(t & lpbit for s in _init_closure(task, cap) if not s & lbit
                   for _, t in expand(s))


def first_achiever_pre_mask(task: Task, lp: int, cap: int = DEFAULT_STATE_CAP) -> int:
    """AND over the source states of every first-achieving transition of lp.

    All-ones when lp can never be newly achieved (vacuous case)."""
    lpbit = 1 << lp
    universe = (1 << task.num_facts) - 1
    if task.init & lpbit:
        raise PlanningError("fact is initially true; no first achievement")
    acc = universe
    for s, exits in _init_closure(task, cap, lpbit).items():
        if exits:
            acc &= s
    return acc


def oracle_gn(task: Task, l: int, lp: int, cap: int = DEFAULT_STATE_CAP) -> bool:
    if task.init >> lp & 1:
        return False
    return bool(first_achiever_pre_mask(task, lp, cap) >> l & 1)


# ---------------------------------------------------------------------------
# Reasonable orders
# ---------------------------------------------------------------------------

class ReasonableReport(NamedTuple):
    holds: bool
    vacuous: bool  # no state achieves lp before l; both conditions empty


def _achieved_before_states(task: Task, l: int, lp: int, cap: int) -> list[int]:
    """States whose generating path never had l true and whose last action
    added lp (the quantification base of the reasonable-order test)."""
    lbit, lpbit = 1 << l, 1 << lp
    if task.init & lbit:
        return []
    adders = task._adder_mask[lp]
    expand = _memo(task).table.successors
    out: dict[int, None] = {}
    for s in _init_closure(task, cap, lbit):
        for aid, t in expand(s):
            if adders >> aid & 1 and not t & lbit:
                out[t] = None
    return list(out)


def _aftermath_violated_from(task: Task, starts: list[int], l: int, lp: int,
                             cap: int) -> bool:
    """Search for a solution from some state in ``starts`` on which it is
    not the case that l holds at some step i >= 1 and lp at some step j >= i."""
    lbit, lpbit = 1 << l, 1 << lp
    goal = task.goal
    if any(s & goal == goal for s in starts):
        return True  # empty solution plan: nothing achieves l at i >= 1
    # A path is satisfied once lp follows an l seen at step >= 1; the flag
    # never clears, so such a path refutes nothing and is dropped.  Each
    # state is kept once, with whether l has been seen: a refutation from it
    # with l seen is one with l unseen too, so an arrival with l unseen
    # replaces an l-seen entry and is searched again.
    expand = _memo(task).table.successors
    frontier = dict.fromkeys(starts, False)  # state -> l seen, per depth
    kept = dict(frontier)
    while frontier:
        nxt: dict[int, bool] = {}
        for s, seen_l in frontier.items():
            for _, t in expand(s):
                n_l = seen_l or t & lbit != 0
                if n_l and t & lpbit:
                    continue
                if t not in kept:
                    if t & goal == goal:
                        return True
                    if len(kept) >= cap:
                        raise CapExceeded(cap)
                elif n_l or not kept[t]:
                    continue
                kept[t] = nxt[t] = n_l
        frontier = nxt
    return False


def _deletion_violated_from(task: Task, starts: list[int], l: int, lp: int,
                            cap: int) -> bool:
    """Search for a path from some state in ``starts`` that reaches l
    without ever using an action whose delete list mentions lp (the empty
    path counts)."""
    lbit, lpbit = 1 << l, 1 << lp
    ops, expand = task.ops, _memo(task).table.successors

    def keeping_lp(s: int) -> Successors:
        return [(aid, t) for aid, t in expand(s) if not ops[aid][3] & lpbit]

    return any(s & lbit for s in _closure(keeping_lp, starts, cap))


def oracle_reasonable_report(task: Task, l: int, lp: int,
                             cap: int = DEFAULT_STATE_CAP) -> ReasonableReport:
    starts = _achieved_before_states(task, l, lp, cap)
    if not starts:
        return ReasonableReport(holds=True, vacuous=True)
    # the deletion search first: it keeps far fewer states, so an order it
    # refutes costs no aftermath search
    refuted = (_deletion_violated_from(task, starts, l, lp, cap)
               or _aftermath_violated_from(task, starts, l, lp, cap))
    return ReasonableReport(not refuted, False)


def oracle_reasonable(task: Task, l: int, lp: int, cap: int = DEFAULT_STATE_CAP) -> bool:
    return oracle_reasonable_report(task, l, lp, cap).holds


# ---------------------------------------------------------------------------
# Inconsistency
# ---------------------------------------------------------------------------

def oracle_inconsistent(task: Task, x: int, y: int, cap: int = DEFAULT_STATE_CAP) -> bool:
    both = (1 << x) | (1 << y)
    if x == y:
        return False
    return not any(s & both == both for s in _init_closure(task, cap))


# ---------------------------------------------------------------------------
# Plan enumeration (for tiny fixture checks)
# ---------------------------------------------------------------------------

def count_solutions_of_length(task: Task, length: int, limit: int = 10_000_000) -> int:
    """Number of action sequences of exactly ``length`` steps that solve the
    task, by exhaustive applicable-prefix enumeration."""
    goal = task.goal
    expand = _memo(task).table.successors
    count = 0
    explored = 0
    stack = [(task.init, 0)]
    while stack:
        s, depth = stack.pop()
        explored += 1
        if explored > limit:
            raise CapExceeded(limit)
        if depth == length:
            if s & goal == goal:
                count += 1
            continue
        stack.extend((t, depth + 1) for _, t in expand(s))
    return count
