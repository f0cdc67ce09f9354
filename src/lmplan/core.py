"""Grounded STRIPS primitives: facts, actions, tasks, and plan semantics.

States and fact sets are plain Python ints used as bitmasks over a task's
fact universe, so membership, union, and difference are single big-int
operations.  All types are immutable after construction and safe to share.
A task derived from another (``Task.derive``) may add facts and actions,
but its new actions add only new facts.  A task keeps only indexes that
depend on its actions alone: each fact's adders, the relevance cones that
derived tasks share, and one record of the indexes that later stages build
on first use (``Task.shared_index``: the mutex table's and verification's
per-action records, the adders' shared effects, the heuristic's consumer
index, lookahead's per-predicate masks, the oracles' successor table).  Every task derived without new
facts or actions shares that record, so the grounder's problems over one
action set build each index once.  The record lives as long as one of
those tasks does: the grounder's object-set memo holds it, through the
kept task, while it holds that action set.  What the relaxed-plan
heuristic keeps per goal is ``rpg``'s.  ``relaxed_closure`` is the
grounder's delete-free reachability fixpoint; the layered one is
``rpg._grow``.  A grounded task counts the actions the grounder pruned
(``len(task.pruned_actions)``) but does not name them.
"""

from __future__ import annotations

import functools
import itertools
import operator
import re
from typing import Callable, Iterable, Iterator, NamedTuple, Optional, Sequence, Sized, TypeVar

T = TypeVar("T")


class PlanningError(Exception):
    """Base class for faults raised by this package."""


# The delimiters of the PDDL reader (pddl._TOKEN): any other character,
# \x0b and \xa0 among them, can be part of a symbol, so names are split
# on these alone.
BLANKS = " \t\r\n"
_SYMBOL = re.compile(f"[^{BLANKS}]+")


def split_blanks(text: str) -> list[str]:
    """The symbols of ``text``, split on the reader's delimiters only."""
    return _SYMBOL.findall(text)


def parse_fact_name(text: str, kind: str = "fact") -> tuple[str, tuple[str, ...]]:
    """Parse a fact display name "(predicate arg1 arg2)" into its parts.

    A bare symbol (no parentheses) is accepted as a zero-argument predicate.
    Action names read alike; ``kind`` names what the text names in the
    error a malformed name raises.
    """
    text = text.strip(BLANKS).lower()
    if text.startswith("(") and text.endswith(")"):
        parts = split_blanks(text[1:-1])
    else:
        parts = split_blanks(text)
    if not parts or any(("(" in p or ")" in p) for p in parts):
        raise PlanningError(f"malformed {kind} name: {text!r}")
    return parts[0], tuple(parts[1:])


def format_atom(predicate: str, args: Sequence[str]) -> str:
    return "(" + " ".join([predicate, *args]) + ")"


class Fact(NamedTuple):
    """One grounded atom, interned to a dense id within its task.  A named
    tuple, like ``Action``: it builds in a fraction of a frozen dataclass's
    time, and equals the plain tuple of its fields."""

    id: int
    predicate: str
    args: tuple[str, ...]

    @property
    def name(self) -> str:
        return format_atom(self.predicate, self.args)

    def __str__(self) -> str:
        return self.name


class Action(NamedTuple):
    """One grounded action; pre/add/delete are fact-id bitmasks.  A named
    tuple, not a frozen dataclass: the grounder and every compiled sub-task
    build them, and a named tuple builds in under half the time."""

    id: int
    name: str
    pre: int
    add: int
    delete: int


def bits(mask: int) -> Iterator[int]:
    """Yield the set bit positions of ``mask`` in ascending order."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


# binary digits "0"/"1" as the flag bytes 0/1 (flags_of)
_FLAGS = bytes.maketrans(b"01", b"\0\1")


def flags_of(ids: int) -> bytes:
    """One flag byte per id of the mask ``ids``, lowest first, up to its
    highest id: the selector ``itertools.compress`` takes."""
    # the binary digits reversed
    return bin(ids)[:1:-1].encode().translate(_FLAGS)


def union_of(masks: Sequence[int], ids: int, start: int = 0) -> int:
    """``start`` or'ed with ``masks[i]`` for every id i in the mask ``ids``,
    the loop run in C."""
    return functools.reduce(operator.or_, itertools.compress(masks, flags_of(ids)), start)


def mask_of(ids: Iterable[int]) -> int:
    m = 0
    for i in ids:
        m |= 1 << i
    return m


class Task:
    """A grounded planning task: fact universe, actions, initial state, goal.

    Fact and action ids are dense and contiguous; the display name of a fact
    or action round-trips through the task's name indexes.  What later
    stages index of the facts and actions alone is kept in one record per
    action set (``shared_index``).
    """

    # set by ``derive``: the actions the grounder pruned, as any sized value
    # (``len`` counts them), and whether the goal is relaxed-unreachable
    pruned_actions: Sized = ()
    provably_unsolvable = False

    def __init__(
        self,
        facts: Sequence[Fact],
        actions: Sequence[Action],
        init: int,
        goal: int,
        name: str = "task",
    ):
        self.facts: tuple[Fact, ...] = ()
        self.actions: tuple[Action, ...] = ()
        # ops[i] = (id, pre, add, delete) of action i, the input of successors()
        self.ops: tuple[tuple[int, int, int, int], ...] = ()
        # per fact: its adders as a mask over action ids, and their preconditions
        self._adder_mask: tuple[int, ...] = ()
        self._adder_pre: tuple[int, ...] = ()
        # per fact below _cone_limit, once asked for: its relevant actions
        # and facts and its near adders, as masks over ids (see _cone)
        self._cones: dict[int, tuple[int, int, int]] = {}
        self._changed = 0  # the facts some action adds or deletes
        # indexes of the facts and actions alone, by builder (shared_index)
        self._indexes: dict = {}
        self._append(facts, actions)
        self._cone_limit = len(self.facts)
        self._pose(init, goal, name)

    def _append(self, facts: Sequence[Fact], actions: Sequence[Action]) -> None:
        """Validate and index further facts and actions, ids continuing.  A
        new action may add only new facts: no fact that was there gains an
        adder, so its index entries and relevance cone stay as they are."""
        facts, actions = tuple(facts), tuple(actions)
        old = len(self.facts)
        for i, f in enumerate(facts, old):
            if f.id != i:
                raise PlanningError(f"non-contiguous fact id {f.id} at {i}")
        self.facts += facts
        n = len(self.facts)
        # per new fact the new actions add: their ids as a mask, and their
        # preconditions
        gained: dict[int, list] = {}
        ops = []
        changed = 0
        for i, (aid, name, pre, add, dele) in enumerate(actions, len(self.actions)):
            if aid != i:
                raise PlanningError(f"non-contiguous action id {aid} at {i}")
            if (pre | add | dele) >> n:
                raise PlanningError(f"action {name} references unknown facts")
            if add & ((1 << old) - 1):
                raise PlanningError(f"action {name} adds a fact of the task it extends")
            ops.append((aid, pre, add, dele))
            changed |= add | dele
            while add:
                low = add & -add
                add ^= low
                entry = gained.get(low.bit_length() - 1)
                if entry is None:
                    gained[low.bit_length() - 1] = [1 << i, pre]
                else:
                    entry[0] |= 1 << i
                    entry[1] |= pre
        self.actions += actions
        self.ops += tuple(ops)
        self._changed |= changed
        if facts:
            masks, pres = zip(*[gained.get(f, (0, 0)) for f in range(old, n)])
            self._adder_mask += masks
            self._adder_pre += pres

    def _pose(self, init: int, goal: int, name: str) -> None:
        if (init | goal) >> len(self.facts):
            raise PlanningError("init/goal reference unknown facts")
        self.init = init
        self.goal = goal
        self.name = name

    def derive(self, init: int, goal: int, name: str,
               facts: Sequence[Fact] = (), actions: Sequence[Action] = (),
               pruned_actions: Sized = (), provably_unsolvable: bool = False) -> "Task":
        """This task's facts and actions plus ``facts`` and ``actions`` (ids
        continuing), posed from ``init`` to ``goal``.  The same task as the
        constructor would build, without re-indexing what is shared.  With
        no new facts or actions it shares the record of ``shared_index``;
        otherwise it starts a record of its own.  It always shares the
        relevance cones, since a new action may add only new
        facts (PlanningError otherwise); a new fact's cone is not shared (a
        sibling's differs).  The grounder poses each problem on a shared
        task this way, with the count of its pruned actions and its
        verdict."""
        t = Task.__new__(Task)
        t.facts, t.actions, t.ops = self.facts, self.actions, self.ops
        t._adder_mask, t._adder_pre = self._adder_mask, self._adder_pre
        t._changed = self._changed
        if facts or actions:
            t._indexes = {}
            t._append(facts, actions)
        else:
            t._indexes = self._indexes
        t._cones, t._cone_limit = self._cones, self._cone_limit
        t._pose(init, goal, name)
        t.pruned_actions, t.provably_unsolvable = pruned_actions, provably_unsolvable
        return t

    def shared_index(self, build: Callable[["Task"], T]) -> T:
        """``build(self)``, built on the first call and kept in a record
        that every task derived without new facts or actions shares.
        ``build`` must read only the facts and actions, never ``init`` or
        ``goal``."""
        index = self._indexes.get(build)
        if index is None:
            index = self._indexes[build] = build(self)
        return index

    @functools.cached_property
    def _fact_index(self) -> dict[str, int]:
        return {f.name: f.id for f in self.facts}

    @functools.cached_property
    def _action_index(self) -> dict[str, int]:
        return {a.name: a.id for a in self.actions}

    def _cone_of(self, fact: int) -> tuple[int, int, int]:
        """``_cone(fact)``, kept in ``_cones`` if ``fact`` is below
        ``_cone_limit``.  Above it (a fact a derived task added, such as a
        sub-task's goal), it is built from the cones of its adders'
        preconditions, and those below the limit (the sub-task's leaves)
        are kept for the sub-tasks to come."""
        cone = self._cones.get(fact)
        if cone is None:
            limit = self._cone_limit
            if fact < limit:
                cone = self._cones[fact] = self._cone(fact)
            else:
                cone = (self._adder_mask[fact], 1 << fact, self._adder_mask[fact])
                for p in bits(self._adder_pre[fact]):
                    # not recursing into a new fact: new facts may form a cycle
                    below = self._cone_of(p) if p < limit else self._cone(p)
                    cone = (cone[0] | below[0], cone[1] | below[1], cone[2] | self._adder_mask[p])
        return cone

    def _cone(self, fact: int) -> tuple[int, int, int]:
        """The actions relevant to ``fact`` alone in the delete relaxation
        (its adders and, recursively, the adders of their preconditions), the
        facts relevant to it (itself and those preconditions), and its near
        adders (its adders and those of their preconditions), as masks over
        ids."""
        adder_mask, adder_pre, cones = self._adder_mask, self._adder_pre, self._cones
        facts = frontier = 1 << fact
        chosen = 0
        while frontier:
            pre = 0
            for f in bits(frontier):
                cone = cones.get(f)
                if cone is None:
                    chosen |= adder_mask[f]
                    pre |= adder_pre[f]
                else:  # a cone kept already holds all f leads to
                    chosen |= cone[0]
                    facts |= cone[1]
            frontier = pre & ~facts
            facts |= frontier
        near = adder_mask[fact]
        for q in bits(adder_pre[fact]):
            near |= adder_mask[q]
        return chosen, facts, near

    @property
    def num_facts(self) -> int:
        return len(self.facts)

    def fact_named(self, name: str) -> Fact:
        pred, args = parse_fact_name(name)
        key = format_atom(pred, args)
        if key not in self._fact_index:
            raise PlanningError(f"unknown fact {key}")
        return self.facts[self._fact_index[key]]

    def has_fact(self, name: str) -> bool:
        pred, args = parse_fact_name(name)
        return format_atom(pred, args) in self._fact_index

    def action_named(self, name: str) -> Action:
        key = format_atom(*parse_fact_name(name, "action"))
        if key not in self._action_index:
            raise PlanningError(f"unknown action {key}")
        return self.actions[self._action_index[key]]

    def mask(self, names: Iterable[str]) -> int:
        return mask_of(self.fact_named(n).id for n in names)

    def facts_in(self, mask: int) -> tuple[Fact, ...]:
        return tuple(self.facts[i] for i in bits(mask))

    def fact_names(self, mask: int) -> tuple[str, ...]:
        return tuple(f.name for f in self.facts_in(mask))

    def __repr__(self) -> str:
        return (
            f"Task({self.name!r}, facts={len(self.facts)}, "
            f"actions={len(self.actions)})"
        )


def never_enabled(task: Task) -> int:
    """The actions with a precondition that ``init`` lacks and that no
    action adds or deletes, as a mask over ids: none of them can ever fire.
    The per-action records of ``shared_index`` leave out the preconditions
    no action changes, so their readers exclude these actions.  The
    grounder keeps none; ``make_task`` and the constructor do not prune
    them."""
    false = ((1 << len(task.facts)) - 1) & ~task._changed & ~task.init
    dead = 0
    if false:
        for aid, pre, _, _ in task.ops:
            if pre & false:
                dead |= 1 << aid
    return dead


def make_task(
    actions: Sequence[tuple[str, Iterable[str], Iterable[str], Iterable[str]]],
    init: Iterable[str],
    goal: Iterable[str],
    facts: Optional[Sequence[str]] = None,
    name: str = "task",
) -> Task:
    """Build a task from fact/action names; handy for hand-written instances.

    ``actions`` entries are (name, pre, add, delete) with fact display names.
    When ``facts`` is omitted the universe is the sorted set of all names
    mentioned anywhere.
    """
    mentioned: set[str] = set()
    canon = lambda n: format_atom(*parse_fact_name(n))
    spec = []
    for aname, pre, add, dele in actions:
        pre, add, dele = [tuple(canon(x) for x in part) for part in (pre, add, dele)]
        spec.append((aname.strip().lower(), pre, add, dele))
        mentioned.update(pre + add + dele)
    init = tuple(canon(x) for x in init)
    goal = tuple(canon(x) for x in goal)
    mentioned.update(init)
    mentioned.update(goal)
    if facts is None:
        universe = sorted(mentioned)
    else:
        universe = [canon(f) for f in facts]
        missing = mentioned - set(universe)
        if missing:
            raise PlanningError(f"facts not in declared universe: {sorted(missing)}")
    fact_objs = []
    index = {}
    for i, fname in enumerate(universe):
        pred, args = parse_fact_name(fname)
        fact_objs.append(Fact(i, pred, args))
        index[fname] = i
    m = lambda names: mask_of(index[n] for n in names)
    action_objs = [
        Action(i, aname, m(pre), m(add), m(dele))
        for i, (aname, pre, add, dele) in enumerate(spec)
    ]
    return Task(fact_objs, action_objs, m(init), m(goal), name=name)


# ---------------------------------------------------------------------------
# Plan semantics
# ---------------------------------------------------------------------------

def apply_action(state: int, action: Action) -> Optional[int]:
    """Apply one action; returns None (undefined) when preconditions unmet.

    Effects are add-before-delete: an action that adds and deletes the same
    fact nets to deletion.
    """
    if state & action.pre != action.pre:
        return None
    return (state | action.add) & ~action.delete


def successors(ops: Iterable[tuple[int, int, int, int]],
               state: int) -> Iterator[tuple[int, int]]:
    """Yield (action id, successor state) for each applicable op, in ops
    order; ``ops`` holds (id, pre, add, delete) tuples such as ``Task.ops``.
    Same semantics as apply_action."""
    for aid, pre, add, dele in ops:
        if state & pre == pre:
            yield aid, (state | add) & ~dele


def relaxed_closure(pairs: Iterable[tuple[int, int]], state: int) -> int:
    """The facts reachable from ``state`` when deletes are ignored: the
    least superset of ``state`` holding ``add`` for every (pre, add) pair
    whose ``pre`` it holds.  The grounder prunes the actions whose
    preconditions it does not hold."""
    waiting = list(pairs)
    while True:
        before = state
        blocked = []
        for pre, add in waiting:
            if state & pre == pre:
                state |= add
            else:
                blocked.append((pre, add))
        if state == before:
            return state
        waiting = blocked


def _check_plan_ids(task: Task, plan: Sequence[int]) -> None:
    n = len(task.actions)
    for aid in plan:
        if not 0 <= aid < n:
            raise PlanningError(f"foreign action id {aid}")


def result_state(task: Task, plan: Sequence[int], state: Optional[int] = None) -> Optional[int]:
    """Left-fold of apply_action over a plan; None (undefined) is absorbing."""
    _check_plan_ids(task, plan)
    s = task.init if state is None else state
    for aid in plan:
        s = apply_action(s, task.actions[aid])
        if s is None:
            return None
    return s


def validate_plan(task: Task, plan: Sequence[int], state: Optional[int] = None) -> bool:
    """True iff the plan is applicable and its final state contains the goal."""
    s = result_state(task, plan, state)
    return s is not None and s & task.goal == task.goal


def _fact_id(x) -> int:
    return x.id if isinstance(x, Fact) else int(x)


def plan_obeys_order(task: Task, plan: Sequence[int], first, second) -> bool:
    """Whether ``plan`` achieves ``first`` strictly before ``second``.

    Holds when ``first`` is initially true, when ``second`` is never added,
    or when the earliest add of ``first`` precedes the earliest add of
    ``second``.  Simultaneous first achievement by one action does not count
    as obeying.
    """
    l, lp = _fact_id(first), _fact_id(second)
    _check_plan_ids(task, plan)
    if task.init >> l & 1:
        return True
    lbit, lpbit = 1 << l, 1 << lp
    first_l = first_lp = None
    for i, aid in enumerate(plan):
        add = task.actions[aid].add
        if first_l is None and add & lbit:
            first_l = i
        if first_lp is None and add & lpbit:
            first_lp = i
    if first_lp is None:
        return True
    return first_l is not None and first_l < first_lp


def format_plan(task: Task, plan: Sequence[int]) -> str:
    """One grounded action name per line."""
    return "\n".join(task.actions[aid].name for aid in plan)
