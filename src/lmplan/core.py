"""Grounded STRIPS primitives: facts, actions, tasks, and plan semantics.

States and fact sets are plain Python ints used as bitmasks over a task's
fact universe, so membership, union, and difference are single big-int
operations.  All types are immutable after construction and safe to share.
A task derived from another (``Task.derive``) may add facts and actions,
but its new actions add only new facts.  ``relaxed_closure`` is the
grounder's delete-free reachability fixpoint; the layered one is
``rpg._grow``.
"""

from __future__ import annotations

import functools
import itertools
import operator
import re
from typing import Callable, Iterable, Iterator, NamedTuple, Optional, Sequence


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


def parse_fact_name(text: str) -> tuple[str, tuple[str, ...]]:
    """Parse a fact display name "(predicate arg1 arg2)" into its parts.

    A bare symbol (no parentheses) is accepted as a zero-argument predicate.
    """
    text = text.strip(BLANKS).lower()
    if text.startswith("(") and text.endswith(")"):
        parts = split_blanks(text[1:-1])
    else:
        parts = split_blanks(text)
    if not parts or any(("(" in p or ")" in p) for p in parts):
        raise PlanningError(f"malformed fact name: {text!r}")
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
    or action round-trips through the task's name indexes.
    """

    def __init__(
        self,
        facts: Sequence[Fact],
        actions: Sequence[Action],
        init: int,
        goal: int,
        name: str = "task",
        pruned_actions: Iterable[str] | Callable[[], Iterable[str]] = (),
        provably_unsolvable: bool = False,
    ):
        self.facts: tuple[Fact, ...] = ()
        self.actions: tuple[Action, ...] = ()
        # ops[i] = (id, pre, add, delete) of action i, the input of successors()
        self.ops: tuple[tuple[int, int, int, int], ...] = ()
        # per fact: its adders as a mask over action ids, and their preconditions
        self._adder_mask: tuple[int, ...] = ()
        self._adder_pre: tuple[int, ...] = ()
        self._relevance: dict[int, tuple[tuple, tuple, tuple, tuple]] = {}
        # per goal in _relevance: None, or the facts the relaxed-plan
        # heuristic reads for it and its values memoised by the start state
        # restricted to them (see relevance)
        self._read: dict[int, Optional[tuple[int, dict]]] = {}
        # per goal of two or more facts in _relevance: what rpg._grow needs to
        # grow a whole layer at once (see _layering)
        self._layered: dict[int, tuple[int, int, tuple, tuple]] = {}
        # (consumers, adds) once built, shared by derived tasks with these ops
        self._layer_index: list = []
        # per fact below _cone_limit, once asked for: its relevant actions
        # and facts (see relevance) and its near adders, as masks over ids
        self._cones: dict[int, tuple[int, int, int]] = {}
        self._changed = 0  # the facts some action adds or deletes
        self._append(facts, actions)
        self._cone_limit = len(self.facts)
        self._pose(init, goal, name)
        # the names, or a function building them on first read (len() counts
        # them without building them); either way kept as one string: as a
        # tuple, tens of thousands of names would be traversed by the next
        # cyclic garbage collection, wherever it lands
        self._pruned = pruned_actions if callable(pruned_actions) else "\n".join(pruned_actions)
        self.provably_unsolvable = provably_unsolvable

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
               facts: Sequence[Fact] = (), actions: Sequence[Action] = ()) -> "Task":
        """This task's facts and actions plus ``facts`` and ``actions`` (ids
        continuing), posed from ``init`` to ``goal``.  The same task as the
        constructor would build, without re-indexing what is shared: a task
        adding no actions shares the relevance records and the consumer
        index, built or not yet; one adding actions (a compiled sub-task)
        starts its own.  Both share the relevance cones, since a new action
        may add only new facts (PlanningError otherwise); a new fact's cone
        is not shared (a sibling's differs)."""
        t = Task.__new__(Task)
        t.facts, t.actions, t.ops = self.facts, self.actions, self.ops
        t._adder_mask, t._adder_pre = self._adder_mask, self._adder_pre
        t._changed = self._changed
        if actions:
            t._relevance, t._read, t._layered, t._layer_index = {}, {}, {}, []
        else:
            t._relevance, t._read, t._layered = self._relevance, self._read, self._layered
            t._layer_index = self._layer_index
        if facts or actions:
            t._append(facts, actions)
        t._cones, t._cone_limit = self._cones, self._cone_limit
        t._pose(init, goal, name)
        t._pruned = ""
        t.provably_unsolvable = False
        return t

    @property
    def pruned_actions(self) -> tuple[str, ...]:
        """Names of the grounded actions the grounder dropped as unreachable."""
        if callable(self._pruned):
            self._pruned = "\n".join(self._pruned())
        return tuple(self._pruned.split("\n")) if self._pruned else ()

    @property
    def num_pruned(self) -> int:
        """``len(pruned_actions)``, without building the names first."""
        if callable(self._pruned):
            return len(self._pruned)
        return self._pruned.count("\n") + 1 if self._pruned else 0

    @functools.cached_property
    def _fact_index(self) -> dict[str, int]:
        return {f.name: f.id for f in self.facts}

    @functools.cached_property
    def _action_index(self) -> dict[str, int]:
        return {a.name: a.id for a in self.actions}

    def relevance(self, goal: int) -> tuple[tuple, tuple, tuple, tuple]:
        """Backward relevance of ``goal`` in the delete relaxation: the ops
        of the relevant actions (those adding a goal or a precondition of
        another relevant action), in ops order, split into the goal's
        achievers; when the goal is one fact (else none), the adders of
        their preconditions and the adders of those adders' preconditions;
        and the rest.  Memoised per goal.

        Relevance distributes over the goal's facts, so the relevant actions
        are the union of each fact's cone, and a cone once computed is kept
        (``_cones``) for the facts below ``_cone_limit``.

        The relaxed-plan heuristic reads a state only through the relevant
        facts, the goal and the relevant actions' preconditions: growth tests
        those (its fixpoint test also sees other facts that relevant actions
        add, but then only ends a growth that can no longer reach the goal),
        and extraction reads them.  When actions change other facts too,
        states that agree on the relevant ones share a value, which
        ``_read`` then memoises for the goal.  For a goal of two or more
        facts, ``_layered`` records what whole-layer growth reads: the
        relevant actions and facts as masks, and the consumer index."""
        if goal not in self._relevance:
            chosen = 0  # relevant actions, as a mask over ids
            read = 0  # relevant facts of the cones
            limit = self._cone_limit
            facts = frontier = goal
            while frontier:
                pre = 0
                for f in bits(frontier):
                    if f < limit:
                        cone = self._cone_of(f)
                        chosen |= cone[0]
                        read |= cone[1]
                    else:
                        chosen |= self._adder_mask[f]
                        pre |= self._adder_pre[f]
                frontier = pre & ~facts
                facts |= frontier
            achieving = feeding = deeper = 0
            for f in bits(goal):
                achieving |= self._adder_mask[f]
            if goal & (goal - 1) == 0 < goal:
                # the adders of the achievers' preconditions, then also those
                # of the preconditions of those adders
                for p in bits(self._adder_pre[goal.bit_length() - 1]):
                    feeding |= self._adder_mask[p]
                    deeper |= self._cone_of(p)[2]
                feeding &= chosen & ~achieving
                deeper &= chosen & ~achieving & ~feeding
            self._relevance[goal] = (
                self._ops_of(chosen & achieving), self._ops_of(feeding), self._ops_of(deeper),
                self._ops_of(chosen & ~achieving & ~feeding & ~deeper))
            read |= facts
            self._read[goal] = (read, {}) if self._changed & ~read else None
            if goal & (goal - 1):
                self._layered[goal] = (chosen, read, *self._layering())
        return self._relevance[goal]

    def _layering(self) -> list:
        """[consumers, adds]: per fact, the actions with it as a
        precondition, as a mask over ids; per action, its add list.  Built
        on first use and shared with derived tasks that add no actions."""
        index = self._layer_index
        if not index:
            consumers = [0] * len(self.facts)
            for aid, pre, _, _ in self.ops:
                bit = 1 << aid
                while pre:
                    low = pre & -pre
                    consumers[low.bit_length() - 1] |= bit
                    pre ^= low
            index += (tuple(consumers), tuple(map(operator.itemgetter(2), self.ops)))
        return index

    def _ops_of(self, actions: int) -> tuple:
        """The ops of the actions in the mask ``actions``, in ops order."""
        return tuple(itertools.compress(self.ops, flags_of(actions)))

    def _cone_of(self, fact: int) -> tuple[int, int, int]:
        """``_cone(fact)``, kept in ``_cones`` if ``fact`` is below
        ``_cone_limit``."""
        cone = self._cones.get(fact)
        if cone is None:
            cone = self._cone(fact)
            if fact < self._cone_limit:
                self._cones[fact] = cone
        return cone

    def _cone(self, fact: int) -> tuple[int, int, int]:
        """The actions relevant to ``fact`` alone, the facts relevant to it
        (itself and their preconditions), and its near adders (its adders and
        those of their preconditions), as masks over ids."""
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
        name = name.strip().lower()
        if name not in self._action_index:
            raise PlanningError(f"unknown action {name}")
        return self.actions[self._action_index[name]]

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
