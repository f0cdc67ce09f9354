"""Relaxed planning graph: layered delete-free reachability over a task.

The graph alternates proposition and action layers built from a start state
with all delete lists ignored; the level of a fact is the index of the
first layer containing it.  It serves two callers.  Landmark extraction
builds a goals-first graph, ``build_rpg(task, GOALS_FIRST)``, grown over all
actions until the goals all appear (or the fixpoint is hit first), and reads
each fact's level and earliest achievers.  The relaxed-plan heuristic,
``extract_relaxed_plan(build_rpg(task, FIXPOINT, state), goal)``, is one
pass: the fixpoint-mode graph only records its start state, and extraction
grows local layers over the goal's relevant actions up to the goal, then
walks them down once with a single subgoal mask.  Values are memoised per
goal by the start state restricted to the relevant facts, when that
restriction can merge states.

The goals-first graph and a goal of two or more facts (plain search's full
goal) grow whole layers with ``core.grow_layers``, the one delete-free
growth the grounder also runs: the waiting actions that fire are those
that no missing fact consumes, found with two unions run in C over the
consumer index (``core.layering``).  A one-fact goal (every control-loop
sub-task's) tests its ops one at a time instead (``_grow``), nearest
adders first, and stops as soon as the goal is in sight.  What the
heuristic keeps per goal lives here, one record per task (``_RECORDS``)
that dies with the task: the goal's relevant ops, value memo and
whole-layer inputs.  Every task builds its own, ``with_init`` tasks and
compiled sub-tasks included, from the relevance cones it shares with its
parent (``Task._cone_of``).  The consumer index depends on the actions
alone: it is kept once per action set (``Task.shared_index``), so a
``with_init`` task reads its parent's, and a compiled sub-task, which adds
actions, builds its own.
"""

from __future__ import annotations

import itertools
import weakref
from typing import Optional

from .core import Task, bits, flags_of, grow_layers, layering

GOALS_FIRST = "goals-first"
FIXPOINT = "fixpoint"

INF = float("inf")


class RPG:
    """Layered relaxed reachability structure.

    A goals-first graph holds ``fact_level`` (per fact id, the index of the
    first proposition layer holding it, or INF), ``top_layer`` (the index of
    the last proposition layer), ``goal_reached`` (False when the fixpoint
    was hit before the goals appeared, i.e. the relaxed task is unsolvable
    from the start state) and, per layer, the actions first applicable in
    it, which ``earliest_achievers`` reads.  A fixpoint-mode graph holds
    only its ``start`` state, for ``extract_relaxed_plan``.
    """

    __slots__ = ("task", "mode", "start", "fact_level", "top_layer", "goal_reached", "_act_layers")

    def __init__(self, task: Task, state: int, mode: str):
        if mode not in (GOALS_FIRST, FIXPOINT):
            raise ValueError(f"unknown build mode {mode!r}")
        self.task = task
        self.mode = mode
        self.start = state
        if mode == GOALS_FIRST:
            layers, self._act_layers = [state], []
            self.goal_reached = grow_layers(layers, self._act_layers, task.goal,
                                            (1 << len(task.ops)) - 1, (1 << task.num_facts) - 1,
                                            *task.shared_index(layering))
            self.top_layer = len(layers) - 1
            fact_level = self.fact_level = [INF] * task.num_facts
            below = 0
            for level, layer in enumerate(layers):
                for f in bits(layer & ~below):
                    fact_level[f] = level
                below = layer

    def earliest_achievers(self, fact_id: int) -> list[int]:
        """Action ids adding ``fact_id`` at the layer right below its level."""
        level = self.fact_level[fact_id]
        if level is INF or level == 0:
            return []
        return list(bits(self.task._adder_mask[fact_id] & self._act_layers[level - 1]))


def _grow(layers: list[int], act_layers: list[int], goal: int,
          goal_waiting, feeding, deeper, waiting) -> bool:
    """Append proposition layers to ``layers`` (and each layer's newly
    applicable actions to ``act_layers``) until ``goal``, of one fact or
    none, holds in the last one (True) or the fixpoint is hit first (False).
    The four op lists (``_relevance``) hold the ops to grow over that are
    not applicable in the last layer; only those are tested, since an
    action enabled earlier stays enabled and its adds are already present.

    ``goal_waiting``, the goal's achievers, are tested first; when they
    complete the goal, the rest of that last layer is left out: no level it
    would add is read by extraction.  ``feeding`` holds the adders of the
    achievers' preconditions and ``deeper`` the adders of the feeders'
    preconditions.  A layer fires the feeders next and looks one layer
    ahead over the achievers; failing that, it fires the deeper ops and
    looks two layers ahead over the achievers and feeders.  When the goal
    is reached ahead, the layers looked at become the last ones and the
    rest of this layer is left out: extraction reads from these layers only
    facts whose adders were all tested.  Such partial layers are never grown
    on."""
    cur = layers[-1]
    if cur & goal == goal:
        return True
    while True:
        goal_waiting, fired, nxt = _fire(goal_waiting, cur, 0, cur)
        ahead = ()  # the next layers, when the goal's near adders alone reach it
        if feeding and nxt & goal != goal:
            feeding, fired, nxt = _fire(feeding, cur, fired, nxt)
            f1, n1 = 0, nxt  # _fire(goal_waiting, nxt, 0, nxt), no ops left kept
            for aid, pre, add, _ in goal_waiting:
                if nxt & pre == pre:
                    f1 |= 1 << aid
                    n1 |= add
            if n1 & goal == goal:
                ahead = ((f1, n1),)
            elif deeper:
                deeper, fired, nxt = _fire(deeper, cur, fired, nxt)
                _, f1, n1 = _fire(goal_waiting + feeding, nxt, 0, nxt)
                _, f2, n2 = _fire(goal_waiting, n1, 0, n1)
                if n2 & goal == goal:
                    ahead = ((f1, n1), (f2, n2))
        if not ahead and nxt & goal != goal:
            waiting, fired, nxt = _fire(waiting, cur, fired, nxt)
        # at the fixpoint too: the actions first applicable in the last layer
        act_layers.append(fired)
        if nxt == cur:
            # fixpoint: no new facts can ever appear
            return False
        layers.append(nxt)
        for f, n in ahead:
            act_layers.append(f)
            layers.append(n)
        cur = layers[-1]
        if cur & goal == goal:
            return True


def _fire(ops, cur: int, fired: int, nxt: int) -> tuple[list, int, int]:
    """Fire the ``ops`` applicable in ``cur``: the others, ``fired`` with
    their ids and ``nxt`` with their adds."""
    rest = []
    for op in ops:
        aid, pre, add, _ = op
        if cur & pre == pre:
            fired |= 1 << aid
            nxt |= add
        else:
            rest.append(op)
    return rest, fired, nxt


def build_rpg(task: Task, mode: str = GOALS_FIRST, state: Optional[int] = None) -> RPG:
    """Build the relaxed planning graph from ``state`` (default: the init)."""
    return RPG(task, task.init if state is None else state, mode)


def extract_relaxed_plan(rpg: RPG, goal: int):
    """Length of a relaxed plan for ``goal`` extracted by backchaining.

    Requires a fixpoint-mode graph.  Each subgoal fact picks one achiever at
    the layer below its level (lowest action id breaks ties); the achiever's
    preconditions become subgoals at their own levels.  Returns the number
    of distinct selected actions, or INF when the goal is unreachable.

    The layers are grown here, only until the goal appears and only over
    the actions relevant to it (``_relevance``).  Every achiever of a
    relevant fact is relevant, so by induction over the layers each relevant
    fact and action gets the level it has in the graph grown over all
    actions, and the goal is reached, or the fixpoint hit, at the same
    layer.  The value is memoised by the start state restricted to the
    facts it reads, when that restriction can merge states.
    """
    if rpg.mode != FIXPOINT:
        raise ValueError("relaxed plan extraction needs a fixpoint-mode graph")
    classes, memo, layered = _relevance(rpg.task, goal)
    if memo is not None:
        key = rpg.start & memo[0]
        value = memo[1].get(key)
        if value is not None:
            return value
    layers, act_layers = [rpg.start], []
    value = INF
    if layered is None:
        reached = _grow(layers, act_layers, goal, *classes)
    else:
        reached = grow_layers(layers, act_layers, goal, *layered)
    if reached:
        value = _backchain(rpg.task, goal, layers, act_layers)
    if memo is not None:
        memo[1][key] = value
    return value


# per task, each goal's entry (``_relevance``)
_RECORDS: "weakref.WeakKeyDictionary[Task, dict]" = weakref.WeakKeyDictionary()


def _record(task: Task) -> dict:
    record = _RECORDS.get(task)
    if record is None:
        record = _RECORDS[task] = {}
    return record


def _relevance(task: Task, goal: int) -> tuple[tuple, Optional[tuple[int, dict]], Optional[tuple]]:
    """The entry of ``goal`` on ``task``, built on first use: the four op
    classes, the value memo or None, and the whole-layer inputs or None.

    The op classes are the ops of the relevant actions (those adding a goal
    or a precondition of another relevant action), in ops order, split into
    the goal's achievers; when the goal is one fact (else none), the adders
    of their preconditions and the adders of those adders' preconditions;
    and the rest.  Relevance distributes over the goal's facts, so the
    relevant actions and facts are the union of each fact's cone
    (``Task._cone_of``).

    The heuristic reads a state only through the relevant facts, the goal
    and the relevant actions' preconditions: growth tests those (its
    fixpoint test also sees other facts that relevant actions add, but then
    only ends a growth that can no longer reach the goal), and extraction
    reads them.  When actions change other facts too, states that agree on
    the relevant ones share a value, and the memo (the relevant facts, and
    the values by the start state restricted to them) keeps it.  For a goal
    of two or more facts, the whole-layer inputs are what ``grow_layers``
    reads after the layers: the relevant actions and facts as masks, and
    the consumer index and add lists."""
    record = _record(task)
    entry = record.get(goal)
    if entry is not None:
        return entry
    chosen = read = achieving = 0
    for f in bits(goal):
        cone = task._cone_of(f)
        chosen |= cone[0]
        read |= cone[1]
        achieving |= task._adder_mask[f]
    feeding = deeper = 0
    if goal & (goal - 1) == 0 < goal:
        # the adders of the achievers' preconditions (the goal's near adders
        # but its own), then also those of the preconditions of those adders
        feeding = cone[2] & chosen & ~achieving
        for p in bits(task._adder_pre[goal.bit_length() - 1]):
            deeper |= task._cone_of(p)[2]
        deeper &= chosen & ~achieving & ~feeding
    classes = (_ops_of(task, chosen & achieving), _ops_of(task, feeding),
               _ops_of(task, deeper), _ops_of(task, chosen & ~achieving & ~feeding & ~deeper))
    memo = (read, {}) if task._changed & ~read else None
    layered = (chosen, read, *task.shared_index(layering)) if goal & (goal - 1) else None
    entry = record[goal] = (classes, memo, layered)
    return entry


def _ops_of(task: Task, actions: int) -> tuple:
    """The ops of the actions in the mask ``actions``, in ops order."""
    return tuple(itertools.compress(task.ops, flags_of(actions)))


def _backchain(task: Task, goal: int, layers: list[int], act_layers: list[int]) -> int:
    """The relaxed plan's length, extracted top-down from layers holding
    ``goal`` in the last one."""
    adder_mask = task._adder_mask
    ops = task.ops
    # subgoals not yet given an achiever; the ones of level l are those
    # missing from layer l - 1, and an achiever's preconditions sit below l
    need = goal
    selected = 0
    for l in range(len(layers) - 1, 0, -1):
        below = layers[l - 1]
        new = need & ~below
        if new:
            need &= below
            fired = act_layers[l - 1]
            while new:
                f = new & -new
                new ^= f
                # earliest achiever: first applicable at layer l - 1; lowest id wins
                achievers = adder_mask[f.bit_length() - 1] & fired
                a = achievers & -achievers
                if not selected & a:
                    selected |= a
                    need |= ops[a.bit_length() - 1][1]
    return selected.bit_count()
