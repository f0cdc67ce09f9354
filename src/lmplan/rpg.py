"""Relaxed planning graph: layered delete-free reachability over a task.

The graph alternates proposition and action layers built from a start state
with all delete lists ignored; the level of a fact/action is the index of
the first layer containing it.  Two stopping rules are supported: stop the
first time the goals are all present (the default for landmark extraction),
or run to the reachability fixpoint (used for heuristic evaluation and
relaxed solvability).
"""

from __future__ import annotations

from typing import Iterable, Optional

from .core import Action, Task, bits, relaxed_closure

GOALS_FIRST = "goals-first"
FIXPOINT = "fixpoint"

INF = float("inf")


class RPG:
    """Layered relaxed reachability structure.

    prop_layers[i] / action_layers[i] are bitmasks over fact / action ids;
    layers are monotone (each contains its predecessor).  ``goal_reached``
    is False when the fixpoint was hit before the goals appeared, i.e. the
    relaxed task is unsolvable from the start state.

    A fixpoint-mode graph is grown lazily: ``extract_relaxed_plan`` adds
    layers only until its goal appears, using only the actions relevant to
    that goal (``Task.relevance``), and reading any layer or level attribute
    first completes the graph over all actions, so every observer sees the
    same fixpoint.
    """

    def __init__(self, task: Task, state: int, mode: str):
        if mode not in (GOALS_FIRST, FIXPOINT):
            raise ValueError(f"unknown build mode {mode!r}")
        self.task = task
        self.mode = mode
        self._start(state)
        if mode == GOALS_FIRST:
            self._goal_reached = self._grow(task.goal)

    def _start(self, state: int) -> None:
        """Reset to the single layer ``state``, to grow over every action."""
        self._scope: Optional[int] = None  # a goal whose relevant actions alone are used
        self._prop_layers: list[int] = [state]
        self._new_level: dict[int, int] = {}  # facts absent from ``state``
        self._action_level: dict[int, int] = {}  # applicable actions
        # ops not applicable in the last layer yet, the goal's achievers apart
        self._goal_waiting: tuple = ()
        self._waiting = self.task.ops
        self._fixed = False
        self._view = None

    def _grow(self, goal: int) -> bool:
        """Add proposition layers until ``goal`` holds in the last one (True)
        or the fixpoint is hit first (False).  Only actions not yet
        applicable are tested: an action enabled earlier stays enabled and
        its adds are already present.

        The goal's achievers (if set apart by ``_grow_relevant``) are tested
        first; when they complete the goal, the rest of that last layer is
        left out: no level it would add is read by extraction."""
        layers = self._prop_layers
        cur = layers[-1]
        if cur & goal == goal:
            return True
        if self._fixed:
            return False
        action_level = self._action_level
        new_level = self._new_level
        goal_waiting = self._goal_waiting
        waiting = self._waiting
        layer_idx = len(layers) - 1
        while True:
            nxt = cur
            if goal_waiting:
                rest = []
                for op in goal_waiting:
                    pre = op[1]
                    if cur & pre == pre:
                        action_level[op[0]] = layer_idx
                        nxt |= op[2]
                    else:
                        rest.append(op)
                goal_waiting = rest
                if nxt & goal == goal:
                    # a partial layer: only _grow_relevant's goal may read it
                    layers.append(nxt)
                    for f in bits(nxt & ~cur):
                        new_level[f] = layer_idx + 1
                    self._goal_waiting = goal_waiting
                    self._waiting = waiting
                    return True
            rest = []
            for op in waiting:
                pre = op[1]
                if cur & pre == pre:
                    action_level[op[0]] = layer_idx
                    nxt |= op[2]
                else:
                    rest.append(op)
            waiting = rest
            if nxt == cur:
                # fixpoint: no new facts can ever appear
                self._goal_waiting = goal_waiting
                self._waiting = waiting
                self._fixed = True
                return False
            layers.append(nxt)
            layer_idx += 1
            for f in bits(nxt & ~cur):
                new_level[f] = layer_idx
            cur = nxt
            if cur & goal == goal:
                self._goal_waiting = goal_waiting
                self._waiting = waiting
                return True

    def _grow_relevant(self, goal: int) -> bool:
        """``_grow`` for a fixpoint-mode graph, over the actions relevant to
        ``goal`` while nothing else has been asked of the graph.

        Every achiever of a relevant fact is relevant, so by induction over
        the layers each relevant fact and action gets the level it has in
        the full graph, and the goal is reached, or the fixpoint hit, at the
        same layer.  A graph grown for one goal starts again over every
        action when asked about another."""
        if self._scope is None and len(self._prop_layers) == 1 and not self._fixed:
            self._scope = goal
            self._goal_waiting, self._waiting = self.task.relevance(goal)
        elif self._scope is not None and self._scope != goal:
            self._start(self._prop_layers[0])
        return self._grow(goal)

    def _observed(self) -> tuple[list, list, list[int]]:
        """(fact_level, action_level, action_layers) of the finished graph:
        the fixpoint for a fixpoint-mode graph."""
        if self.mode == FIXPOINT and (self._scope is not None or not self._fixed):
            if self._scope is not None:
                self._start(self._prop_layers[0])
            self._grow(-1)  # no finite layer holds every bit of -1
        if self._view is None:
            fact_level: list = [INF] * self.task.num_facts
            for f in bits(self._prop_layers[0]):
                fact_level[f] = 0
            for f, level in self._new_level.items():
                fact_level[f] = level
            action_level: list = [INF] * len(self.task.actions)
            by_level: dict[int, int] = {}
            for aid, level in self._action_level.items():
                action_level[aid] = level
                by_level[level] = by_level.get(level, 0) | 1 << aid
            # action layer i: every action applicable in proposition layer i
            action_layers, acc = [], 0
            for i in range(len(self._prop_layers) - 1):
                acc |= by_level.get(i, 0)
                action_layers.append(acc)
            self._view = (fact_level, action_level, action_layers)
        return self._view

    @property
    def fact_level(self) -> list:
        return self._observed()[0]

    @property
    def action_level(self) -> list:
        return self._observed()[1]

    @property
    def action_layers(self) -> list[int]:
        return self._observed()[2]

    @property
    def prop_layers(self) -> list[int]:
        self._observed()
        return self._prop_layers

    @property
    def goal_reached(self) -> bool:
        if self.mode == GOALS_FIRST:
            return self._goal_reached
        return self.reachable & self.task.goal == self.task.goal

    @property
    def top_layer(self) -> int:
        """Index m of the last proposition layer."""
        return len(self.prop_layers) - 1

    @property
    def reachable(self) -> int:
        """All facts present in the last layer."""
        return self.prop_layers[-1]

    def earliest_achievers(self, fact_id: int) -> list[int]:
        """Action ids adding ``fact_id`` at the layer right below its level."""
        fact_level, action_level, _ = self._observed()
        level = fact_level[fact_id]
        if level is INF or level == 0:
            return []
        return [a for a in self.task.adders[fact_id] if action_level[a] == level - 1]


def build_rpg(task: Task, mode: str = GOALS_FIRST, state: Optional[int] = None) -> RPG:
    """Build the relaxed planning graph from ``state`` (default: the init)."""
    return RPG(task, task.init if state is None else state, mode)


def relaxed_solvable(actions: Iterable[Action], init: int, goal: int) -> bool:
    """Delete-free reachability of ``goal`` from ``init`` over ``actions``."""
    return relaxed_closure(((a.pre, a.add) for a in actions), init) & goal == goal


def extract_relaxed_plan(rpg: RPG, goal: int):
    """Length of a relaxed plan for ``goal`` extracted by backchaining.

    Requires a fixpoint-mode graph.  Each subgoal fact picks one achiever at
    the layer below its level (lowest action id breaks ties); the achiever's
    preconditions are queued as subgoals at their own levels.  Returns the
    number of distinct selected actions, or INF when the goal is unreachable.
    """
    if rpg.mode != FIXPOINT:
        raise ValueError("relaxed plan extraction needs a fixpoint-mode graph")
    # levels up to the goal's are final, so the graph grows no further
    if not rpg._grow_relevant(goal):
        return INF
    # every fact met below is reached: level 0 unless added by some layer
    level = rpg._new_level
    action_level = rpg._action_level
    adders = rpg.task.adders
    actions = rpg.task.actions
    known = goal | rpg._prop_layers[0]  # queued subgoals and level-0 facts
    by_layer: dict[int, int] = {}
    for f in bits(goal):
        lf = level.get(f, 0)
        if lf > 0:
            by_layer[lf] = by_layer.get(lf, 0) | (1 << f)
    selected: set[int] = set()
    for l in range(len(rpg._prop_layers) - 1, 0, -1):
        for f in bits(by_layer.get(l, 0)):
            # earliest achiever: applicable at layer l - 1; lowest id wins
            aid = min(a for a in adders[f] if action_level.get(a) == l - 1)
            selected.add(aid)
            for p in bits(actions[aid].pre & ~known):
                known |= 1 << p
                pl = level[p]
                if pl >= l:
                    # achiever sits below layer l, so its preconditions do too
                    raise AssertionError("level-1 rule violated")
                by_layer[pl] = by_layer.get(pl, 0) | (1 << p)
    return len(selected)
