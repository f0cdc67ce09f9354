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

    Stored as one mask per layer: ``_prop_layers[i]`` holds the facts of
    proposition layer i, ``_act_layers[i]`` the actions first applicable in
    it.  ``prop_layers[i]`` / ``action_layers[i]`` are bitmasks over fact /
    action ids; layers are monotone (each contains its predecessor).
    ``goal_reached`` is False when the fixpoint was hit before the goals
    appeared, i.e. the relaxed task is unsolvable from the start state.

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
        # one more entry than _prop_layers at the fixpoint: the actions first
        # applicable in the last layer, which add nothing new
        self._act_layers: list[int] = []
        # ops not applicable in the last layer yet: the goal's achievers, the
        # adders of their preconditions (a one-fact goal only) and the rest
        self._goal_waiting: tuple = ()
        self._feeding: tuple = ()
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
        left out: no level it would add is read by extraction.  For a
        one-fact goal the adders of the achievers' preconditions come next;
        when they enable an achiever, the rest of that layer is left out too
        (the next, last layer adds the goal): extraction reads only those
        preconditions from it.  Such partial layers are never grown on."""
        layers = self._prop_layers
        cur = layers[-1]
        if cur & goal == goal:
            return True
        if self._fixed:
            return False
        act_layers = self._act_layers
        goal_waiting, feeding, waiting = self._goal_waiting, self._feeding, self._waiting
        try:
            while True:
                goal_waiting, fired, nxt = _fire(goal_waiting, cur, 0, cur)
                partial = nxt & goal == goal
                if feeding and not partial:
                    feeding, fired, nxt = _fire(feeding, cur, fired, nxt)
                    # the next layer adds the goal's one fact
                    partial = any(nxt & op[1] == op[1] for op in goal_waiting)
                if not partial:
                    waiting, fired, nxt = _fire(waiting, cur, fired, nxt)
                act_layers.append(fired)
                if nxt == cur:
                    # fixpoint: no new facts can ever appear
                    self._fixed = True
                    return False
                layers.append(nxt)
                cur = nxt
                if cur & goal == goal:
                    return True
        finally:
            self._goal_waiting, self._feeding, self._waiting = goal_waiting, feeding, waiting

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
            self._goal_waiting, self._feeding, self._waiting = self.task.relevance(goal)
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
            below = 0
            for level, layer in enumerate(self._prop_layers):
                for f in bits(layer & ~below):
                    fact_level[f] = level
                below = layer
            action_level: list = [INF] * len(self.task.actions)
            # action layer i: every action applicable in proposition layer i
            action_layers, acc = [], 0
            for level, fired in enumerate(self._act_layers):
                for a in bits(fired):
                    action_level[a] = level
                acc |= fired
                action_layers.append(acc)
            self._view = (fact_level, action_level, action_layers[:len(self._prop_layers) - 1])
        return self._view

    fact_level = property(lambda self: self._observed()[0])
    action_level = property(lambda self: self._observed()[1])
    action_layers = property(lambda self: self._observed()[2])

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
        level = self._observed()[0][fact_id]
        if level is INF or level == 0:
            return []
        return list(bits(self.task._adder_mask[fact_id] & self._act_layers[level - 1]))


def _fire(ops, cur: int, fired: int, nxt: int) -> tuple[list, int, int]:
    """Fire the ``ops`` applicable in ``cur``: the others, ``fired`` with
    their ids and ``nxt`` with their adds."""
    rest = []
    for op in ops:
        pre = op[1]
        if cur & pre == pre:
            fired |= 1 << op[0]
            nxt |= op[2]
        else:
            rest.append(op)
    return rest, fired, nxt


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
    layers = rpg._prop_layers
    act_layers = rpg._act_layers
    adder_mask = rpg.task._adder_mask
    ops = rpg.task.ops
    known = goal | layers[0]  # queued subgoals and level-0 facts
    top = len(layers) - 1
    by_layer = [0] * (top + 1)  # queued subgoals by level
    for f in bits(goal & ~layers[0]):
        level = top
        while layers[level - 1] >> f & 1:
            level -= 1
        by_layer[level] |= 1 << f
    selected = 0
    for l in range(top, 0, -1):
        fired = act_layers[l - 1]
        for f in bits(by_layer[l]):
            # earliest achiever: first applicable at layer l - 1; lowest id wins
            achievers = adder_mask[f] & fired
            a = achievers & -achievers
            if selected & a:
                continue
            selected |= a
            pre = ops[a.bit_length() - 1][1] & ~known
            known |= pre
            for p in bits(pre):
                # the achiever's preconditions sit at layer l - 1 or below
                level = l - 1
                while layers[level - 1] >> p & 1:
                    level -= 1
                by_layer[level] |= 1 << p
    return selected.bit_count()
