"""Landmark graph construction: backchaining candidates, lookahead, verification.

The graph's nodes are fact ids, its edges carry one of four order kinds:

  gn  - every earliest achiever of the target shares the source as precondition
  ln  - the source is shared two steps below the target, through a
        same-predicate intermediate fact set
  r   - achieving the source from a state where the target was just reached
        forces deleting and re-achieving the target
  rO  - like r, but only relative to the already committed r orders

gn/ln edges come out of this module; r/rO edges are added by lmplan.orders.
"""

from __future__ import annotations

from collections import deque
from enum import Enum
from typing import AbstractSet, Iterable, Optional

from .core import PlanningError, Task, bits, mask_of
from .rpg import INF, RPG


class EdgeKind(str, Enum):
    GREEDY_NECESSARY = "gn"
    LOOKAHEAD = "ln"
    REASONABLE = "r"
    OBEDIENT_REASONABLE = "rO"


GN = EdgeKind.GREEDY_NECESSARY
LN = EdgeKind.LOOKAHEAD
R = EdgeKind.REASONABLE
RO = EdgeKind.OBEDIENT_REASONABLE


class LGG:
    """Directed multigraph over landmark fact ids with typed edges, each edge
    kept once, in one set."""

    def __init__(self):
        self._verified: dict[int, bool] = {}
        self._edges: set[tuple[int, int, EdgeKind]] = set()
        self._nodes: Optional[tuple[int, ...]] = None  # sorted, until a change
        self._edge_list: Optional[tuple[tuple[int, int, EdgeKind], ...]] = None

    # -- nodes --------------------------------------------------------------

    @property
    def nodes(self) -> tuple[int, ...]:
        if self._nodes is None:
            self._nodes = tuple(sorted(self._verified))
        return self._nodes

    def __len__(self) -> int:
        return len(self._verified)

    def __contains__(self, fact_id: int) -> bool:
        return fact_id in self._verified

    def add_node(self, fact_id: int, verified: bool = False) -> None:
        if fact_id not in self._verified:
            self._nodes = None
            self._verified[fact_id] = verified

    def verified(self, fact_id: int) -> bool:
        return self._verified[fact_id]

    def set_verified(self, fact_id: int, flag: bool = True) -> None:
        if fact_id not in self._verified:
            raise PlanningError(f"not a node: {fact_id}")
        self._verified[fact_id] = flag

    def remove_nodes(self, fact_ids: Iterable[int]) -> None:
        """Drop nodes together with their incident edges, in one pass over
        the edges."""
        gone = set(fact_ids)
        if not gone:
            return
        for n in gone:
            del self._verified[n]
        self._nodes = None
        kept = {e for e in self._edges if e[0] not in gone and e[1] not in gone}
        if len(kept) != len(self._edges):
            self._edges, self._edge_list = kept, None

    # -- edges --------------------------------------------------------------

    @property
    def edges(self) -> tuple[tuple[int, int, EdgeKind], ...]:
        # kinds are str members, so they order by their values
        if self._edge_list is None:
            self._edge_list = tuple(sorted(self._edges))
        return self._edge_list

    @property
    def edge_set(self) -> AbstractSet[tuple[int, int, EdgeKind]]:
        """The edges in no set order, without ``edges``' sort: the graph's
        own set, so read it before changing the graph."""
        return self._edges

    def add_edge(self, src: int, dst: int, kind: EdgeKind) -> None:
        if src == dst:
            raise PlanningError(f"self-edge on {src}")
        if src not in self._verified or dst not in self._verified:
            raise PlanningError("edge endpoints must be nodes")
        e = (src, dst, kind)
        if e not in self._edges:
            self._edge_list = None
            self._edges.add(e)

    def remove_edge(self, src: int, dst: int, kind: EdgeKind) -> None:
        e = (src, dst, kind)
        if e in self._edges:
            self._edge_list = None
            self._edges.remove(e)

    def has_edge(self, src: int, dst: int, kind: EdgeKind) -> bool:
        return (src, dst, kind) in self._edges

    def predecessors(self, fact_id: int, kinds: Iterable[EdgeKind]) -> list[int]:
        ks = set(kinds)
        return sorted({s for s, d, k in self._edges if d == fact_id and k in ks})

    def leaves(self) -> tuple[int, ...]:
        """Nodes with no incoming edges; empty only on an empty graph."""
        targets = {d for _, d, _ in self._edges}
        out = tuple(n for n in self.nodes if n not in targets)
        if not out and len(self):
            raise PlanningError("nonempty graph without leaves: a cycle leaked through")
        return out

    def copy(self) -> "LGG":
        g = LGG()
        g._verified = dict(self._verified)
        g._edges = set(self._edges)
        g._nodes, g._edge_list = self._nodes, self._edge_list
        return g

    def __eq__(self, other) -> bool:
        if not isinstance(other, LGG):
            return NotImplemented
        return self._verified == other._verified and self._edges == other._edges

    def __repr__(self) -> str:
        return f"LGG(nodes={len(self._verified)}, edges={len(self._edges)})"


# ---------------------------------------------------------------------------
# Candidate generation
# ---------------------------------------------------------------------------

def _achievers(task: Task, rpg: RPG, fact_id: int, use_level_test: bool) -> list[int]:
    if use_level_test:
        return rpg.earliest_achievers(fact_id)
    return list(bits(task._adder_mask[fact_id]))


def _expand_candidates(task: Task, rpg: RPG, g: LGG, seeds: Iterable[int],
                       use_level_test: bool) -> list[int]:
    """Backchain from ``seeds``: shared preconditions of each open candidate's
    achievers become nodes with gn edges.  Returns every node added."""
    added: list[int] = []
    level = rpg.fact_level
    open_set = sorted(set(seeds))
    while open_set:
        next_open: list[int] = []
        for lp in open_set:
            if level[lp] == 0:
                continue
            achievers = _achievers(task, rpg, lp, use_level_test)
            if not achievers:
                continue
            shared = task.actions[achievers[0]].pre
            for aid in achievers[1:]:
                shared &= task.actions[aid].pre
            for l in bits(shared):
                if l not in g:
                    g.add_node(l)
                    next_open.append(l)
                    added.append(l)
                g.add_edge(l, lp, GN)
        open_set = sorted(next_open)
    return added


def generate_candidates(task: Task, rpg: RPG, use_level_test: bool = True) -> LGG:
    """Seed the graph with the goals and backchain shared preconditions.

    With the level test on, only achievers at the layer right below the
    candidate are intersected, which keeps every gn edge strictly
    level-decreasing; without it all achievers are intersected (the safe
    variant: a precondition shared by every achiever provably holds right
    before each fresh achievement of the candidate).
    """
    g = LGG()
    goals = sorted(bits(task.goal))
    for f in goals:
        g.add_node(f)
    _expand_candidates(task, rpg, g, goals, use_level_test)
    return g


# ---------------------------------------------------------------------------
# Lookahead
# ---------------------------------------------------------------------------

def lookahead_extend(task: Task, rpg: RPG, g: LGG, use_level_test: bool = True) -> LGG:
    """Add two-step orders through same-predicate intermediate fact sets.

    For a node whose earliest achievers share no precondition, each predicate
    that contributes at least one precondition to every achiever induces an
    intermediate fact set; a fact required by all earliest achievers of all
    set members is ordered below the node with an ln edge.  New facts are fed
    back through the backchaining loop, and nodes found that way get the same
    lookahead treatment.  ``g`` itself is extended and returned.
    """
    fact_level = rpg.fact_level
    by_name: dict[str, int] = {}  # the facts of each predicate, as a mask
    for f in task.facts:
        by_name[f.predicate] = by_name.get(f.predicate, 0) | 1 << f.id
    predicates = sorted(by_name.items())
    pending = deque(sorted(g.nodes))
    queued = set(pending)
    while pending:
        lp = pending.popleft()
        if lp not in g:
            continue
        level = fact_level[lp]
        if level == 0 or level is INF:
            continue
        achievers = rpg.earliest_achievers(lp)
        if not achievers:
            continue
        pre_masks = [task.actions[a].pre for a in achievers]
        needed = 0
        for m in pre_masks:
            needed |= m
        new_nodes: list[int] = []
        for _, facts in predicates:
            member_mask = needed & facts
            if not member_mask:
                continue
            if not all(m & member_mask for m in pre_masks):
                continue  # some achiever has no precondition on this predicate
            if member_mask & (member_mask - 1) == 0:
                continue  # a plain shared precondition; gn already covers it
            members = list(bits(member_mask))
            if any(fact_level[f] == 0 for f in members):
                continue  # disjunction already true initially
            two_step: list[int] = []
            ok = True
            for f in members:
                step = rpg.earliest_achievers(f)
                if not step:
                    ok = False
                    break
                two_step.extend(step)
            if not ok:
                continue
            shared = task.actions[two_step[0]].pre
            for aid in two_step[1:]:
                shared &= task.actions[aid].pre
            for l in bits(shared):
                if fact_level[l] == 0:
                    continue
                if l not in g:
                    g.add_node(l)
                    new_nodes.append(l)
                if not g.has_edge(l, lp, GN):
                    g.add_edge(l, lp, LN)
        if new_nodes:
            grown = _expand_candidates(task, rpg, g, new_nodes, use_level_test)
            for n in new_nodes + grown:
                if n not in queued:
                    queued.add(n)
                    pending.append(n)
    return g


# ---------------------------------------------------------------------------
# Verification
# ---------------------------------------------------------------------------

def verify_landmarks(task: Task, g: LGG) -> LGG:
    """Keep only nodes that are provably landmarks.

    Goal and initial facts are landmarks by definition.  Any other node L is
    kept iff the goal is unreachable in the delete relaxation once every
    L-adding action is removed; otherwise L and its incident edges go.
    Every surviving node is flagged verified.

    All those reachability tests run at once, one bit per node L:
    ``unreached[f]`` holds the nodes whose adders' removal leaves fact f
    unreachable.  It is the greatest fixpoint of "an initial fact is always
    reached; any other fact is unreached without L's adders iff each of its
    achievers adds L or needs a fact unreached without them", which is the
    complement of relaxed reachability, bit by bit.  The kept graph is a new
    one and ``g`` is left as it was, so that a caller can compare the two.
    """
    out = g.copy()
    trivial = task.init | task.goal
    open_nodes = mask_of(out.nodes) & ~trivial
    unreached = [0 if task.init >> f & 1 else open_nodes for f in range(task.num_facts)]
    blocked = [open_nodes] * len(task.ops)  # per action, the same over its preconditions
    acts = [(aid, tuple(bits(pre & ~task.init)), add & open_nodes, tuple(bits(add & ~task.init)))
            for aid, pre, add, _ in task.ops]
    changed = True
    while changed:
        changed = False
        for aid, pre_facts, adds_node, add_facts in acts:
            b = adds_node
            for q in pre_facts:
                b |= unreached[q]
            if b != blocked[aid]:
                blocked[aid] = b
                for p in add_facts:
                    # blocked sets only shrink, so the AND over p's adders
                    # takes in b alone
                    u = unreached[p] & b
                    if u != unreached[p]:
                        unreached[p] = u
                        changed = True
    kept = 0
    for f in bits(task.goal):
        kept |= unreached[f]
    kept |= trivial
    out.remove_nodes(l for l in out.nodes if not kept >> l & 1)
    for l in out.nodes:
        out.set_verified(l)
    return out
