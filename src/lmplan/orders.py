"""Order approximation: fact mutexes, interference, r/rO edges, cycle removal.

The inconsistency table is the complement of a pair-reachability fixpoint:
starting from the initial state, an action fires once its preconditions are
singleton- and pairwise-reachable; firing marks add-add pairs reachable and
lets facts that the action does not delete persist alongside its adds,
provided they were co-reachable with all preconditions.  Any pair never
marked is mutex, which is sound: every reachable state's fact pairs are
pairwise marked by induction over its generating action sequence.
"""

from __future__ import annotations

import itertools
from typing import Optional

from .core import PlanningError, Task, bits, flags_of, mask_of, never_enabled, union_of
from .landmarks import GN, LN, R, RO, EdgeKind, LGG


class CycleError(PlanningError):
    """Cycles survived both removal phases (a level-test violation upstream)."""


class InconsistencyTable:
    """Symmetric sound mutex relation over fact pairs."""

    def __init__(self, co: list[int]):
        self._co = co  # co[f] = facts co-reachable with f (self-inclusive)
        # the last interference index built over this table, with its inputs
        self._index: Optional[tuple] = None

    def query(self, x: int, y: int) -> bool:
        """True only if no reachable state can contain both facts."""
        if x == y:
            return False
        return not self._co[x] >> y & 1

    def mutex_mask(self, x: int) -> int:
        """All facts inconsistent with ``x`` as a bitmask."""
        n = len(self._co)
        return ((1 << n) - 1) & ~self._co[x] & ~(1 << x)

    def pairs(self) -> list[tuple[int, int]]:
        """The mutex pairs (x, y), x < y, in order."""
        universe = (1 << len(self._co)) - 1
        out = []
        for x, co in enumerate(self._co):
            above = universe ^ ((2 << x) - 1)  # the facts after x
            out.extend((x, y) for y in bits(above & ~co))
        return out


def _mutex_index(task: Task) -> tuple[tuple, tuple[int, ...], int]:
    """What the fixpoint reads of the actions, kept per action set: per
    action ``(pre, pre ids, add, add ids, keep)`` with ``pre`` its
    preconditions that some action changes and ``keep`` the facts it does
    not delete (kept non-negative, as all masks here, since bit operations
    on negative ints cost more); per fact, the actions with it in ``pre``;
    and the actions whose ``pre`` is empty."""
    universe = (1 << task.num_facts) - 1
    changed = task._changed
    acts = []
    watch = [0] * task.num_facts
    unconditional = 0
    for i, pre, add, dele in task.ops:
        pre &= changed
        pre_facts = tuple(bits(pre))
        acts.append((pre, pre_facts, add, tuple(bits(add)), universe ^ (universe & dele)))
        for r in pre_facts:
            watch[r] |= 1 << i
        if not pre_facts:
            unconditional |= 1 << i
    return tuple(acts), tuple(watch), unconditional


def compute_mutexes(task: Task) -> InconsistencyTable:
    """The pair-reachability fixpoint of the module docstring.

    Static facts (initially true, never added or deleted) are co-reachable
    with every reachable fact and never block an action, so the fixpoint
    runs over the other facts and the static ones are added back at the end.
    It runs in sweeps over the pending actions, in id order; an action is
    pending again only when the co-reachable set of one of its
    preconditions grew in the last sweep (or, without preconditions, when a
    fact was first reached): its effect depends on nothing else.  Every
    action is monotone, so this order reaches the same least fixpoint as
    repeated sweeps over all actions.

    What the sweeps read of the actions (``_mutex_index``) depends on them
    alone, so it is built once per action set and shared by the tasks
    derived from one another without new facts or actions (``Task.
    shared_index``).  It leaves out every precondition that no action
    changes: one that holds in ``init`` never blocks, and the actions with
    one that does not (``never_enabled``) are never pending.
    """
    static = task.init & ~task._changed
    reached = task.init ^ static
    co = [0] * task.num_facts
    for f in bits(reached):
        co[f] = reached
    acts, watch, unconditional = task.shared_index(_mutex_index)
    live = ((1 << len(acts)) - 1) ^ never_enabled(task)
    pending = live
    while pending:
        grown = 0  # facts whose co-reachable set grew in this sweep
        first_reached = False
        for pre, pre_facts, add, add_facts, keep in itertools.compress(acts, flags_of(pending)):
            persist = reached & keep
            for r in pre_facts:
                c = co[r]
                if pre & c != pre:
                    break  # a precondition is unreached, or some pair still mutex
                persist &= c
            else:
                with_adds = add | persist
                stale = 0  # persisting facts not yet co-reachable with some add
                for p in add_facts:
                    c = co[p]
                    grow = (with_adds | c) ^ c
                    if grow:
                        stale |= grow
                        co[p] = c | grow
                        grown |= 1 << p
                # co stays symmetric, so q lacks an add p iff p's row lacked q
                stale &= persist
                grown |= stale
                while stale:
                    low = stale & -stale
                    co[low.bit_length() - 1] |= add
                    stale ^= low
                if add & reached != add:
                    reached |= add
                    first_reached = True
        pending = union_of(watch, grown, unconditional if first_reached else 0) & live
    for f in bits(reached):
        co[f] |= static
    for s in bits(static):
        co[s] = reached | static
    return InconsistencyTable(co)


# ---------------------------------------------------------------------------
# Interference
# ---------------------------------------------------------------------------

def _shared_effects(task: Task) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """Per fact, the add list and the delete list common to all its
    adders, both 0 for a fact without adders."""
    adds = [-1] * task.num_facts
    deletes = [-1] * task.num_facts
    for _, _, add, dele in task.ops:
        for f in bits(add):
            adds[f] &= add
            deletes[f] &= dele
    return tuple(max(m, 0) for m in adds), tuple(max(m, 0) for m in deletes)


def _interference_profile(task: Task, gn_pred: int, l: int) -> tuple[int, int]:
    """``(m, d)`` such that achieving ``l`` interferes with lp != l iff some
    fact of ``m`` is mutex with lp or lp is in ``d``.  Achieving l
    interferes with lp when one of four sufficient conditions for it to
    delete lp holds: (1) l and lp are mutex; (2) every l-adder also adds
    some x != l mutex with lp; (3) every l-adder deletes lp; (4) some graph
    node x mutex with lp has a gn edge into l.  They fold into two masks
    that do not depend on lp: condition 1 is l itself in ``m``, 2 the other
    shared adds, 3 the shared deletes in ``d``, 4 the gn predecessors
    ``gn_pred``.  Conditions 2 and 3 are false when l has no adders.  The
    shared adds and deletes are kept per action set."""
    adds, deletes = task.shared_index(_shared_effects)
    return 1 << l | gn_pred | adds[l], deletes[l]


# ---------------------------------------------------------------------------
# Reasonable / obedient-reasonable order insertion
# ---------------------------------------------------------------------------

def _interference_index(task: Task, table: InconsistencyTable, gn_pred: dict[int, int]
                        ) -> tuple[dict[int, int], dict[int, int], int, dict[int, int]]:
    """Interference, indexed by profile fact: l interferes with lp iff lp's
    mutex mask meets l's profile mask (the table is symmetric), or l's
    profile deletes lp.  Returns the nodes l per profile fact, the nodes l
    per profile delete, the profile facts as a mask, and the nodes
    interfering with each target lp, filled in as the passes ask.  The r
    and rO passes see the same gn edges, so the index is kept on the table
    for the task and gn predecessors it was last built for."""
    if table._index is not None and table._index[0] is task and table._index[1] == gn_pred:
        return table._index[2]
    by_fact: dict[int, int] = {}
    by_delete: dict[int, int] = {}
    for l, preds in gn_pred.items():
        m, d = _interference_profile(task, preds, l)
        for x in bits(m):
            by_fact[x] = by_fact.get(x, 0) | 1 << l
        for x in bits(d):
            by_delete[x] = by_delete.get(x, 0) | 1 << l
    index = (by_fact, by_delete, mask_of(by_fact), {})
    table._index = (task, gn_pred, index)
    return index


def _propagate(steps: list[tuple[int, int]], masks: dict[int, int]) -> None:
    """Until nothing changes, the source of each step ``(s, d)`` takes in
    everything its target holds: ``masks[s] |= masks[d]``."""
    changed = True
    while changed:
        changed = False
        for s, d in steps:
            m = masks[s] | masks[d]
            if m != masks[s]:
                masks[s] = m
                changed = True


def _insert_orders(task: Task, g: LGG, table: InconsistencyTable,
                   path_kinds: tuple[EdgeKind, ...], kind: EdgeKind) -> LGG:
    """Add a ``kind`` edge (l, lp) for every interfering pair whose aftermath
    test passes.  The aftermath of a non-goal lp: the nodes L that reach,
    over ``path_kinds`` edges, some Ln != lp whose ``path_kinds`` successor
    is also a strict-gn successor of lp.  For r edges a goal lp is in the
    aftermath of every node, and pairs joined by a gn path of length one or
    two are skipped; for rO edges goal targets are skipped.  The edges go
    into ``g`` itself, once all of it was read."""
    reasonable = kind is R
    goal = task.goal
    gn_pred = dict.fromkeys(g.nodes, 0)  # per node, its gn predecessors
    steps = []  # the path_kinds edges
    for s, d, k in g.edge_set:
        if k is GN:
            gn_pred[d] |= 1 << s
        if k in path_kinds:
            steps.append((s, d))
    by_fact, by_delete, profile_facts, interferers = _interference_index(task, table, gn_pred)
    # after[x]: the non-goal lp with x in their aftermath, for all lp at once.
    # x is in lp's aftermath iff it is some Ln != lp (an edge x -> t with a
    # gn edge lp -> t) or has an edge to a node in lp's aftermath.
    after = dict.fromkeys(g.nodes, 0)
    for s, d in steps:
        after[s] |= gn_pred[d] & ~goal & ~(1 << s)
    _propagate(steps, after)
    targets = 0  # the non-goal lp with a nonempty aftermath
    for a in after.values():
        targets |= a
    for lp in g.nodes:
        bit = 1 << lp
        if goal & bit:
            if not reasonable:
                continue
        elif not targets & bit:
            continue
        excluded = bit
        if reasonable:
            excluded |= gn_pred[lp]
            for m in bits(gn_pred[lp]):
                excluded |= gn_pred[m]
        hits = interferers.get(lp)
        if hits is None:
            hits = by_delete.get(lp, 0)
            for x in bits(table.mutex_mask(lp) & profile_facts):
                hits |= by_fact[x]
            interferers[lp] = hits
        for l in bits(hits & ~excluded):
            if goal & bit or after[l] & bit:
                g.add_edge(l, lp, kind)
    return g


def add_reasonable_orders(task: Task, g: LGG, table: InconsistencyTable) -> LGG:
    """Insert r edges for interfering pairs licensed by the aftermath test.

    A goal node is in the aftermath of every other node.  A non-goal node lp
    is in the aftermath of L when L has a (possibly empty) gn/ln path to some
    Ln that shares a strict-gn successor with lp.  Pairs connected by a gn
    path of length one or two are skipped.  ``g`` itself gets the edges and
    is returned.
    """
    return _insert_orders(task, g, table, (GN, LN), R)


def add_obedient_orders(task: Task, g: LGG, table: InconsistencyTable) -> LGG:
    """Insert rO edges: the aftermath test additionally rides the committed r
    edges, goal targets are skipped (already handled), the interference test
    is unchanged, and new rO edges are not fed back into the conditions.
    ``g`` itself gets the edges and is returned."""
    return _insert_orders(task, g, table, (GN, LN, R), RO)


# ---------------------------------------------------------------------------
# Cycle removal
# ---------------------------------------------------------------------------

def _cyclic_edges(edges) -> list[tuple[int, int, EdgeKind]]:
    """The edges on a cycle of the graph that ``edges`` form: those whose
    source is reachable from their target.  ``reach[n]``, the nodes reachable
    from n as a mask, is the least fixpoint of "an edge's target and all it
    reaches are reachable from the edge's source"."""
    steps = [(s, d) for s, d, _ in edges]
    reach = dict.fromkeys(itertools.chain(*steps), 0)
    for s, d in steps:
        reach[s] |= 1 << d
    _propagate(steps, reach)
    return [e for e in edges if reach[e[1]] >> e[0] & 1]


def remove_cycles(g: LGG) -> LGG:
    """Break cycles by dropping rO edges on cycles, then r edges on cycles.

    gn/ln edges are never removed; if a cycle survives both phases the input
    violated the level-decreasing property and a CycleError is raised.
    Dropping edges only breaks cycles, so each phase looks only at the edges
    still on a cycle after the one before.  The result is a new graph and
    ``g`` is left as it was, so that a caller can compare the two.
    """
    out = g.copy()
    cyclic = _cyclic_edges(g.edge_set)
    for kind in (RO, R):
        for e in cyclic:
            if e[2] is kind:
                out.remove_edge(*e)
        cyclic = _cyclic_edges([e for e in cyclic if e[2] is not kind])
    if cyclic:
        raise CycleError(f"cycles remain after removal: {sorted(cyclic)}")
    return out
