"""Differential tests for the landmark pipeline's fast paths.

The references below are the implementations these fast paths replaced,
kept unchanged: the eagerly built relaxed planning graph and its plan
extraction, the sweeping pair-reachability fixpoint, one relaxed
reachability test per candidate landmark, lookahead grouping preconditions
one fact at a time, the per-pair interference and aftermath tests of r/rO
insertion, and cycle removal with one strongly connected component pass per
edge kind.  Every fast path must give the
same levels, earliest achievers, heuristic values, mutex table and graphs.
"""

from __future__ import annotations

import random
from collections import deque
from typing import Iterable

import pytest
from hypothesis import given, settings, strategies as st

from lmplan import planners
from lmplan.bench import generate_task
from lmplan.control import compile_disjunctive_goal, solve, with_init
from lmplan.core import Task, bits, make_task, relaxed_closure, successors
from lmplan.landmarks import (
    GN,
    LGG,
    LN,
    R,
    RO,
    EdgeKind,
    _expand_candidates,
    generate_candidates,
    lookahead_extend,
    verify_landmarks,
)
from lmplan.orders import (
    CycleError,
    InconsistencyTable,
    add_obedient_orders,
    add_reasonable_orders,
    compute_mutexes,
    interferes,
    remove_cycles,
)
from lmplan.pipeline import build_landmark_graph
from lmplan.planners import gbfs_plan
from lmplan.rpg import FIXPOINT, GOALS_FIRST, INF, RPG, build_rpg, extract_relaxed_plan


# ---------------------------------------------------------------------------
# References
# ---------------------------------------------------------------------------

class ReferenceRPG:
    """Layered relaxed reachability structure.

    prop_layers[i] / action_layers[i] are bitmasks over fact / action ids;
    layers are monotone (each contains its predecessor).  ``goal_reached``
    is False when the fixpoint was hit before the goals appeared, i.e. the
    relaxed task is unsolvable from the start state.
    """

    def __init__(self, task: Task, state: int, mode: str):
        if mode not in (GOALS_FIRST, FIXPOINT):
            raise ValueError(f"unknown build mode {mode!r}")
        self.task = task
        self.mode = mode
        self.fact_level: list = [INF] * task.num_facts
        self.action_level: list = [INF] * len(task.actions)
        for f in bits(state):
            self.fact_level[f] = 0
        self.prop_layers: list[int] = [state]
        self.action_layers: list[int] = []
        self.goal_reached = False

        goal = task.goal
        cur = state
        while True:
            if mode == GOALS_FIRST and cur & goal == goal:
                self.goal_reached = True
                break
            layer_idx = len(self.action_layers)
            acts = 0
            nxt = cur
            for a in task.actions:
                if cur & a.pre == a.pre:
                    acts |= 1 << a.id
                    if self.action_level[a.id] is INF:
                        self.action_level[a.id] = layer_idx
                    nxt |= a.add
            if nxt == cur:
                # fixpoint: no new facts can ever appear
                self.goal_reached = cur & goal == goal
                break
            self.action_layers.append(acts)
            self.prop_layers.append(nxt)
            for f in bits(nxt & ~cur):
                self.fact_level[f] = layer_idx + 1
            cur = nxt

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
        level = self.fact_level[fact_id]
        if level is INF or level == 0:
            return []
        return [a for a in bits(self.task._adder_mask[fact_id]) if self.action_level[a] == level - 1]


def reference_extract_relaxed_plan(rpg: RPG, goal: int):
    """Length of a relaxed plan for ``goal`` extracted by backchaining.

    Requires a fixpoint-mode graph.  Each subgoal fact picks one achiever at
    the layer below its level (lowest action id breaks ties); the achiever's
    preconditions are queued as subgoals at their own levels.  Returns the
    number of distinct selected actions, or INF when the goal is unreachable.
    """
    if rpg.mode != FIXPOINT:
        raise ValueError("relaxed plan extraction needs a fixpoint-mode graph")
    if rpg.reachable & goal != goal:
        return INF
    level = rpg.fact_level
    by_layer: dict[int, int] = {}
    for f in bits(goal):
        if level[f] > 0:
            by_layer[level[f]] = by_layer.get(level[f], 0) | (1 << f)
    selected: set[int] = set()
    seen_subgoals = goal
    for l in range(rpg.top_layer, 0, -1):
        for f in bits(by_layer.get(l, 0)):
            achievers = rpg.earliest_achievers(f)
            aid = min(achievers)
            selected.add(aid)
            for p in bits(rpg.task.actions[aid].pre & ~seen_subgoals):
                seen_subgoals |= 1 << p
                pl = level[p]
                if pl > 0:
                    if pl >= l:
                        # achiever sits below layer l, so its preconditions do too
                        raise AssertionError("level-1 rule violated")
                    by_layer[pl] = by_layer.get(pl, 0) | (1 << p)
    return len(selected)


def reference_compute_mutexes(task: Task) -> InconsistencyTable:
    co = [0] * task.num_facts
    reached = task.init
    for f in bits(reached):
        co[f] = reached
    acts = [(a.pre, a.add, a.delete) for a in task.actions]
    changed = True
    while changed:
        changed = False
        for pre, add, dele in acts:
            if pre & ~reached:
                continue
            if any(pre & ~co[r] for r in bits(pre)):
                continue  # some precondition pair is still mutex
            persist = reached & ~dele
            for r in bits(pre):
                persist &= co[r]
            with_adds = add | persist
            for p in bits(add):
                grow = (with_adds | 1 << p) & ~co[p]
                if grow:
                    co[p] |= grow
                    changed = True
            for q in bits(persist):
                if add & ~co[q]:
                    co[q] |= add
                    changed = True
            if add & ~reached:
                new = add & ~reached
                reached |= new
                changed = True
    return InconsistencyTable(co)


def reference_interference_conditions(task: Task, table: InconsistencyTable, g: LGG,
                            l: int, lp: int) -> tuple[bool, bool, bool, bool]:
    """The four sufficient conditions for achieving ``l`` to delete ``lp``.

    1. l and lp are mutex;
    2. every l-adder also adds some x != l mutex with lp;
    3. every l-adder deletes lp;
    4. some graph node x mutex with lp has a gn edge into l.

    Conditions 2 and 3 are vacuously false when l has no adders (such an l
    is unreachable and the pair irrelevant).
    """
    c1 = table.query(l, lp)
    adders = list(bits(task._adder_mask[l]))
    c2 = c3 = False
    if adders:
        shared_add = task.actions[adders[0]].add
        shared_del = task.actions[adders[0]].delete
        for aid in adders[1:]:
            shared_add &= task.actions[aid].add
            shared_del &= task.actions[aid].delete
        c2 = bool(shared_add & ~(1 << l) & table.mutex_mask(lp))
        c3 = bool(shared_del >> lp & 1)
    c4 = any(table.query(x, lp) for x in g.predecessors(l, (GN,)))
    return c1, c2, c3, c4


def reference_interferes(task: Task, table: InconsistencyTable, g: LGG, l: int, lp: int) -> bool:
    return any(reference_interference_conditions(task, table, g, l, lp))


def _backward_closure(g: LGG, starts: Iterable[int], kinds: tuple[EdgeKind, ...]) -> set[int]:
    """Nodes with a (possibly empty) path over ``kinds`` edges into ``starts``."""
    seen = set(starts)
    stack = list(seen)
    while stack:
        n = stack.pop()
        for p in g.predecessors(n, kinds):
            if p not in seen:
                seen.add(p)
                stack.append(p)
    return seen


def _successors(g: LGG, n: int, kinds: tuple[EdgeKind, ...]) -> list[int]:
    """The targets of ``n``'s ``kinds`` edges, read off the edge list."""
    return sorted({d for s, d, k in g.edges if s == n and k in kinds})


def _short_gn_path(g: LGG, l: int, lp: int) -> bool:
    """gn path of length 1 or 2 from l to lp (such an r edge would be moot)."""
    succ = _successors(g, l, (GN,))
    if lp in succ:
        return True
    return any(lp in _successors(g, m, (GN,)) for m in succ)


def _aftermath_sources(g: LGG, lp: int, step_kinds: tuple[EdgeKind, ...],
                       path_kinds: tuple[EdgeKind, ...]) -> set[int]:
    """Nodes L such that lp is (approximately) in the aftermath of L, for a
    non-goal lp: L reaches, over ``path_kinds`` edges, some Ln != lp whose
    ``step_kinds`` successor is also a strict-gn successor of lp."""
    shared_targets = set(_successors(g, lp, (GN,)))
    lns = set()
    for ln1 in shared_targets:
        for ln in g.predecessors(ln1, step_kinds):
            if ln != lp:
                lns.add(ln)
    if not lns:
        return set()
    return _backward_closure(g, lns, path_kinds)


def reference_add_reasonable_orders(task: Task, g: LGG, table: InconsistencyTable) -> LGG:
    """Insert r edges for interfering pairs licensed by the aftermath test.

    A goal node is in the aftermath of every other node.  A non-goal node lp
    is in the aftermath of L when L has a (possibly empty) gn/ln path to some
    Ln that shares a strict-gn successor with lp.  Pairs connected by a gn
    path of length one or two are skipped.
    """
    out = g.copy()
    goal = task.goal
    for lp in out.nodes:
        if goal >> lp & 1:
            sources = set(out.nodes)
        else:
            sources = _aftermath_sources(out, lp, (GN, LN), (GN, LN))
        for l in sorted(sources):
            if l == lp or _short_gn_path(out, l, lp):
                continue
            if reference_interferes(task, table, out, l, lp):
                out.add_edge(l, lp, R)
    return out


def reference_add_obedient_orders(task: Task, g: LGG, table: InconsistencyTable) -> LGG:
    """Insert rO edges: the aftermath test additionally rides the committed r
    edges, goal targets are skipped (already handled), the interference test
    is unchanged, and new rO edges are not fed back into the conditions."""
    out = g.copy()
    goal = task.goal
    committed = g  # conditions read the input graph, never the new edges
    for lp in committed.nodes:
        if goal >> lp & 1:
            continue
        sources = _aftermath_sources(committed, lp, (GN, LN, R), (GN, LN, R))
        for l in sorted(sources):
            if l == lp:
                continue
            if reference_interferes(task, table, committed, l, lp):
                out.add_edge(l, lp, RO)
    return out


def _sccs(nodes: tuple[int, ...], succ: dict[int, set[int]]) -> dict[int, int]:
    """Map node -> strongly connected component id (iterative Tarjan)."""
    index: dict[int, int] = {}
    low: dict[int, int] = {}
    on_stack: set[int] = set()
    stack: list[int] = []
    comp: dict[int, int] = {}
    counter = [0]
    ncomp = [0]

    for root in nodes:
        if root in index:
            continue
        work = [(root, iter(sorted(succ.get(root, ()))))]
        index[root] = low[root] = counter[0]
        counter[0] += 1
        stack.append(root)
        on_stack.add(root)
        while work:
            v, it = work[-1]
            advanced = False
            for w in it:
                if w not in index:
                    index[w] = low[w] = counter[0]
                    counter[0] += 1
                    stack.append(w)
                    on_stack.add(w)
                    work.append((w, iter(sorted(succ.get(w, ())))))
                    advanced = True
                    break
                if w in on_stack:
                    low[v] = min(low[v], index[w])
            if advanced:
                continue
            work.pop()
            if work:
                pv = work[-1][0]
                low[pv] = min(low[pv], low[v])
            if low[v] == index[v]:
                while True:
                    w = stack.pop()
                    on_stack.discard(w)
                    comp[w] = ncomp[0]
                    if w == v:
                        break
                ncomp[0] += 1
    return comp


def _cyclic_edges(g: LGG, kind: EdgeKind) -> list[tuple[int, int, EdgeKind]]:
    succ: dict[int, set[int]] = {n: set() for n in g.nodes}
    for s, d, _ in g.edges:
        succ[s].add(d)
    comp = _sccs(g.nodes, succ)
    return [e for e in g.edges if e[2] is kind and comp[e[0]] == comp[e[1]]]


def reference_remove_cycles(g: LGG) -> LGG:
    """Break cycles by dropping rO edges on cycles, then r edges on cycles.

    gn/ln edges are never removed; if a cycle survives both phases the input
    violated the level-decreasing property and a CycleError is raised.
    """
    out = g.copy()
    for e in _cyclic_edges(out, RO):
        out.remove_edge(*e)
    for e in _cyclic_edges(out, R):
        out.remove_edge(*e)
    leftovers = [e for k in (GN, LN, R, RO) for e in _cyclic_edges(out, k)]
    if leftovers:
        raise CycleError(f"cycles remain after removal: {leftovers}")
    return out


def reference_verify_landmarks(task: Task, g: LGG) -> LGG:
    """Keep only nodes that are provably landmarks.

    Goal and initial facts are landmarks by definition.  Any other node L is
    kept iff the goal is unreachable in the delete relaxation once every
    L-adding action is removed; otherwise L and its incident edges go.
    Every surviving node is flagged verified.
    """
    out = g.copy()
    trivial = task.init | task.goal
    for l in out.nodes:
        if trivial >> l & 1:
            out.set_verified(l)
            continue
        lbit = 1 << l
        pruned = [(a.pre, a.add) for a in task.actions if not a.add & lbit]
        if relaxed_closure(pruned, task.init) & task.goal == task.goal:
            out.remove_nodes([l])
        else:
            out.set_verified(l)
    return out


def reference_lookahead_extend(task: Task, rpg: RPG, g: LGG, use_level_test: bool) -> LGG:
    """Lookahead orders, grouping each node's achievers' preconditions by
    predicate one fact at a time."""
    out = g.copy()
    fact_level = rpg.fact_level
    pending = deque(sorted(out.nodes))
    queued = set(pending)
    while pending:
        lp = pending.popleft()
        if lp not in out:
            continue
        level = fact_level[lp]
        if level == 0 or level is INF:
            continue
        achievers = rpg.earliest_achievers(lp)
        if not achievers:
            continue
        pre_masks = [task.actions[a].pre for a in achievers]
        by_pred: dict[str, set[int]] = {}
        for m in pre_masks:
            for f in bits(m):
                by_pred.setdefault(task.facts[f].predicate, set()).add(f)
        new_nodes: list[int] = []
        for pred in sorted(by_pred):
            members = by_pred[pred]
            member_mask = sum(1 << f for f in members)
            if not all(m & member_mask for m in pre_masks):
                continue
            if len(members) == 1 or any(fact_level[f] == 0 for f in members):
                continue
            two_step: list[int] = []
            for f in sorted(members):
                step = rpg.earliest_achievers(f)
                if not step:
                    break
                two_step.extend(step)
            else:
                shared = task.actions[two_step[0]].pre
                for aid in two_step[1:]:
                    shared &= task.actions[aid].pre
                for l in bits(shared):
                    if fact_level[l] == 0:
                        continue
                    if l not in out:
                        out.add_node(l)
                        new_nodes.append(l)
                    if not out.has_edge(l, lp, GN):
                        out.add_edge(l, lp, LN)
        if new_nodes:
            grown = _expand_candidates(task, rpg, out, new_nodes, use_level_test)
            for n in new_nodes + grown:
                if n not in queued:
                    queued.add(n)
                    pending.append(n)
    return out


# ---------------------------------------------------------------------------
# Tasks
# ---------------------------------------------------------------------------

def generated_tasks():
    tasks = [generate_task(d, n, seed) for d, n in
             (("blocksworld-arm", 4), ("blocksworld-arm", 6), ("blocksworld-no-arm", 5))
             for seed in range(3)]
    tasks += [generate_task("logistics", (2, 2, 1, 2), seed) for seed in range(2)]
    return tasks


GENERATED = generated_tasks()


@st.composite
def random_tasks(draw, shared_predicates=False):
    """Unconstrained random tasks: adds may overlap deletes, goals may be
    unreachable, facts may be static or never reachable.  With
    ``shared_predicates``, facts come two to a predicate, as lookahead's
    grouping of preconditions by predicate needs."""
    n = draw(st.integers(2, 7))
    facts = [f"(p{i // 2} o{i % 2})" if shared_predicates else f"f{i}" for i in range(n)]
    universe = (1 << n) - 1
    names = lambda m: [facts[i] for i in range(n) if m >> i & 1]
    actions = []
    for k in range(draw(st.integers(1, 7))):
        pre = draw(st.integers(0, universe))
        add = draw(st.integers(0, universe))
        dele = draw(st.integers(0, universe))
        actions.append((f"(a{k})", names(pre), names(add), names(dele)))
    init = draw(st.integers(0, universe))
    goal = draw(st.integers(0, universe))
    return make_task(actions, names(init), names(goal), facts=facts)


def _reachable_states(task, limit=60):
    seen, frontier = {task.init}, [task.init]
    while frontier and len(seen) < limit:
        nxt = []
        for s in frontier:
            for _, t in successors(task.ops, s):
                if t not in seen:
                    seen.add(t)
                    nxt.append(t)
        frontier = nxt
    return sorted(seen)[:limit]


def _edges(g):
    return [(s, d, k.value) for s, d, k in g.edges]


def _same_graph(new, ref):
    assert new.nodes == ref.nodes
    assert _edges(new) == _edges(ref)
    assert all(new.verified(n) == ref.verified(n) for n in new.nodes)


# ---------------------------------------------------------------------------
# Relaxed planning graph
# ---------------------------------------------------------------------------

def _same_rpg(new, ref):
    """What landmark extraction reads of a goals-first graph."""
    assert new.goal_reached == ref.goal_reached
    assert new.fact_level == ref.fact_level
    assert new.top_layer == ref.top_layer
    for f in range(new.task.num_facts):
        assert new.earliest_achievers(f) == ref.earliest_achievers(f)


def _check_rpg(task, states, goals):
    for state in states:
        _same_rpg(build_rpg(task, GOALS_FIRST, state), ReferenceRPG(task, state, GOALS_FIRST))
        full = ReferenceRPG(task, state, FIXPOINT)
        for goal in goals:
            # a fresh graph per goal: the growth is scoped to that goal
            assert extract_relaxed_plan(build_rpg(task, FIXPOINT, state), goal) == \
                reference_extract_relaxed_plan(full, goal)
        # one graph asked for several goals: each extraction grows its own
        # layers, scoped to its goal
        rpg = build_rpg(task, FIXPOINT, state)
        for goal in goals:
            assert extract_relaxed_plan(rpg, goal) == reference_extract_relaxed_plan(full, goal)


def test_rpg_matches_reference_on_generated_tasks():
    for task in GENERATED:
        states = _reachable_states(task, 12)
        rng = random.Random(task.name)
        goals = [task.goal] + [rng.getrandbits(task.num_facts) & task.goal for _ in range(3)]
        goals += [1 << rng.randrange(task.num_facts) for _ in range(3)]
        _check_rpg(task, states, goals)


def test_rpg_matches_reference_on_compiled_subtasks():
    for task in GENERATED[:6]:
        g = build_landmark_graph(task)
        leaves = [f for f in g.leaves() if not task.init >> f & 1] or list(g.nodes)
        compiled = compile_disjunctive_goal(task, task.init, leaves).task
        _check_rpg(compiled, _reachable_states(compiled, 12), [compiled.goal, task.goal])


@settings(max_examples=150)
@given(random_tasks(), st.lists(st.integers(0, 127), min_size=1, max_size=4))
def test_rpg_matches_reference_on_random_tasks(task, raw):
    universe = (1 << task.num_facts) - 1
    states = sorted({task.init} | {r & universe for r in raw})
    goals = sorted({task.goal} | {r & universe for r in raw} | {0})
    _check_rpg(task, states, goals)


def _gbfs_evaluations(task, landmarks):
    """(task, state) of every heuristic evaluation of gbfs on ``task``, plain
    or as the control loop's base planner (its sub-tasks' states then)."""
    calls = []
    real = planners.build_rpg

    def recording(task, mode, state):
        calls.append((task, state))
        return real(task, mode, state)

    planners.build_rpg = recording
    try:
        solve(task, gbfs_plan, landmarks)
    finally:
        planners.build_rpg = real
    return calls


def test_heuristic_matches_reference_on_the_states_gbfs_evaluates():
    evaluated = 0
    for domain, size in (("blocksworld-arm", 9), ("logistics", (2, 3, 2, 4))):
        for seed in range(3):
            task = generate_task(domain, size, seed)
            for landmarks in (False, True):
                calls = _gbfs_evaluations(task, landmarks)
                assert calls
                for sub, state in calls:
                    assert extract_relaxed_plan(build_rpg(sub, FIXPOINT, state), sub.goal) == \
                        reference_extract_relaxed_plan(ReferenceRPG(sub, state, FIXPOINT), sub.goal)
                evaluated += len(calls)
    assert evaluated > 1000


# ---------------------------------------------------------------------------
# Mutexes, verification, orders, cycles
# ---------------------------------------------------------------------------

def _check_pipeline_stages(task):
    table = compute_mutexes(task)
    assert table._co == reference_compute_mutexes(task)._co
    everything = LGG()
    for f in range(task.num_facts):
        everything.add_node(f)
    _same_graph(verify_landmarks(task, everything), reference_verify_landmarks(task, everything))
    rpg = build_rpg(task, GOALS_FIRST)
    if not rpg.goal_reached:
        return
    for level_test in (True, False):
        g = generate_candidates(task, rpg, use_level_test=level_test)
        expected = reference_lookahead_extend(task, rpg, g, level_test)
        g = lookahead_extend(task, rpg, g, use_level_test=level_test)
        _same_graph(g, expected)
        _same_graph(verify_landmarks(task, g), reference_verify_landmarks(task, g))
        g = verify_landmarks(task, g)
        r = add_reasonable_orders(task, g.copy(), table)
        _same_graph(r, reference_add_reasonable_orders(task, g, table))
        ro = add_obedient_orders(task, r.copy(), table)
        _same_graph(ro, reference_add_obedient_orders(task, r, table))
        for l in g.nodes:
            for lp in g.nodes:
                if l != lp:
                    assert interferes(task, table, g, l, lp) == \
                        reference_interferes(task, table, g, l, lp)
        _check_cycles(ro)
        if level_test:
            _same_graph(build_landmark_graph(task), remove_cycles(ro))


def _check_cycles(g):
    try:
        expected = reference_remove_cycles(g)
    except CycleError:
        with pytest.raises(CycleError):
            remove_cycles(g)
    else:
        _same_graph(remove_cycles(g), expected)


def test_pipeline_stages_match_reference_on_generated_tasks():
    for task in GENERATED:
        _check_pipeline_stages(task)


@settings(max_examples=150)
@given(random_tasks())
def test_pipeline_stages_match_reference_on_random_tasks(task):
    _check_pipeline_stages(task)


@settings(max_examples=150)
@given(random_tasks(shared_predicates=True))
def test_pipeline_stages_match_reference_on_random_tasks_sharing_predicates(task):
    _check_pipeline_stages(task)


@settings(max_examples=100)
@given(random_tasks(), st.lists(st.tuples(st.integers(0, 6), st.integers(0, 6),
                                          st.sampled_from([GN, LN, R, RO])), max_size=14))
def test_orders_and_cycles_match_reference_on_random_graphs(task, raw_edges):
    """Arbitrary typed graphs, cyclic ones included, over the task's facts."""
    n = task.num_facts
    g = LGG()
    for f in range(n):
        g.add_node(f, verified=True)
    for s, d, k in raw_edges:
        if s % n != d % n:
            g.add_edge(s % n, d % n, k)
    table = compute_mutexes(task)
    _same_graph(add_reasonable_orders(task, g.copy(), table),
                reference_add_reasonable_orders(task, g, table))
    _same_graph(add_obedient_orders(task, g.copy(), table),
                reference_add_obedient_orders(task, g, table))
    _check_cycles(g)


def test_mutex_table_is_symmetric():
    # the batched interference test relies on it
    for task in GENERATED:
        co = compute_mutexes(task)._co
        for x in range(task.num_facts):
            for y in bits(co[x]):
                assert co[y] >> x & 1


# ---------------------------------------------------------------------------
# Derived tasks
# ---------------------------------------------------------------------------

def _same_task(a, b):
    assert (a.facts, a.actions, a.init, a.goal, a.name) == (b.facts, b.actions, b.init, b.goal, b.name)
    assert (a._adder_mask, a.ops, a.pruned_actions, a.provably_unsolvable) == \
        (b._adder_mask, b.ops, b.pruned_actions, b.provably_unsolvable)
    for f in a.facts:
        assert a.fact_named(f.name) == b.fact_named(f.name)
    for act in a.actions:
        assert a.action_named(act.name) == b.action_named(act.name)


def test_derived_tasks_equal_constructed_ones():
    for task in GENERATED:
        g = build_landmark_graph(task)
        leaves = list(g.nodes)[:3]
        compiled = compile_disjunctive_goal(task, task.init, leaves).task
        _same_task(compiled, Task(compiled.facts, compiled.actions, compiled.init,
                                  compiled.goal, name=compiled.name))
        moved = with_init(task, _reachable_states(task, 5)[-1])
        _same_task(moved, Task(task.facts, task.actions, moved.init, task.goal, name=task.name))
