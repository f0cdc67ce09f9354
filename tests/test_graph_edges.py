"""The landmark graph's single edge set and the reachability-mask cycle
removal, checked against brute force and the references of
``test_pipeline_differential``: the Tarjan-based ``reference_remove_cycles``,
and the ``query`` loop for the mutex pair list.

The rings below are long (30 or more nodes) so that the reachability
fixpoint needs many sweeps, whatever order the edge set iterates in.
"""

from __future__ import annotations

import random

import pytest
from hypothesis import given, settings, strategies as st

from lmplan.bench import generate_task
from lmplan.core import PlanningError
from lmplan.landmarks import GN, LGG, LN, R, RO
from lmplan.orders import CycleError, compute_mutexes, remove_cycles

from conftest import topological_order_exists
from test_orders import _graph
from test_pipeline_differential import (
    GENERATED,
    _check_cycles,
    random_tasks,
    reference_remove_cycles,
)


def _ring(nodes, kinds):
    """Edges nodes[i] -> nodes[i + 1], closing back to nodes[0], the kinds
    taken in turn."""
    return [(s, d, kinds[i % len(kinds)])
            for i, (s, d) in enumerate(zip(nodes, nodes[1:] + nodes[:1]))]


def _removed(g):
    """remove_cycles' result, checked against the reference and for being
    acyclic with every gn/ln edge kept; returns the dropped edges."""
    _check_cycles(g)
    out = remove_cycles(g)
    assert topological_order_exists(out)
    assert {e for e in g.edges if e[2] in (GN, LN)} <= set(out.edges)
    return set(g.edges) - set(out.edges)


# ---------------------------------------------------------------------------
# Cycle removal
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("n", [30, 47])
@pytest.mark.parametrize("ascending", [True, False])
def test_long_r_ring_loses_every_edge(n, ascending):
    nodes = list(range(n)) if ascending else list(range(n))[::-1]
    edges = _ring(nodes, [R])
    assert _removed(_graph(edges)) == set(edges)


@pytest.mark.parametrize("n", [30, 41])
def test_long_mixed_ring_loses_only_its_ro_edges(n):
    # every third edge is rO: dropping those breaks the ring, so the r edges stay
    edges = _ring(list(range(n)), [R, R, RO])
    assert _removed(_graph(edges)) == {e for e in edges if e[2] is RO}


def test_long_gn_ln_chain_closed_by_one_r_edge():
    chain = [(i + 1, i, GN if i % 2 else LN) for i in range(34)]
    back = [(0, 34, R)]
    assert _removed(_graph(chain + back)) == set(back)


def test_long_gn_chain_closed_by_r_and_ro_edges_keeps_the_r_edge():
    # the one cycle runs through both, so dropping the rO edge keeps the r edge
    chain = [(i + 1, i, GN) for i in range(35)]
    edges = chain + [(0, 40, R), (40, 35, RO)]
    assert _removed(_graph(edges)) == {(40, 35, RO)}


def test_nested_rings_sharing_nodes():
    outer = _ring(list(range(40)), [R])
    # an rO shortcut inside the outer ring, and an inner ring through it
    inner = _ring([5, 12, 30, 21], [RO, R, GN, LN])
    edges = outer + [e for e in inner if e not in outer]
    dropped = _removed(_graph(edges))
    assert {e for e in edges if e[2] is RO} <= dropped


def test_disjoint_components_are_broken_independently():
    acyclic = [(100 + i, 101 + i, GN) for i in range(10)] + [(100, 110, R), (101, 109, RO)]
    r_ring = _ring(list(range(30)), [R])
    ro_ring = _ring(list(range(200, 236)), [RO, R])
    gn_ring_with_r = [(300 + i, 301 + i, GN) for i in range(31)] + [(331, 300, R)]
    dropped = _removed(_graph(acyclic + r_ring + ro_ring + gn_ring_with_r))
    assert dropped == set(r_ring) | {e for e in ro_ring if e[2] is RO} | {(331, 300, R)}


def test_a_gn_ln_cycle_through_a_long_ring_still_raises():
    structural = _ring(list(range(32)), [GN, LN])
    g = _graph(structural + [(3, 17, R), (17, 3, RO)])
    with pytest.raises(CycleError):
        reference_remove_cycles(g)
    with pytest.raises(CycleError):
        remove_cycles(g)


@st.composite
def ordered_graphs(draw):
    """Up to 45 nodes: gn/ln edges from higher to lower ids (acyclic, as the
    level test makes them), r/rO edges in any direction."""
    n = draw(st.integers(2, 45))
    g = LGG()
    for f in range(n):
        g.add_node(f)
    pairs = st.tuples(st.integers(0, n - 1), st.integers(0, n - 1))
    for s, d in draw(st.lists(pairs, max_size=60)):
        if s != d:
            g.add_edge(max(s, d), min(s, d), draw(st.sampled_from([GN, LN])))
    for s, d in draw(st.lists(pairs, max_size=90)):
        if s != d:
            g.add_edge(s, d, draw(st.sampled_from([R, RO])))
    return g


@settings(max_examples=150, deadline=None)
@given(ordered_graphs())
def test_cycle_removal_matches_reference_on_large_random_graphs(g):
    before = g.copy()
    _removed(g)
    assert g == before and g.edges == before.edges


# ---------------------------------------------------------------------------
# Node removal and leaves
# ---------------------------------------------------------------------------

@st.composite
def graphs_and_removals(draw):
    n = draw(st.integers(0, 20))
    nodes = draw(st.sets(st.integers(0, 60), min_size=n, max_size=n))
    g = LGG()
    for f in nodes:
        g.add_node(f)
    if nodes:
        ids = st.sampled_from(sorted(nodes))
        for s, d, k in draw(st.lists(st.tuples(ids, ids, st.sampled_from([GN, LN, R, RO])),
                                     max_size=40)):
            if s != d:
                g.add_edge(s, d, k)
    gone = draw(st.sets(st.sampled_from(sorted(nodes)))) if nodes else set()
    return g, gone


def _brute_leaves(nodes, edges):
    return tuple(n for n in sorted(nodes) if not any(d == n for _, d, _ in edges))


@settings(max_examples=200, deadline=None)
@given(graphs_and_removals())
def test_remove_nodes_and_leaves_match_brute_force(case):
    g, gone = case
    before = g.copy()
    edges = g.edges  # read before the change
    g.remove_nodes(gone)
    nodes = set(before.nodes) - gone
    kept = [e for e in edges if e[0] in nodes and e[1] in nodes]
    assert g.nodes == tuple(sorted(nodes)) and len(g) == len(nodes)
    assert g.edges == tuple(kept) and set(g.edge_set) == set(kept)
    assert all(g.has_edge(*e) for e in kept)
    assert before.nodes == tuple(sorted(set(nodes) | gone))  # the copy kept them
    for lp in g.nodes:
        assert g.predecessors(lp, (GN, LN, R, RO)) == sorted({s for s, d, _ in kept if d == lp})
    expected = _brute_leaves(nodes, kept)
    if expected or not nodes:
        assert g.leaves() == expected
    else:
        with pytest.raises(PlanningError):
            g.leaves()


def test_remove_nodes_one_batch_equals_one_at_a_time():
    rng = random.Random(7)
    for _ in range(20):
        g = LGG()
        for f in range(25):
            g.add_node(f)
        for _ in range(60):
            s, d = rng.sample(range(25), 2)
            g.add_edge(s, d, rng.choice([GN, LN, R, RO]))
        gone = rng.sample(range(25), 9)
        one_by_one = g.copy()
        for f in gone:
            one_by_one.remove_nodes([f])
        g.remove_nodes(gone)
        assert g == one_by_one and g.edges == one_by_one.edges


def test_remove_nodes_with_an_unknown_id_leaves_the_graph_unchanged():
    g = LGG()
    for f in (1, 2, 3):
        g.add_node(f)
    g.add_edge(1, 2, GN)
    g.add_edge(2, 3, GN)
    before = g.copy()
    with pytest.raises(PlanningError, match="not a node: 99"):
        g.remove_nodes([1, 99])
    assert g == before and g.nodes == (1, 2, 3) and g.edges == before.edges
    assert g.leaves() == (1,)


# ---------------------------------------------------------------------------
# Mutex pairs
# ---------------------------------------------------------------------------

def _query_pairs(table, n):
    return [(x, y) for x in range(n) for y in range(x + 1, n) if table.query(x, y)]


def test_pairs_match_the_query_loop_on_generated_tasks():
    tasks = GENERATED + [generate_task("logistics", (2, 3, 2, 4), 0),
                         generate_task("blocksworld-no-arm", 4, 1)]
    for task in tasks:
        table = compute_mutexes(task)
        pairs = table.pairs()
        assert pairs == _query_pairs(table, task.num_facts)
        assert pairs  # every one of these tasks has mutex facts


@settings(max_examples=150, deadline=None)
@given(random_tasks())
def test_pairs_match_the_query_loop_on_random_tasks(task):
    table = compute_mutexes(task)
    assert table.pairs() == _query_pairs(table, task.num_facts)
