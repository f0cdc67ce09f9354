import pytest

from lmplan.landmarks import GN, LN, R, RO, LGG, generate_candidates, lookahead_extend, verify_landmarks
from lmplan.orders import (
    CycleError,
    add_obedient_orders,
    add_reasonable_orders,
    compute_mutexes,
    remove_cycles,
)
from lmplan.oracles import enumerate_states, co_occurrence, oracle_reasonable
from lmplan.pddl import ground_files
from lmplan.instances import BLOCKSWORLD_ARM_DOMAIN
from lmplan.pipeline import build_landmark_graph
from lmplan.rpg import GOALS_FIRST, build_rpg

from conftest import fid, topological_order_exists
from test_pipeline_differential import interference_conditions, interferes, profile_interferes


def verified_graph(task):
    return verify_landmarks(task, generate_candidates(task, build_rpg(task, GOALS_FIRST)))


def test_mutex_blocked_surface(demo_bw):
    m = compute_mutexes(demo_bw)
    assert m.query(fid(demo_bw, "(clear d)"), fid(demo_bw, "(on b d)"))


def test_jointly_initial_facts_never_mutex(demo_bw):
    m = compute_mutexes(demo_bw)
    init = [f.id for f in demo_bw.facts_in(demo_bw.init)]
    for x in init:
        for y in init:
            assert not m.query(x, y)


def test_shared_add_companion_mutex(shared_add):
    m = compute_mutexes(shared_add)
    assert m.query(fid(shared_add, "x"), fid(shared_add, "lp"))
    assert not m.query(fid(shared_add, "l"), fid(shared_add, "lp"))


def test_mutex_table_is_symmetric(demo_bw):
    m = compute_mutexes(demo_bw)
    for x in range(demo_bw.num_facts):
        for y in range(demo_bw.num_facts):
            assert m.query(x, y) == m.query(y, x)


@pytest.mark.parametrize("maker", ["demo_bw", "shared_add", "twin", "roadmap"])
def test_mutex_table_sound_against_enumeration(maker, request):
    task = request.getfixturevalue(maker)
    m = compute_mutexes(task)
    co = co_occurrence(enumerate_states(task), task.num_facts)
    for x, y in m.pairs():
        assert not co[x] >> y & 1, (task.facts[x].name, task.facts[y].name)


def test_interference_condition_two_only(shared_add):
    m = compute_mutexes(shared_add)
    g = verified_graph(shared_add)
    l, lp = fid(shared_add, "l"), fid(shared_add, "lp")
    assert interference_conditions(shared_add, m, g, l, lp) == (False, True, False, False)
    assert interferes(shared_add, m, g, l, lp)


def test_interference_condition_four(demo_bw):
    m = compute_mutexes(demo_bw)
    g = verified_graph(demo_bw)
    c1, c2, c3, c4 = interference_conditions(
        demo_bw, m, g, fid(demo_bw, "(clear c)"), fid(demo_bw, "(on b d)"))
    assert c4  # clear(d) is mutex with on(b d) and feeds clear(c)


def test_interference_vacuous_without_adders(shared_add):
    m = compute_mutexes(shared_add)
    g = verified_graph(shared_add)
    pp = fid(shared_add, "pp")  # initial fact; its adders exist, so use lp's view
    # a fact with no adders at all: craft via condition check on an init-only fact
    from lmplan.core import make_task

    t = make_task(actions=[("(a)", ["p"], ["q"], [])], init=["p"], goal=["q"])
    m2 = compute_mutexes(t)
    g2 = verified_graph(t)
    assert interference_conditions(t, m2, g2, fid(t, "p"), fid(t, "q"))[1:3] == (False, False)
    assert (profile_interferes(t, m2, g2, fid(t, "p"), fid(t, "q"))
            == interferes(t, m2, g2, fid(t, "p"), fid(t, "q")))


@pytest.mark.parametrize("maker", ["demo_bw", "shared_add", "twin", "roadmap", "committed_chain"])
def test_interference_profile_agrees_with_the_four_conditions(maker, request):
    task = request.getfixturevalue(maker)
    m = compute_mutexes(task)
    g = verified_graph(task)
    for l in g.nodes:
        for lp in g.nodes:
            if l != lp:
                assert profile_interferes(task, m, g, l, lp) == interferes(task, m, g, l, lp), \
                    (task.facts[l].name, task.facts[lp].name)


def test_reasonable_edge_inserted_on_demo(demo_bw):
    m = compute_mutexes(demo_bw)
    g = add_reasonable_orders(demo_bw, verified_graph(demo_bw), m)
    assert g.has_edge(fid(demo_bw, "(clear c)"), fid(demo_bw, "(on b d)"), R)


def test_short_gn_path_suppresses_redundant_edge(demo_bw):
    m = compute_mutexes(demo_bw)
    g = add_reasonable_orders(demo_bw, verified_graph(demo_bw), m)
    assert not g.has_edge(fid(demo_bw, "(clear a)"), fid(demo_bw, "(on c a)"), R)
    assert not g.has_edge(fid(demo_bw, "(holding c)"), fid(demo_bw, "(on c a)"), R)


def test_reasonable_orders_only_add_edges(demo_bw):
    m = compute_mutexes(demo_bw)
    base = verified_graph(demo_bw)
    g = add_reasonable_orders(demo_bw, base.copy(), m)
    assert set(base.edges) <= set(g.edges)
    assert set(base.nodes) == set(g.nodes)


def test_empty_graph_passes_through(demo_bw):
    m = compute_mutexes(demo_bw)
    assert add_reasonable_orders(demo_bw, LGG(), m) == LGG()
    assert add_obedient_orders(demo_bw, LGG(), m) == LGG()


THREE_TOWER_PROBLEM = """\
(define (problem three-tower)
  (:domain blocksworld-arm)
  (:objects a b c - block)
  (:init (on-table a) (on-table b) (on-table c)
         (clear a) (clear b) (clear c) (arm-empty))
  (:goal (and (on a b) (on b c)))
)
"""


def test_stacking_goals_are_reasonably_ordered():
    t = ground_files(BLOCKSWORLD_ARM_DOMAIN, THREE_TOWER_PROBLEM)
    m = compute_mutexes(t)
    g = add_reasonable_orders(t, verified_graph(t), m)
    lower, upper = fid(t, "(on b c)"), fid(t, "(on a b)")
    assert g.has_edge(lower, upper, R)
    # the emitted edge agrees with the exact decision procedure
    assert oracle_reasonable(t, lower, upper)


def test_obedient_edge_from_committed_order(obedient_witness):
    t = obedient_witness
    m = compute_mutexes(t)
    l, lp, l2 = fid(t, "l"), fid(t, "lp"), fid(t, "l2")
    g = LGG()
    for n in (l, lp, l2):
        g.add_node(n)
    g.add_edge(lp, l2, GN)
    g.add_edge(l, l2, R)
    out = add_obedient_orders(t, g, m)
    assert out.has_edge(l, lp, RO)
    # without the commitment the pair is not reasonably ordered: a solution
    # may reach l2 through lp and never touch l
    assert not oracle_reasonable(t, l, lp)
    # Hand trace of the committed case: the only sequence reaching a state
    # where lp was achieved strictly before l is (get-lp); it obeys l<l2
    # because l2 is not added.  From {s0, lp}, achieving l needs (get-l),
    # which deletes lp; any goal continuation obeying l<l2 must re-add lp
    # (get-l2 needs it) after l.  So the order is obediently reasonable.


def test_obedient_pass_skips_goal_targets(obedient_witness):
    t = obedient_witness
    m = compute_mutexes(t)
    l, lp, l2 = fid(t, "l"), fid(t, "lp"), fid(t, "l2")
    g = LGG()
    for n in (l, lp, l2):
        g.add_node(n)
    g.add_edge(lp, l2, GN)
    g.add_edge(l, l2, R)
    out = add_obedient_orders(t, g, m)
    assert not any(d == l2 and k is RO for _, d, k in out.edges)


def test_obedient_unchanged_without_material(demo_bw):
    m = compute_mutexes(demo_bw)
    base = verified_graph(demo_bw)
    g = add_obedient_orders(demo_bw, base.copy(), m)
    assert set(base.edges) <= set(g.edges)


def _graph(edges):
    g = LGG()
    nodes = {n for e in edges for n in e[:2]}
    for n in nodes:
        g.add_node(n)
    for s, d, k in edges:
        g.add_edge(s, d, k)
    return g


def test_remove_cycles_two_phase():
    g = _graph([(0, 1, GN), (1, 2, R), (2, 1, RO)])
    out = remove_cycles(g)
    assert set(out.edges) == {(0, 1, GN), (1, 2, R)}


def test_remove_cycles_drops_both_r_edges():
    g = _graph([(0, 1, R), (1, 0, R)])
    out = remove_cycles(g)
    assert out.edges == ()
    assert set(out.nodes) == {0, 1}


def test_remove_cycles_identity_on_acyclic():
    g = _graph([(0, 1, GN), (1, 2, R), (0, 2, RO)])
    assert remove_cycles(g) == g


def test_remove_cycles_faults_on_gn_cycle():
    g = _graph([(0, 1, GN), (1, 0, GN)])
    with pytest.raises(CycleError):
        remove_cycles(g)


def test_adding_stages_extend_their_input_and_removing_stages_copy(two_planes):
    # the traced benchmark run counts verification's candidates and cycle
    # removal's dropped edges from their inputs after the call
    t = two_planes
    rpg = build_rpg(t, GOALS_FIRST)
    m = compute_mutexes(t)
    g = generate_candidates(t, rpg)
    assert lookahead_extend(t, rpg, g) is g
    before = g.copy()
    v = verify_landmarks(t, g)
    assert v is not g and g == before
    assert add_reasonable_orders(t, v, m) is v
    assert add_obedient_orders(t, v, m) is v
    cyclic = _graph([(0, 1, GN), (1, 2, R), (2, 1, RO)])
    before = cyclic.copy()
    assert remove_cycles(cyclic) != cyclic and cyclic == before


def test_full_pipeline_is_deterministic(two_planes, demo_bw):
    for task in (two_planes, demo_bw):
        a = build_landmark_graph(task)
        b = build_landmark_graph(task)
        assert a == b and a.edges == b.edges


def test_remove_cycles_keeps_gn_ln_and_yields_topological_order(two_planes):
    g = build_landmark_graph(two_planes)
    assert topological_order_exists(g)
    structural = {(s, d, k) for s, d, k in g.edges if k in (GN, LN)}
    import lmplan.pipeline as pl

    raw = pl.build_landmark_graph(two_planes, pl.PipelineConfig(reasonable=False, obedient=False))
    raw_structural = {(s, d, k) for s, d, k in raw.edges if k in (GN, LN)}
    assert structural == raw_structural
