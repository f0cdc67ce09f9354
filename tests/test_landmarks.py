from lmplan.core import make_task
from lmplan.landmarks import (
    GN,
    LN,
    LGG,
    generate_candidates,
    lookahead_extend,
    verify_landmarks,
)
from lmplan.pddl import ground_files
from lmplan.instances import LOGISTICS_DOMAIN, LOGISTICS_TWO_PLANES_PROBLEM
from lmplan.rpg import GOALS_FIRST, build_rpg

from conftest import fid

DEMO_LANDMARKS = {
    "(on c a)", "(on b d)", "(holding c)", "(clear a)", "(holding b)",
    "(clear d)", "(clear c)", "(on-table c)", "(arm-empty)", "(on-table b)",
    "(clear b)", "(on d c)",
}


def demo_graph(task):
    return generate_candidates(task, build_rpg(task, GOALS_FIRST))


def test_demo_candidate_node_set_is_exact(demo_bw):
    g = demo_graph(demo_bw)
    assert {demo_bw.facts[n].name for n in g.nodes} == DEMO_LANDMARKS


def test_demo_named_edges_present(demo_bw):
    g = demo_graph(demo_bw)
    for src, dst in [
        ("(holding c)", "(on c a)"),
        ("(clear a)", "(on c a)"),
        ("(holding b)", "(on b d)"),
        ("(clear d)", "(on b d)"),
        ("(clear d)", "(clear c)"),
        ("(on d c)", "(clear c)"),
    ]:
        assert g.has_edge(fid(demo_bw, src), fid(demo_bw, dst), GN)


def test_demo_verification_removes_nothing(demo_bw):
    g = demo_graph(demo_bw)
    gv = verify_landmarks(demo_bw, g)
    assert set(gv.nodes) == set(g.nodes)
    assert set(gv.edges) == set(g.edges)


def test_demo_level_test_keeps_edges_level_decreasing(demo_bw):
    rpg = build_rpg(demo_bw, GOALS_FIRST)
    g = generate_candidates(demo_bw, rpg)
    for s, d, k in g.edges:
        assert rpg.fact_level[s] < rpg.fact_level[d]


def test_roadmap_candidates_and_verification(roadmap):
    g = demo_graph(roadmap)
    names = {roadmap.facts[n].name for n in g.nodes}
    assert names == {"(at a)", "(at e)", "(at d)"}
    assert {(roadmap.facts[s].name, roadmap.facts[d].name, k)
            for s, d, k in g.edges} == {
        ("(at a)", "(at e)", GN),
        ("(at e)", "(at d)", GN),
    }
    gv = verify_landmarks(roadmap, g)
    assert {roadmap.facts[n].name for n in gv.nodes} == {"(at a)", "(at d)"}
    assert gv.edges == ()


def test_goal_in_init_yields_goal_nodes_no_edges():
    t = make_task(actions=[("(a)", ["p"], ["q"], [])], init=["p", "q"], goal=["p", "q"])
    g = demo_graph(t)
    assert set(g.nodes) == {fid(t, "p"), fid(t, "q")}
    assert g.edges == ()


def test_lookahead_adds_cross_city_order(two_planes):
    rpg = build_rpg(two_planes, GOALS_FIRST)
    g = lookahead_extend(two_planes, rpg, generate_candidates(two_planes, rpg))
    la = fid(two_planes, "(at pack1 la-airport)")
    bo = fid(two_planes, "(at pack1 boston-airport)")
    assert la in g
    assert g.has_edge(la, bo, LN)
    # the new node is fed back through the backchaining loop
    assert g.has_edge(fid(two_planes, "(in pack1 la-truck)"), la, GN)


def test_lookahead_survives_verification(two_planes):
    rpg = build_rpg(two_planes, GOALS_FIRST)
    g = verify_landmarks(
        two_planes, lookahead_extend(two_planes, rpg, generate_candidates(two_planes, rpg)))
    la = fid(two_planes, "(at pack1 la-airport)")
    bo = fid(two_planes, "(at pack1 boston-airport)")
    assert g.has_edge(la, bo, LN)
    assert la in g and bo in g


def test_without_lookahead_the_node_is_absent(two_planes):
    g = demo_graph(two_planes)
    assert fid(two_planes, "(at pack1 la-airport)") not in g


def test_single_vehicle_task_has_no_lookahead_edges():
    # one plane: the destination-airport unload has a unique earliest
    # achiever, so plain shared preconditions cover everything
    problem = (
        LOGISTICS_TWO_PLANES_PROBLEM
        .replace("(airplane plane2)", "")
        .replace("(at plane2 la-airport)", "")
        .replace("plane1 plane2", "plane1")
    )
    t = ground_files(LOGISTICS_DOMAIN, problem)
    rpg = build_rpg(t, GOALS_FIRST)
    g = lookahead_extend(t, rpg, generate_candidates(t, rpg))
    assert not any(k is LN for _, _, k in g.edges)
    # the airport fact is found anyway, through the unique in-vehicle fact
    la = fid(t, "(at pack1 la-airport)")
    mid = fid(t, "(in pack1 plane1)")
    bo = fid(t, "(at pack1 boston-airport)")
    assert g.has_edge(la, mid, GN) and g.has_edge(mid, bo, GN)


def test_shared_direct_precondition_never_duplicated_as_lookahead(demo_bw):
    rpg = build_rpg(demo_bw, GOALS_FIRST)
    g = lookahead_extend(demo_bw, rpg, generate_candidates(demo_bw, rpg))
    assert not any(k is LN for _, _, k in g.edges)
    assert {demo_bw.facts[n].name for n in g.nodes} == DEMO_LANDMARKS


def test_verification_removes_unsupported_lookahead_endpoints(two_planes):
    rpg = build_rpg(two_planes, GOALS_FIRST)
    g = lookahead_extend(two_planes, rpg, generate_candidates(two_planes, rpg))
    gv = verify_landmarks(two_planes, g)
    # all surviving edges connect surviving nodes
    for s, d, _ in gv.edges:
        assert s in gv and d in gv


def test_safe_variant_on_branching_map_claims_nothing(roadmap):
    # without the level restriction both routes' movers are intersected,
    # so the detour place is never proposed at all
    rpg = build_rpg(roadmap, GOALS_FIRST)
    g = generate_candidates(roadmap, rpg, use_level_test=False)
    assert {roadmap.facts[n].name for n in g.nodes} == {"(at d)"}
    assert g.edges == ()


def test_safe_variant_is_sparser_and_provably_sound(demo_bw):
    from lmplan.oracles import oracle_gn

    rpg = build_rpg(demo_bw, GOALS_FIRST)
    safe = generate_candidates(demo_bw, rpg, use_level_test=False)
    rich = generate_candidates(demo_bw, rpg, use_level_test=True)
    assert set(safe.nodes) < set(rich.nodes)
    # a precondition shared by all achievers must hold right before every
    # fresh achievement; steps where the target merely persists are exempt,
    # so the guarantee is the first-achievement order, not the plain one
    for s, d, _ in safe.edges:
        assert oracle_gn(demo_bw, s, d), (demo_bw.facts[s].name, demo_bw.facts[d].name)


def test_verification_keeps_goal_and_initial_nodes(shared_add):
    g = demo_graph(shared_add)
    # the candidate set is goals plus one initial fact; nothing to test away
    assert all(shared_add.init >> n & 1 or shared_add.goal >> n & 1 for n in g.nodes)
    gv = verify_landmarks(shared_add, g)
    assert gv.nodes == g.nodes and gv.edges == g.edges


def test_graph_copy_is_independent(demo_bw):
    g = demo_graph(demo_bw)
    h = g.copy()
    h.remove_nodes([next(iter(h.nodes))])
    assert len(h) == len(g) - 1
    assert g == demo_graph(demo_bw)


def test_lookahead_skips_a_predicate_that_some_achiever_does_not_need():
    # g's achievers need (p o0), (p o1) or (q x); p groups two of them, but
    # (a-q) needs no p fact, so {(p o0), (p o1)} is no disjunctive landmark
    # and the m shared by their adders gets no ln edge
    task = make_task(actions=[
        ("(make-m)", ["s"], ["m"], []),
        ("(p0)", ["m"], ["(p o0)"], []), ("(p1)", ["m"], ["(p o1)"], []),
        ("(qx)", ["m"], ["(q x)"], []),
        ("(a-p0)", ["(p o0)"], ["g"], []), ("(a-p1)", ["(p o1)"], ["g"], []),
        ("(a-q)", ["(q x)"], ["g"], []),
    ], init=["s"], goal=["g"])
    rpg = build_rpg(task, GOALS_FIRST)
    g = lookahead_extend(task, rpg, generate_candidates(task, rpg))
    assert g.nodes == (fid(task, "g"),) and g.edges == ()
