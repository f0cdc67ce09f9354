import pytest

from lmplan.core import make_task
from lmplan.rpg import (
    FIXPOINT,
    GOALS_FIRST,
    INF,
    build_rpg,
    extract_relaxed_plan,
    relaxed_solvable,
)

from conftest import fid


def test_demo_levels_match_hand_built_graph(demo_bw):
    rpg = build_rpg(demo_bw, GOALS_FIRST)
    assert rpg.goal_reached
    assert rpg.top_layer == 3
    assert rpg.fact_level[fid(demo_bw, "(clear c)")] == 1
    assert rpg.fact_level[fid(demo_bw, "(holding c)")] == 2
    assert rpg.fact_level[fid(demo_bw, "(on b d)")] == 2
    assert rpg.fact_level[fid(demo_bw, "(on c a)")] == 3


def test_demo_first_layers_are_exact(demo_bw):
    rpg = build_rpg(demo_bw, GOALS_FIRST)
    assert rpg.prop_layers[0] == demo_bw.init
    first_actions = {demo_bw.actions[a].name
                     for a in range(len(demo_bw.actions))
                     if rpg.action_level[a] == 0}
    assert first_actions == {"(pick-up a)", "(pick-up b)", "(unstack d c)"}
    new_facts = {f.name for f in demo_bw.facts_in(rpg.prop_layers[1] & ~rpg.prop_layers[0])}
    assert new_facts == {"(holding a)", "(holding b)", "(holding d)", "(clear c)"}
    # the third layer is the first to hold stacked-on facts
    assert rpg.fact_level[fid(demo_bw, "(on b a)")] == 2
    assert rpg.fact_level[fid(demo_bw, "(on b c)")] == 2


def test_goal_in_init_gives_single_layer():
    t = make_task(actions=[("(a)", ["p"], ["q"], [])], init=["p"], goal=["p"])
    rpg = build_rpg(t, GOALS_FIRST)
    assert rpg.goal_reached and rpg.top_layer == 0


def test_goals_first_stops_before_long_route(roadmap):
    rpg = build_rpg(roadmap, GOALS_FIRST)
    assert rpg.action_level[roadmap.action_named("(move-c-d)").id] is INF
    assert rpg.action_level[roadmap.action_named("(move-e-d)").id] == 1
    full = build_rpg(roadmap, FIXPOINT)
    assert full.action_level[roadmap.action_named("(move-c-d)").id] == 2


def test_layers_are_monotone_and_level_consistent(demo_bw, two_planes):
    for task in (demo_bw, two_planes):
        rpg = build_rpg(task, FIXPOINT)
        for lo, hi in zip(rpg.prop_layers, rpg.prop_layers[1:]):
            assert lo & hi == lo
        for lo, hi in zip(rpg.action_layers, rpg.action_layers[1:]):
            assert lo & hi == lo
        for a in task.actions:
            lvl = rpg.action_level[a.id]
            if lvl is not INF:
                # every precondition is available at the action's layer
                assert all(rpg.fact_level[f] <= lvl
                           for f in range(task.num_facts) if a.pre >> f & 1)


def test_relaxed_solvable_survives_achiever_removal(roadmap):
    at_e = 1 << fid(roadmap, "(at e)")
    acts = [a for a in roadmap.actions if not a.add & at_e]
    assert relaxed_solvable(acts, roadmap.init, roadmap.goal)


def test_relaxed_solvable_trivial_when_goal_initial(roadmap):
    assert relaxed_solvable([], roadmap.init, roadmap.init)


def test_relaxed_unsolvable_without_key_achievers(demo_bw):
    holding_c = 1 << fid(demo_bw, "(holding c)")
    acts = [a for a in demo_bw.actions if not a.add & holding_c]
    goal = demo_bw.mask(["(on c a)"])
    assert not relaxed_solvable(acts, demo_bw.init, goal)


def test_extract_zero_when_goal_holds(demo_bw):
    rpg = build_rpg(demo_bw, FIXPOINT)
    assert extract_relaxed_plan(rpg, demo_bw.init) == 0


def test_extract_two_step_subgoal(demo_bw):
    # on(b d) needs pick-up(b) then stack(b d)
    rpg = build_rpg(demo_bw, FIXPOINT)
    assert extract_relaxed_plan(rpg, demo_bw.mask(["(on b d)"])) == 2


def test_extract_takes_the_lowest_id_achiever_of_a_layer():
    # both adders of g are first applicable in layer 1: the lower id needs
    # two helper actions, the higher id one; the relaxed plan follows the
    # lower id, not the cheaper achiever
    t = make_task(actions=[
        ("(make-x)", ["s"], ["x"], []),
        ("(make-y)", ["s"], ["y"], []),
        ("(make-z)", ["s"], ["z"], []),
        ("(g-from-yz)", ["y", "z"], ["g"], []),
        ("(g-from-x)", ["x"], ["g"], []),
    ], init=["s"], goal=["g"])
    g = fid(t, "g")
    assert build_rpg(t, FIXPOINT).earliest_achievers(g) == [3, 4]
    # a one-fact goal (grown with the achievers' feeders first) and a
    # two-fact one
    for goal in (t.goal, t.goal | t.init):
        assert extract_relaxed_plan(build_rpg(t, FIXPOINT), goal) == 3


def test_extract_unreachable_goal_is_inf():
    t = make_task(actions=[("(a)", ["p"], ["q"], [])], init=["p"], goal=["r"],
                  facts=["p", "q", "r"])
    rpg = build_rpg(t, FIXPOINT)
    assert extract_relaxed_plan(rpg, t.goal) is INF
    assert not build_rpg(t, GOALS_FIRST).goal_reached


def test_extract_requires_fixpoint_mode(demo_bw):
    rpg = build_rpg(demo_bw, GOALS_FIRST)
    with pytest.raises(ValueError):
        extract_relaxed_plan(rpg, demo_bw.goal)


def test_extract_bounded_by_action_count(demo_bw):
    rpg = build_rpg(demo_bw, FIXPOINT)
    n = extract_relaxed_plan(rpg, demo_bw.goal)
    assert 0 < n <= len(demo_bw.actions)
