import pytest

from lmplan.core import bits, grow_layers, layering, make_task, mask_of
from lmplan.rpg import (
    FIXPOINT,
    GOALS_FIRST,
    INF,
    build_rpg,
    extract_relaxed_plan,
)

from conftest import fid
from test_pipeline_differential import ReferenceRPG, relaxed_closure


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
    ref = ReferenceRPG(demo_bw, demo_bw.init, GOALS_FIRST)
    assert rpg.start == ref.prop_layers[0] == demo_bw.init
    first_actions = {demo_bw.actions[a].name
                     for a in range(len(demo_bw.actions))
                     if ref.action_level[a] == 0}
    assert first_actions == {"(pick-up a)", "(pick-up b)", "(unstack d c)"}
    new_facts = {f.name for f in demo_bw.facts_in(ref.prop_layers[1] & ~ref.prop_layers[0])}
    assert new_facts == {"(holding a)", "(holding b)", "(holding d)", "(clear c)"}
    # the graph's level-1 facts are those, and their earliest achievers the
    # actions of layer 0
    assert {f.name for f in demo_bw.facts if rpg.fact_level[f.id] == 1} == new_facts
    assert {demo_bw.actions[a].name for f in demo_bw.facts if rpg.fact_level[f.id] == 1
            for a in rpg.earliest_achievers(f.id)} == first_actions
    # the third layer is the first to hold stacked-on facts
    assert rpg.fact_level[fid(demo_bw, "(on b a)")] == 2
    assert rpg.fact_level[fid(demo_bw, "(on b c)")] == 2


def test_goal_in_init_gives_single_layer():
    t = make_task(actions=[("(a)", ["p"], ["q"], [])], init=["p"], goal=["p"])
    rpg = build_rpg(t, GOALS_FIRST)
    assert rpg.goal_reached and rpg.top_layer == 0


def test_goals_first_stops_before_long_route(roadmap):
    rpg = build_rpg(roadmap, GOALS_FIRST)
    at_d = fid(roadmap, "(at d)")
    move_c_d = roadmap.action_named("(move-c-d)").id
    move_e_d = roadmap.action_named("(move-e-d)").id
    # (at d) appears in layer 2, added by (move-e-d) from layer 1
    assert rpg.top_layer == 2 and rpg.fact_level[at_d] == 2
    assert rpg.earliest_achievers(at_d) == [move_e_d]
    ref = ReferenceRPG(roadmap, roadmap.init, GOALS_FIRST)
    assert ref.action_level[move_c_d] is INF
    assert ref.action_level[move_e_d] == 1
    full = ReferenceRPG(roadmap, roadmap.init, FIXPOINT)
    assert full.action_level[move_c_d] == 2


def test_layers_are_monotone_and_level_consistent(demo_bw, two_planes):
    for task in (demo_bw, two_planes):
        full = ReferenceRPG(task, task.init, FIXPOINT)
        for lo, hi in zip(full.prop_layers, full.prop_layers[1:]):
            assert lo & hi == lo
        for lo, hi in zip(full.action_layers, full.action_layers[1:]):
            assert lo & hi == lo
        rpg = build_rpg(task, GOALS_FIRST)
        level = rpg.fact_level
        for f in range(task.num_facts):
            if level[f] is INF or level[f] == 0:
                assert rpg.earliest_achievers(f) == []
                continue
            achievers = rpg.earliest_achievers(f)
            assert achievers
            for a in achievers:
                # first applicable one layer below the fact: every
                # precondition is there, and one arrived just then
                pre_levels = [level[p] for p in bits(task.actions[a].pre)]
                assert max(pre_levels, default=0) == level[f] - 1


# Delete-free reachability to the fixpoint, as the grounder grows it

def closure(task, kept, state):
    """The facts reachable from ``state`` over the actions that ``kept``
    accepts, grown by ``grow_layers`` to the fixpoint; the reference
    closure over their (pre, add) pairs agrees, and the fired masks hold,
    once each, exactly the accepted actions applicable in the last layer."""
    actions = [a for a in task.actions if kept(a)]
    layers, fired = [state], []
    assert not grow_layers(layers, fired, -1, mask_of(a.id for a in actions),
                           (1 << task.num_facts) - 1, *layering(task))
    reached = layers[-1]
    assert reached == relaxed_closure([(a.pre, a.add) for a in actions], state)
    assert sum(fired) == mask_of(a.id for a in actions if reached & a.pre == a.pre)
    return reached


def test_relaxed_solvable_survives_achiever_removal(roadmap):
    at_e = 1 << fid(roadmap, "(at e)")
    assert closure(roadmap, lambda a: not a.add & at_e, roadmap.init) == \
        roadmap.mask(["(at a)", "(at b)", "(at c)", "(at d)"])


def test_relaxed_solvable_trivial_when_goal_initial(roadmap):
    assert closure(roadmap, lambda a: False, roadmap.init) == roadmap.init


def test_relaxed_unsolvable_without_key_achievers(demo_bw):
    holding_c = 1 << fid(demo_bw, "(holding c)")
    reached = closure(demo_bw, lambda a: not a.add & holding_c, demo_bw.init)
    assert not reached & holding_c
    assert not reached >> fid(demo_bw, "(on c a)") & 1
    # with them, the goal is reached
    assert closure(demo_bw, lambda a: True, demo_bw.init) & demo_bw.goal == demo_bw.goal


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
    assert build_rpg(t, GOALS_FIRST).earliest_achievers(g) == [3, 4]
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
