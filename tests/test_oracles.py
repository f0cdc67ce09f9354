import warnings

import pytest

from lmplan.core import make_task
from lmplan.oracles import (
    CapExceeded,
    count_solutions_of_length,
    enumerate_states,
    first_achiever_pre_mask,
    oracle_gn,
    oracle_inconsistent,
    oracle_landmark,
    oracle_n,
    oracle_reasonable,
    oracle_reasonable_report,
)
from lmplan.bench import gen_blocksworld
from lmplan.instances import BLOCKSWORLD_ARM_DOMAIN
from lmplan.pddl import ground_files

from conftest import fid


def test_twin_goal_space_has_six_states(twin):
    # hand enumeration: {p1}, {l,p2}, {lp,p2p}, {lp,p3p}, {l,p3}, {l,lp}
    space = enumerate_states(twin)
    assert len(space) == 6
    assert twin.mask(["l", "lp"]) in space


def test_twin_goal_has_exactly_two_short_solutions(twin):
    assert count_solutions_of_length(twin, 3) == 2
    assert count_solutions_of_length(twin, 2) == 0
    assert count_solutions_of_length(twin, 4) == 0  # goal states are dead ends


def test_twin_goal_reasonable_in_both_directions(twin):
    l, lp = fid(twin, "l"), fid(twin, "lp")
    assert oracle_reasonable(twin, l, lp)
    assert oracle_reasonable(twin, lp, l)


def test_reasonable_on_demo_pair(demo_bw):
    assert oracle_reasonable(demo_bw, fid(demo_bw, "(clear c)"), fid(demo_bw, "(on b d)"))


def test_reasonable_vacuous_when_source_initial(twin):
    rep = oracle_reasonable_report(twin, fid(twin, "p1"), fid(twin, "l"))
    assert rep.holds and rep.vacuous


def test_single_state_space():
    t = make_task(actions=[("(a)", ["q"], ["r"], [])], init=["p"], goal=["p"],
                  facts=["p", "q", "r"])
    assert len(enumerate_states(t)) == 1


def test_cap_exceeded_raises(demo_bw):
    with pytest.raises(CapExceeded):
        enumerate_states(demo_bw, cap=10)


def test_ten_block_instance_blows_the_cap():
    t = ground_files(BLOCKSWORLD_ARM_DOMAIN, gen_blocksworld(10, "arm", 0))
    with pytest.raises(CapExceeded):
        enumerate_states(t, cap=10_000)


def test_detour_place_is_not_a_landmark(roadmap):
    assert not oracle_landmark(roadmap, fid(roadmap, "(at e)"))
    assert oracle_landmark(roadmap, fid(roadmap, "(at d)"))  # goal fact
    assert oracle_landmark(roadmap, fid(roadmap, "(at a)"))  # initial fact


def test_blocked_surface_is_a_landmark(demo_bw):
    assert oracle_landmark(demo_bw, fid(demo_bw, "(clear c)"))


def test_unsolvable_task_makes_everything_a_landmark():
    t = make_task(actions=[("(a)", ["p"], ["q"], [])], init=["p"], goal=["r"],
                  facts=["p", "q", "r"])
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert oracle_landmark(t, fid(t, "q"))
    assert any("unsolvable" in str(w.message) for w in caught)


def test_greedy_order_without_plain_order(demo_bw):
    cd, cc = fid(demo_bw, "(clear d)"), fid(demo_bw, "(clear c)")
    assert oracle_gn(demo_bw, cd, cc)
    assert not oracle_n(demo_bw, cd, cc)


def test_orders_false_when_target_initial(demo_bw):
    cc, cd = fid(demo_bw, "(clear c)"), fid(demo_bw, "(clear d)")
    assert not oracle_gn(demo_bw, cc, cd)
    assert not oracle_n(demo_bw, cc, cd)


def test_detour_order_is_unsound(roadmap):
    assert not oracle_gn(roadmap, fid(roadmap, "(at e)"), fid(roadmap, "(at d)"))


def test_plain_order_implies_greedy_order(twin, shared_add):
    for task in (twin, shared_add):
        for l in range(task.num_facts):
            for lp in range(task.num_facts):
                if l == lp:
                    continue
                if oracle_n(task, l, lp):
                    assert oracle_gn(task, l, lp)


def test_first_achiever_mask_matches_named_order(demo_bw):
    mask = first_achiever_pre_mask(demo_bw, fid(demo_bw, "(clear c)"))
    assert mask >> fid(demo_bw, "(clear d)") & 1
    assert mask >> fid(demo_bw, "(on d c)") & 1


def test_inconsistency_examples(demo_bw, shared_add):
    assert oracle_inconsistent(demo_bw, fid(demo_bw, "(clear d)"), fid(demo_bw, "(on b d)"))
    assert not oracle_inconsistent(demo_bw, fid(demo_bw, "(clear a)"), fid(demo_bw, "(on d c)"))
    assert not oracle_inconsistent(shared_add, fid(shared_add, "l"), fid(shared_add, "lp"))


def test_shared_add_order_holds_exactly(shared_add):
    # achieving l from any state where lp came first forces re-opening,
    # which deletes lp, and lp is a goal, so the order holds exactly
    assert oracle_reasonable(shared_add, fid(shared_add, "l"), fid(shared_add, "lp"))


def test_committed_chain_matches_hand_analysis(committed_chain):
    # the a-route deletes and re-achieves l2, so l2 is reasonably ordered
    # after l; lp is not, because the a-route never deletes it
    t = committed_chain
    l, lp, l2 = fid(t, "l"), fid(t, "lp"), fid(t, "l2")
    assert oracle_reasonable(t, l, l2)
    assert not oracle_reasonable(t, l, lp)
