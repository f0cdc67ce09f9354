"""Differential tests for the successor kernel and the multi-source
reasonable-order searches.

``core.successors`` is held against ``apply_action`` on every enumerated
state, and the enumerated states must be exactly those that ``apply_action``
reaches; ``oracle_reasonable_report`` is held against the per-start reference
deciders below, which run one aftermath search and one deletion search per
achieved-before state.
"""

import pytest
from hypothesis import given, settings, strategies as st

from lmplan.bench import gen_blocksworld
from lmplan.core import apply_action, make_task, successors
from lmplan import oracles
from lmplan.instances import BLOCKSWORLD_ARM_DOMAIN, BLOCKSWORLD_NO_ARM_DOMAIN
from lmplan.oracles import (
    DEFAULT_STATE_CAP,
    CapExceeded,
    ReasonableReport,
    _achieved_before_states,
    enumerate_states,
    oracle_reasonable_report,
)
from lmplan.pddl import ground_files

from conftest import fid
from test_core import micro_tasks
from test_pipeline_properties import solvable_tasks

DOMAINS = {"arm": BLOCKSWORLD_ARM_DOMAIN, "no-arm": BLOCKSWORLD_NO_ARM_DOMAIN}


def three_block_tasks():
    return [ground_files(DOMAINS[variant], gen_blocksworld(3, variant, seed))
            for variant in ("arm", "no-arm") for seed in (0, 1)]


# ---------------------------------------------------------------------------
# Per-start reference deciders
# ---------------------------------------------------------------------------

def _aftermath_violated_from(task, start, l, lp, cap):
    """Search for a solution from ``start`` on which it is not the case that
    l holds at some step i >= 1 and lp at some step j >= i."""
    lbit, lpbit = 1 << l, 1 << lp
    goal = task.goal
    acts = [(a.pre, a.add, a.delete) for a in task.actions]
    # flags: l seen at step >= 1; lp seen at-or-after the first such l
    init_node = (start, False, False)
    if start & goal == goal:
        return True  # empty solution plan: nothing achieves l at i >= 1
    seen = {init_node}
    frontier = [init_node]
    while frontier:
        nxt = []
        for s, seen_l, satisfied in frontier:
            for pre, add, dele in acts:
                if s & pre != pre:
                    continue
                t = (s | add) & ~dele
                n_l = seen_l or bool(t & lbit)
                n_sat = satisfied or (bool(t & lpbit) and n_l)
                node = (t, n_l, n_sat)
                if node in seen:
                    continue
                if len(seen) >= 3 * cap:
                    raise CapExceeded(cap)
                if t & goal == goal and not n_sat:
                    return True
                seen.add(node)
                nxt.append(node)
        frontier = nxt
    return False


def _deletion_violated_from(task, start, l, lp, cap):
    """Search for a path from ``start`` that reaches l without ever using an
    action whose delete list mentions lp."""
    lbit, lpbit = 1 << l, 1 << lp
    if start & lbit:
        return True  # the empty sequence already has l true, deleting nothing
    keeps_lp = [(a.pre, a.add, a.delete) for a in task.actions if not a.delete & lpbit]
    seen = {start}
    frontier = [start]
    while frontier:
        nxt = []
        for s in frontier:
            for pre, add, dele in keeps_lp:
                if s & pre != pre:
                    continue
                t = (s | add) & ~dele
                if t in seen:
                    continue
                if len(seen) >= cap:
                    raise CapExceeded(cap)
                seen.add(t)
                nxt.append(t)
        frontier = nxt
    return any(s & lbit for s in seen)


def reference_reasonable_report(task, l, lp, cap=DEFAULT_STATE_CAP):
    starts = _achieved_before_states(task, l, lp, cap)
    if not starts:
        return ReasonableReport(holds=True, vacuous=True)
    for s in starts:
        if _aftermath_violated_from(task, s, l, lp, cap):
            return ReasonableReport(False, False)
        if _deletion_violated_from(task, s, l, lp, cap):
            return ReasonableReport(False, False)
    return ReasonableReport(True, False)


# ---------------------------------------------------------------------------
# Kernel against apply_action
# ---------------------------------------------------------------------------

def assert_kernel_matches_apply_action(task):
    states = enumerate_states(task, cap=5000)
    reached = {task.init}
    for s in states:
        ref = [(a.id, apply_action(s, a)) for a in task.actions
               if apply_action(s, a) is not None]
        assert list(successors(task.ops, s)) == ref
        reached.update(t for _, t in ref)
    assert reached == set(states) and len(states) == len(reached)


@pytest.mark.parametrize("task", three_block_tasks(), ids=lambda t: t.name)
def test_kernel_on_three_blocks(task):
    assert_kernel_matches_apply_action(task)


@settings(max_examples=150, deadline=None)
@given(st.one_of(solvable_tasks(), micro_tasks()))
def test_kernel_on_random_tasks(task):
    assert_kernel_matches_apply_action(task)


# ---------------------------------------------------------------------------
# Multi-source reasonable-order searches against the per-start reference
# ---------------------------------------------------------------------------

def assert_reasonable_matches_reference(task):
    cap = DEFAULT_STATE_CAP
    for l in range(task.num_facts):
        for lp in range(task.num_facts):
            if l == lp:
                continue
            assert (oracle_reasonable_report(task, l, lp)
                    == reference_reasonable_report(task, l, lp)), (l, lp)
            # each search on its own, so that one cannot mask the other
            starts = _achieved_before_states(task, l, lp, cap)
            for multi, single in ((oracles._aftermath_violated_from, _aftermath_violated_from),
                                  (oracles._deletion_violated_from, _deletion_violated_from)):
                assert (multi(task, starts, l, lp, cap)
                        == any(single(task, s, l, lp, cap) for s in starts)), (l, lp)


def test_reasonable_refuted_from_a_later_achieved_before_state():
    # S = [{lp, x}, {lp, y}]: from {lp, x} the only solution deletes lp for
    # l and re-adds it; from {lp, y} a solution never makes l true
    t = make_task(actions=[
        ("(to-x)", ["p"], ["lp", "x"], ["p"]),
        ("(to-y)", ["p"], ["lp", "y"], ["p"]),
        ("(x-l)", ["x"], ["l"], ["x", "lp"]),
        ("(l-goal)", ["l"], ["lp", "g"], []),
        ("(y-goal)", ["y"], ["g"], ["y"]),
    ], init=["p"], goal=["g"])
    l, lp = fid(t, "l"), fid(t, "lp")
    assert _achieved_before_states(t, l, lp, DEFAULT_STATE_CAP) == [t.mask(["lp", "x"]),
                                                                   t.mask(["lp", "y"])]
    assert not oracle_reasonable_report(t, l, lp).holds
    assert_reasonable_matches_reference(t)


@pytest.mark.parametrize("task", three_block_tasks(), ids=lambda t: t.name)
def test_reasonable_on_three_blocks(task):
    assert_reasonable_matches_reference(task)


@settings(max_examples=120, deadline=None)
@given(solvable_tasks())
def test_reasonable_on_random_tasks(task):
    assert_reasonable_matches_reference(task)
