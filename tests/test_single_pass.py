"""The oracles' single-pass searches against the two-pass code they replaced.

``enumerate_states`` used to run the closure and then generate every state's
successors a second time for the transitions; ``first_achiever_pre_mask``
generated them a second time to find the states with an lp-adding
successor; the aftermath search generated a state's successors once per flag
combination it was reached with.  The references below are those versions,
with their own copy of the closure, so that a fault in ``oracles._closure``
cannot hide in both sides.  Values must be equal, and around each space's
size n, caps n - 1, n and n + 1 must give the same value or both raise
``CapExceeded``.  ``count_solutions_of_length``, which reads the successor
table too, is held against its table-free version under several limits.

Every search reads successors from a table kept per task, so over all the
searches a test makes on one task, each state's successors are generated at
most once, and exactly for the states the references expand.
"""

from collections import Counter

import pytest
from hypothesis import given, settings, strategies as st

from lmplan import oracles
from lmplan.bench import gen_blocksworld
from lmplan.core import PlanningError, successors
from lmplan.oracles import (
    DEFAULT_STATE_CAP,
    CapExceeded,
    StateSpace,
    _achieved_before_states,
    count_solutions_of_length,
    enumerate_states,
    first_achiever_pre_mask,
)
from lmplan.pddl import ground_files

from test_core import micro_tasks
from test_kernel import DOMAINS, three_block_tasks
from test_pipeline_properties import solvable_tasks


# ---------------------------------------------------------------------------
# Two-pass references
# ---------------------------------------------------------------------------

def reference_closure(ops, starts, cap, forbid_bit=0):
    seen = dict.fromkeys(starts)
    if any(s & forbid_bit for s in seen):
        raise PlanningError("start state violates the subspace restriction")
    frontier = list(seen)
    while frontier:
        nxt = []
        for s in frontier:
            for _, t in successors(ops, s):
                if t & forbid_bit or t in seen:
                    continue
                if len(seen) >= cap:
                    raise CapExceeded(cap)
                seen[t] = None
                nxt.append(t)
        frontier = nxt
    return seen


def reference_enumerate_states(task, cap=DEFAULT_STATE_CAP):
    seen = reference_closure(task.ops, (task.init,), cap)
    transitions = tuple((s, aid, t) for s in seen for aid, t in successors(task.ops, s))
    return StateSpace(tuple(seen), transitions, cap)


def reference_first_achiever_pre_mask(task, lp, cap=DEFAULT_STATE_CAP):
    lpbit = 1 << lp
    if task.init & lpbit:
        raise PlanningError("fact is initially true; no first achievement")
    acc = (1 << task.num_facts) - 1
    for s in reference_closure(task.ops, (task.init,), cap, forbid_bit=lpbit):
        if any(t & lpbit for _, t in successors(task.ops, s)):
            acc &= s
    return acc


def reference_aftermath_violated_from(task, starts, l, lp, cap, expanded=None):
    """With an ``expanded`` set, adds each state whose successors it
    generates."""
    lbit, lpbit = 1 << l, 1 << lp
    goal = task.goal
    if any(s & goal == goal for s in starts):
        return True
    frontier = [(s, False, False) for s in starts]
    seen = set(frontier)
    while frontier:
        nxt = []
        for s, seen_l, satisfied in frontier:
            if expanded is not None:
                expanded.add(s)
            for _, t in successors(task.ops, s):
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


def reference_count_solutions_of_length(task, length, limit=10_000_000):
    goal = task.goal
    count = 0
    explored = 0
    stack = [(task.init, 0)]
    while stack:
        s, depth = stack.pop()
        explored += 1
        if explored > limit:
            raise CapExceeded(limit)
        if depth == length:
            if s & goal == goal:
                count += 1
            continue
        stack.extend((t, depth + 1) for _, t in successors(task.ops, s))
    return count


def outcome(fn, *args):
    """``fn(*args)``, or the type of the planning error it raised."""
    try:
        return fn(*args)
    except PlanningError as exc:
        return type(exc)


def around(n):
    return (max(n - 1, 0), n, n + 1)


# ---------------------------------------------------------------------------
# Equality, caps included
# ---------------------------------------------------------------------------

def assert_enumeration_matches(task):
    n = len(reference_closure(task.ops, (task.init,), DEFAULT_STATE_CAP))
    for cap in (DEFAULT_STATE_CAP, *around(n)):
        assert (outcome(enumerate_states, task, cap)
                == outcome(reference_enumerate_states, task, cap)), cap
    assert outcome(enumerate_states, task, n - 1) is CapExceeded or n == 1


def assert_first_achievers_match(task):
    for lp in range(task.num_facts):
        assert (outcome(first_achiever_pre_mask, task, lp)
                == outcome(reference_first_achiever_pre_mask, task, lp)), lp
        if task.init >> lp & 1:
            continue
        n = len(reference_closure(task.ops, (task.init,), DEFAULT_STATE_CAP,
                                  forbid_bit=1 << lp))
        for cap in around(n):
            assert (outcome(first_achiever_pre_mask, task, lp, cap)
                    == outcome(reference_first_achiever_pre_mask, task, lp, cap)), (lp, cap)


def assert_aftermath_matches(task, caps=(DEFAULT_STATE_CAP,)):
    for l in range(task.num_facts):
        for lp in range(task.num_facts):
            if l == lp:
                continue
            starts = _achieved_before_states(task, l, lp, DEFAULT_STATE_CAP)
            if not starts:
                continue
            for cap in caps:
                assert (outcome(oracles._aftermath_violated_from, task, starts, l, lp, cap)
                        == outcome(reference_aftermath_violated_from, task, starts, l, lp,
                                   cap)), (l, lp, cap)


def assert_solution_counts_match(task, lengths=range(4), limits=(1, 2, 5, 50, 10_000_000)):
    for length in lengths:
        for limit in limits:
            assert (outcome(count_solutions_of_length, task, length, limit)
                    == outcome(reference_count_solutions_of_length, task, length, limit)), \
                (length, limit)


def small_tasks():
    four = ground_files(DOMAINS["arm"], gen_blocksworld(4, "arm", 0))
    return three_block_tasks() + [four]


@pytest.mark.parametrize("task", small_tasks(), ids=lambda t: t.name)
def test_enumeration_matches_two_pass_reference(task):
    assert_enumeration_matches(task)


@pytest.mark.parametrize("task", small_tasks(), ids=lambda t: t.name)
def test_first_achievers_match_two_pass_reference(task):
    assert_first_achievers_match(task)


@pytest.mark.parametrize("task", three_block_tasks(), ids=lambda t: t.name)
def test_aftermath_matches_reference(task):
    n = len(enumerate_states(task))
    # the search counts flagged nodes against 3 * cap
    assert_aftermath_matches(task, caps=(DEFAULT_STATE_CAP, 1, n // 3, n // 2, n))


@pytest.mark.parametrize("task", three_block_tasks(), ids=lambda t: t.name)
def test_solution_counts_match_reference(task):
    assert_solution_counts_match(task)


@settings(max_examples=150, deadline=None)
@given(st.one_of(solvable_tasks(), micro_tasks()))
def test_single_pass_searches_on_random_tasks(task):
    assert_enumeration_matches(task)
    assert_first_achievers_match(task)
    assert_aftermath_matches(task, caps=(DEFAULT_STATE_CAP, 1, 2, 3))
    assert_solution_counts_match(task)


# ---------------------------------------------------------------------------
# Each state's successors are generated at most once per task
# ---------------------------------------------------------------------------

@pytest.fixture
def expansions(monkeypatch):
    """Counts ``successors`` calls per state made by the oracles module."""
    counts = Counter()

    def counting(ops, state):
        counts[state] += 1
        return successors(ops, state)

    monkeypatch.setattr(oracles, "successors", counting)
    return counts


def once_each(states):
    return Counter(dict.fromkeys(states, 1))


THREE_BLOCKS = [(variant, seed) for variant in ("arm", "no-arm") for seed in (0, 1)]
THREE_BLOCK_IDS = [f"bw-{variant}-3-{seed}" for variant, seed in THREE_BLOCKS]


def three_block_task(variant, seed):
    """A three-block task grounded for the calling test alone: the oracles
    keep a successor table per task, so a task that an earlier test queried
    would answer some queries without generating any successors."""
    return ground_files(DOMAINS[variant], gen_blocksworld(3, variant, seed))


@pytest.mark.parametrize("variant, seed", THREE_BLOCKS, ids=THREE_BLOCK_IDS)
def test_enumeration_expands_each_state_once(variant, seed, expansions):
    task = three_block_task(variant, seed)
    space = enumerate_states(task)
    assert expansions == once_each(space.states)
    # a second enumeration reads every state's successors from the table
    assert enumerate_states(task) == space == reference_enumerate_states(task)
    assert expansions == once_each(space.states)


@pytest.mark.parametrize("variant, seed", THREE_BLOCKS, ids=THREE_BLOCK_IDS)
def test_first_achiever_search_expands_each_state_once(variant, seed, expansions):
    task = three_block_task(variant, seed)
    expanded = set()
    for lp in range(task.num_facts):
        if task.init >> lp & 1:
            continue
        first_achiever_pre_mask(task, lp)
        # exactly the closure's states, those expanded before excepted
        expanded.update(reference_closure(task.ops, (task.init,), DEFAULT_STATE_CAP,
                                          forbid_bit=1 << lp))
        assert expansions == once_each(expanded), lp
    assert expanded


@pytest.mark.parametrize("variant, seed", THREE_BLOCKS, ids=THREE_BLOCK_IDS)
def test_aftermath_search_expands_each_state_once(variant, seed, expansions):
    task = three_block_task(variant, seed)
    expanded = set()
    searched = 0
    for l in range(task.num_facts):
        for lp in range(task.num_facts):
            if l == lp:
                continue
            starts = _achieved_before_states(task, l, lp, DEFAULT_STATE_CAP)
            if not task.init >> l & 1:
                expanded.update(reference_closure(task.ops, (task.init,), DEFAULT_STATE_CAP,
                                                  forbid_bit=1 << l))
            if not starts:
                continue
            before = len(expanded)
            oracles._aftermath_violated_from(task, starts, l, lp, DEFAULT_STATE_CAP)
            reference_aftermath_violated_from(task, starts, l, lp, DEFAULT_STATE_CAP,
                                              expanded)
            # the scan and the search expand exactly the states the
            # references expand, those expanded before excepted
            assert expansions == once_each(expanded), (l, lp)
            searched += len(expanded) > before
    assert searched
