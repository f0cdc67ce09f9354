"""The oracles' single-pass searches against the two-pass code they replaced.

``enumerate_states`` used to run the closure and then generate every state's
successors a second time for the transitions; ``first_achiever_pre_mask``
generated them a second time to find the states with an lp-adding
successor.  The references below are those versions, with their own copy of
the closure, so that a fault in ``oracles._closure`` cannot hide in both
sides.  ``enumerate_states`` now returns the states of the whole space's
kept closure: they must be the reference's, in discovery order.
``oracle_n``, which reads each state's successors, is held against the
reference's transition list.  Values must be equal, and around each
space's size n, caps n - 1, n and n + 1 must give the same value or both
raise ``CapExceeded``.
``count_solutions_of_length``, which reads the successor table too, is held
against its table-free version under several limits.

The aftermath search's reference searches (state, l seen, lp seen after l)
nodes, expands satisfied ones too and counts nodes against 3 * cap.  The
search keeps one entry per state, drops satisfied nodes and counts kept
states against the cap, as every oracle search does.  Its verdict must be
the reference's, and its cap outcome and the states it expands follow from
the states of the reference's unsatisfied nodes (``aftermath_outcomes``).

Every search reads successors from a table kept per action set, so over
all the searches a test makes on one task, each state's successors are
generated at most once, and for the states the references expand, or bound.
The tests that count generated successors start from a cold table.
"""

from collections import Counter
from types import SimpleNamespace
from typing import NamedTuple

import pytest
from hypothesis import given, settings, strategies as st

from lmplan import oracles, pddl
from lmplan.bench import gen_blocksworld
from lmplan.core import PlanningError, make_task, successors
from lmplan.oracles import (
    DEFAULT_STATE_CAP,
    CapExceeded,
    _achieved_before_states,
    count_solutions_of_length,
    enumerate_states,
    first_achiever_pre_mask,
    oracle_n,
)
from lmplan.pddl import ground_files

from conftest import fid
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


class ReferenceSpace(NamedTuple):
    states: tuple  # in discovery order
    transitions: tuple  # (state, action id, successor), each state's in ops order


def reference_enumerate_states(task, cap=DEFAULT_STATE_CAP):
    seen = reference_closure(task.ops, (task.init,), cap)
    transitions = tuple((s, aid, t) for s in seen for aid, t in successors(task.ops, s))
    return ReferenceSpace(tuple(seen), transitions)


def reference_states(task, cap=DEFAULT_STATE_CAP):
    return reference_enumerate_states(task, cap).states


def reference_n(task, space, l, lp):
    """The necessary-order test on a ``ReferenceSpace``'s transitions, or
    ``CapExceeded`` where enumeration raised it."""
    if task.init >> lp & 1:
        return False
    if space is CapExceeded:
        return CapExceeded
    return all(s >> l & 1 for s, _, t in space.transitions if t >> lp & 1)


def reference_first_achiever_pre_mask(task, lp, cap=DEFAULT_STATE_CAP):
    lpbit = 1 << lp
    if task.init & lpbit:
        raise PlanningError("fact is initially true; no first achievement")
    acc = (1 << task.num_facts) - 1
    for s in reference_closure(task.ops, (task.init,), cap, forbid_bit=lpbit):
        if any(t & lpbit for _, t in successors(task.ops, s)):
            acc &= s
    return acc


def reference_aftermath_violated_from(task, starts, l, lp, cap, unsatisfied=None):
    """With an ``unsatisfied`` list, appends the states of each frontier's
    unsatisfied nodes, as one set, before it expands the frontier."""
    lbit, lpbit = 1 << l, 1 << lp
    goal = task.goal
    if any(s & goal == goal for s in starts):
        return True
    frontier = [(s, False, False) for s in starts]
    seen = set(frontier)
    while frontier:
        nxt = []
        if unsatisfied is not None:
            unsatisfied.append({s for s, _, satisfied in frontier if not satisfied})
        for s, seen_l, satisfied in frontier:
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


def aftermath_outcomes(task, starts, l, lp):
    """What the reference's unsatisfied nodes tell of the aftermath search
    from ``starts``: (the states it surely expands, the states it may
    expand, a function from a cap to the outcomes it may give, the caps
    around which those outcomes change).

    The search keeps the states of the reference's unsatisfied nodes, each
    once, and adds a state only while it keeps fewer than the cap (its
    starts are kept whatever the cap).  When the reference refutes nothing,
    the search keeps and expands all of them, and raises ``CapExceeded``
    exactly when they outnumber both the cap and the starts.  When it
    refutes, the search refutes at the same depth d.  It keeps every state
    of the frontiers before d, and expands those before d - 1.  How many
    states of frontier d - 1 it expands, and of frontier d it keeps, before
    it meets the refutation depends on its order: it must raise if the
    frontiers before d outnumber the cap, and must refute if the cap holds
    them and frontier d's states."""
    levels = []
    verdict = reference_aftermath_violated_from(task, starts, l, lp, DEFAULT_STATE_CAP,
                                                levels)
    every = set().union(*levels)
    surely = set().union(*levels[:-1]) if verdict else every
    met = every
    if verdict and levels:
        # frontier d, from the reference on a goal no state holds; without
        # its goal states, which the search returns at and never keeps
        blind = []
        reference_aftermath_violated_from(
            SimpleNamespace(ops=task.ops, goal=1 << task.num_facts), starts, l, lp,
            DEFAULT_STATE_CAP, blind)
        met = every | {t for t in blind[len(levels)] if t & task.goal != task.goal}
    n_starts = len(set(starts))

    def at(cap):
        if len(every) > max(cap, n_starts):
            return {CapExceeded}
        if len(met) <= max(cap, n_starts):
            return {verdict}
        return {True, CapExceeded}

    return surely, every, at, {*around(len(every)), len(met)}


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
                == outcome(reference_states, task, cap)), cap
    assert outcome(enumerate_states, task, n - 1) is CapExceeded or n == 1


def assert_necessary_orders_match(task):
    n = len(reference_closure(task.ops, (task.init,), DEFAULT_STATE_CAP))
    for cap in (DEFAULT_STATE_CAP, *around(n)):
        space = outcome(reference_enumerate_states, task, cap)
        for l in range(task.num_facts):
            for lp in range(task.num_facts):
                if l != lp:
                    assert (outcome(oracle_n, task, l, lp, cap)
                            == reference_n(task, space, l, lp)), (l, lp, cap)


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
    """At ``caps`` and where the outcome changes."""
    for l in range(task.num_facts):
        for lp in range(task.num_facts):
            if l == lp:
                continue
            starts = _achieved_before_states(task, l, lp, DEFAULT_STATE_CAP)
            if not starts:
                continue
            _, _, at, edges = aftermath_outcomes(task, starts, l, lp)
            for cap in (*caps, *edges):
                assert (outcome(oracles._aftermath_violated_from, task, starts, l, lp, cap)
                        in at(cap)), (l, lp, cap)


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


@pytest.mark.parametrize("task", three_block_tasks(), ids=lambda t: t.name)
def test_necessary_orders_match_transition_reference(task):
    assert_necessary_orders_match(task)


@pytest.mark.parametrize("task", small_tasks(), ids=lambda t: t.name)
def test_first_achievers_match_two_pass_reference(task):
    assert_first_achievers_match(task)


@pytest.mark.parametrize("task", three_block_tasks(), ids=lambda t: t.name)
def test_aftermath_matches_reference(task):
    n = len(enumerate_states(task))
    assert_aftermath_matches(task, caps=(DEFAULT_STATE_CAP, 1, n // 3, n // 2, n))


@pytest.mark.parametrize("task", three_block_tasks(), ids=lambda t: t.name)
def test_solution_counts_match_reference(task):
    assert_solution_counts_match(task)


@settings(max_examples=150, deadline=None)
@given(st.one_of(solvable_tasks(), micro_tasks()))
def test_single_pass_searches_on_random_tasks(task):
    assert_enumeration_matches(task)
    assert_necessary_orders_match(task)
    assert_first_achievers_match(task)
    assert_aftermath_matches(task, caps=(DEFAULT_STATE_CAP, 1, 2, 3))
    assert_solution_counts_match(task)


# ---------------------------------------------------------------------------
# Each state's successors are generated at most once per action set
# ---------------------------------------------------------------------------

@pytest.fixture
def cold():
    """Empties the domain memo, so a task the test grounds starts a
    successor table of its own: the object-set memo that shares one table
    with earlier tests' tasks of its action set is gone."""
    pddl.parse_domain.cache_clear()


@pytest.fixture
def expansions(monkeypatch, cold):
    """Counts ``successors`` calls per state made by the oracles module,
    from a cold table (``cold``)."""
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
    """A three-block task, grounded anew.  After ``cold``, its successor
    table is its own: a task that shares the table of one an earlier test
    queried would answer some queries without generating any successors."""
    return ground_files(DOMAINS[variant], gen_blocksworld(3, variant, seed))


@pytest.mark.parametrize("variant, seed", THREE_BLOCKS, ids=THREE_BLOCK_IDS)
def test_enumeration_expands_each_state_once(variant, seed, expansions):
    task = three_block_task(variant, seed)
    space = enumerate_states(task)
    assert expansions == once_each(space)
    # a second enumeration reads the kept closure
    assert enumerate_states(task) == space == reference_states(task)
    assert expansions == once_each(space)


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
            surely, every, _, _ = aftermath_outcomes(task, starts, l, lp)
            # the scan expands the closure the reference expands; the
            # search, the states of the reference's unsatisfied nodes it
            # must, and none it may not; those expanded before excepted
            assert set(expansions.values()) <= {1}, (l, lp)
            assert expanded | surely <= set(expansions) <= expanded | every, (l, lp)
            expanded = set(expansions)
            searched += len(expanded) > before
    assert searched


U_TO_M = {"later": [("(v)", ["u"], ["v"], ["u"]), ("(w)", ["v"], ["m"], ["v"])],
          "same-depth": [("(w)", ["u"], ["m"], ["u"])]}


@pytest.mark.parametrize("u_to_m", U_TO_M.values(), ids=U_TO_M)
def test_an_arrival_with_l_unseen_is_searched_again(u_to_m):
    # {m} is reached with l seen at depth 2, through x, and then with l
    # unseen through u, at depth 3 or at depth 2 too.  From {m} with l seen,
    # a adds lp after l and satisfies the order.  From {m} with l unseen,
    # a b c reaches g with lp deleted when l comes: a solution refuting it.
    t = make_task(actions=[
        ("(x)", ["s1"], ["l", "x"], ["s1"]),
        ("(y)", ["x"], ["m"], ["x", "l"]),
        ("(u)", ["s1"], ["u"], ["s1"]),
        *u_to_m,
        ("(a)", ["m"], ["lp", "q"], ["m"]),
        ("(b)", ["q"], ["l", "r"], ["q", "lp"]),
        ("(c)", ["r"], ["g"], ["r", "l"]),
    ], init=["s1"], goal=["g"])
    l, lp = fid(t, "l"), fid(t, "lp")
    assert reference_aftermath_violated_from(t, [t.init], l, lp, DEFAULT_STATE_CAP)
    assert oracles._aftermath_violated_from(t, [t.init], l, lp, DEFAULT_STATE_CAP)
