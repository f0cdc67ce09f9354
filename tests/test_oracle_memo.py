"""The oracles' per-task memo of closures from the initial state.

Every decider that searches the closure of a task's initial state that never
enters a given fact reads it from a memo kept per task and per forbidden
fact.  On one task, every decider is asked in a shuffled order, twice, with
caps around each closure's size; each answer, or ``CapExceeded``, must be the
answer of a freshly built task and of the memo-free references in
``test_single_pass`` and ``test_kernel``.  The memo dies with its task,
derived tasks keep their own, a task keeps no more closure states than the
memo's budget, and a repeated query generates no successors for the closure
it reads.
"""

import gc
import random
import warnings
import weakref
from collections import Counter

import pytest
from hypothesis import given, settings, strategies as st

from lmplan import oracles
from lmplan.bench import gen_blocksworld
from lmplan.control import with_init
from lmplan.core import Action, Task, make_task
from lmplan.oracles import (
    DEFAULT_STATE_CAP,
    CapExceeded,
    first_achiever_pre_mask,
    oracle_gn,
    oracle_inconsistent,
    oracle_landmark,
    oracle_reasonable_report,
    task_solvable,
)
from lmplan.pddl import ground_files

from conftest import fid
from test_core import micro_tasks
from test_kernel import DOMAINS, reference_reasonable_report
from test_pipeline_properties import solvable_tasks
from test_single_pass import (  # noqa: F401  (expansions is a fixture)
    expansions,
    outcome,
    reference_closure,
    reference_first_achiever_pre_mask,
)


def fresh(task):
    """The same task built anew, with nothing memoised."""
    return Task(task.facts, task.actions, task.init, task.goal, task.name)


# ---------------------------------------------------------------------------
# Memo-free references, on their own closure
# ---------------------------------------------------------------------------

def closure_of(task, cap, forbid_bit=0):
    return reference_closure(task.ops, (task.init,), cap, forbid_bit)


def reference_solvable(task, cap):
    return any(s & task.goal == task.goal for s in closure_of(task, cap))


def reference_landmark(task, n, cap):
    if not reference_solvable(task, cap) or (task.init | task.goal) >> n & 1:
        return True
    return not any(s & task.goal == task.goal for s in closure_of(task, cap, 1 << n))


def reference_gn(task, l, lp, cap):
    if task.init >> lp & 1:
        return False
    return bool(reference_first_achiever_pre_mask(task, lp, cap) >> l & 1)


def reference_inconsistent(task, x, y, cap):
    both = (1 << x) | (1 << y)
    return x != y and not any(s & both == both for s in closure_of(task, cap))


# ---------------------------------------------------------------------------
# Every decider, shuffled, twice, caps around each closure's size
# ---------------------------------------------------------------------------

def queries(task):
    """(decider, arguments before the cap, reference or None, the closures
    it reads as forbidden bits) for every decider on every fact or pair."""
    facts = range(task.num_facts)
    pairs = [(x, y) for x in facts for y in facts if x != y]
    out = [(task_solvable, (), reference_solvable, (0,))]
    out += [(oracle_landmark, (n,), reference_landmark, (0, 1 << n)) for n in facts]
    out += [(first_achiever_pre_mask, (lp,), reference_first_achiever_pre_mask, (1 << lp,))
            for lp in facts if not task.init >> lp & 1]
    out += [(oracle_gn, (l, lp), reference_gn, (1 << lp,)) for l, lp in pairs]
    # the per-start reference runs at the default cap only: it searches from
    # each start alone, so a cap need not stop it where it stops the
    # multi-source search
    out += [(oracle_reasonable_report, (l, lp), None, (1 << l,)) for l, lp in pairs]
    out += [(oracle_inconsistent, (x, y), reference_inconsistent, (0,)) for x, y in pairs]
    return out


def caps_around(task, forbid_bits):
    caps = {1}
    for bit in forbid_bits:
        if not task.init & bit:
            n = len(closure_of(task, DEFAULT_STATE_CAP, bit))
            caps.update((n - 1, n, n + 1))
    return sorted(caps)


def assert_memo_matches_fresh_tasks(task, rnd):
    calls = [(decide, args, ref, cap) for decide, args, ref, bits in queries(task)
             for cap in caps_around(task, bits)]
    expected = {}
    for decide, args, ref, cap in calls:
        want = outcome(decide, fresh(task), *args, cap)
        if ref is not None:
            assert outcome(ref, task, *args, cap) == want, (decide.__name__, args, cap)
        elif want is not CapExceeded:
            assert want == reference_reasonable_report(fresh(task), *args), args
        expected[decide, args, cap] = want
    for _ in range(2):
        rnd.shuffle(calls)
        for decide, args, _, cap in calls:
            assert outcome(decide, task, *args, cap) == expected[decide, args, cap], \
                (decide.__name__, args, cap)


@settings(max_examples=60, deadline=None)
@given(st.one_of(solvable_tasks(), micro_tasks()), st.randoms(use_true_random=False))
def test_memoised_answers_match_fresh_tasks_and_references(task, rnd):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # unsolvable tasks warn per landmark query
        assert_memo_matches_fresh_tasks(task, rnd)


@pytest.mark.parametrize("variant", ["arm", "no-arm"])
def test_memoised_answers_match_on_three_blocks(variant):
    task = ground_files(DOMAINS[variant], gen_blocksworld(3, variant, 1))
    assert_memo_matches_fresh_tasks(task, random.Random(0))


# ---------------------------------------------------------------------------
# Lifetime: the memo belongs to its task
# ---------------------------------------------------------------------------

def chain_task():
    # q is a landmark from {p}; not from {r}, nor once p reaches g directly
    return make_task(actions=[("(p-q)", ["p"], ["q"], ["p"]),
                              ("(q-g)", ["q"], ["g"], []),
                              ("(r-g)", ["r"], ["g"], [])],
                     init=["p"], goal=["g"])


def test_memo_entry_dies_with_its_task():
    task = chain_task()
    assert oracle_landmark(task, fid(task, "q"))
    assert task in oracles._CLOSURES
    alive = weakref.ref(task)
    gc.collect()
    before = len(oracles._CLOSURES)
    del task
    gc.collect()
    assert alive() is None
    assert len(oracles._CLOSURES) == before - 1


def test_derived_tasks_do_not_read_their_parents_entries():
    parent = chain_task()
    p, q, g = (fid(parent, name) for name in ("p", "q", "g"))
    assert oracle_landmark(parent, q) and oracle_gn(parent, q, g)
    # same facts and actions, another initial state
    from_r = with_init(parent, parent.mask(["r"]))
    assert not oracle_landmark(from_r, q) and not oracle_gn(from_r, q, g)
    # same initial state, one more action
    shortcut = parent.derive(parent.init, parent.goal, "shortcut",
                             actions=[Action(len(parent.actions), "(p-g)", 1 << p, 1 << g, 0)])
    assert not oracle_landmark(shortcut, q) and not oracle_gn(shortcut, q, g)
    assert oracle_landmark(parent, q) and oracle_gn(parent, q, g)


def test_memo_keeps_no_more_states_than_its_budget(monkeypatch, expansions):
    task = ground_files(DOMAINS["arm"], gen_blocksworld(3, "arm", 0))
    monkeypatch.setattr(oracles, "MEMO_STATE_BUDGET", len(closure_of(task, DEFAULT_STATE_CAP)))
    assert task_solvable(task)  # the whole space fills the budget
    for lp in range(task.num_facts):
        if (task.init | task.goal) >> lp & 1:
            continue
        closure = once_each(closure_of(task, DEFAULT_STATE_CAP, 1 << lp))
        want = reference_landmark(task, lp, DEFAULT_STATE_CAP)
        for _ in range(2):  # a closure past the budget is searched anew
            expansions.clear()
            assert oracle_landmark(task, lp) == want, lp
            assert expansions == closure, lp
    assert list(oracles._CLOSURES[task]) == [0]


# ---------------------------------------------------------------------------
# Successor generation: once per state on a first query, none on a repeat
# ---------------------------------------------------------------------------

def once_each(states):
    return Counter(dict.fromkeys(states, 1))


@pytest.mark.parametrize("variant", ["arm", "no-arm"])
def test_repeated_queries_generate_no_successors(variant, expansions):
    task = ground_files(DOMAINS[variant], gen_blocksworld(3, variant, 0))
    assert task_solvable(task)
    assert expansions == once_each(closure_of(task, DEFAULT_STATE_CAP))
    for lp in range(task.num_facts):
        if (task.init | task.goal) >> lp & 1:
            continue
        expansions.clear()
        oracle_landmark(task, lp)
        assert expansions == once_each(closure_of(task, DEFAULT_STATE_CAP, 1 << lp)), lp
        expansions.clear()
        oracle_landmark(task, lp)
        first_achiever_pre_mask(task, lp)
        oracle_gn(task, (lp + 1) % task.num_facts, lp)
        task_solvable(task)
        oracle_inconsistent(task, lp, (lp + 1) % task.num_facts)
        assert not expansions, lp


@pytest.mark.parametrize("variant", ["arm", "no-arm"])
def test_repeated_reasonable_query_reuses_the_achieved_before_closure(variant, expansions):
    task = ground_files(DOMAINS[variant], gen_blocksworld(3, variant, 1))
    for l in range(task.num_facts):
        if task.init >> l & 1:
            continue
        closure = once_each(closure_of(task, DEFAULT_STATE_CAP, 1 << l))
        for k, lp in enumerate(f for f in range(task.num_facts) if f != l):
            expansions.clear()
            oracle_reasonable_report(task, l, lp)
            first = expansions.copy()
            expansions.clear()
            oracle_reasonable_report(task, l, lp)
            # the aftermath and deletion searches run again; the closure
            # without l is searched on the first query with source l only
            assert first == expansions + (closure if k == 0 else Counter()), (l, lp)
