"""The oracles' per-task memo: kept closures and the successor table.

Every oracle search reads a state's successors from a table kept per task,
and every decider that searches the closure of a task's initial state that
never enters a given fact reads it from a memo kept per task and per
forbidden fact.  On one task, every decider and the enumeration are asked in
a shuffled order, twice, with caps around each closure's size; each answer,
or ``CapExceeded``, must be the answer of a freshly built task and of the
memo-free references in ``test_single_pass`` and ``test_kernel``.  The memo
dies with its task, derived tasks keep their own, the memo keeps no more
entries than its budget and answers do not depend on the budget, and over
any sequence of queries a reachable state's successors are generated once.
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
from lmplan.core import Action, Fact, Task, make_task, successors
from lmplan.oracles import (
    DEFAULT_STATE_CAP,
    CapExceeded,
    count_solutions_of_length,
    enumerate_states,
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
    THREE_BLOCK_IDS,
    THREE_BLOCKS,
    expansions,
    once_each,
    outcome,
    reference_aftermath_violated_from,
    reference_closure,
    reference_count_solutions_of_length,
    reference_enumerate_states,
    reference_first_achiever_pre_mask,
    three_block_task,
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
    out += [(enumerate_states, (), reference_enumerate_states, (0,))]
    # the limit counts explored sequences; caps around the space are limits too
    out += [(count_solutions_of_length, (3,), reference_count_solutions_of_length, (0,))]
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


@pytest.mark.parametrize("budget", [0, 40])
def test_answers_do_not_depend_on_the_budget(monkeypatch, budget):
    monkeypatch.setattr(oracles, "MEMO_BUDGET", budget)
    task = ground_files(DOMAINS["no-arm"], gen_blocksworld(3, "no-arm", 1))
    assert_memo_matches_fresh_tasks(task, random.Random(budget))
    memo = oracles._MEMOS[task]
    assert memo.stored == entries(memo) <= budget


# ---------------------------------------------------------------------------
# Lifetime: the memo belongs to its task
# ---------------------------------------------------------------------------

def chain_task():
    # q is a landmark from {p}; not from {r}, nor once p reaches a new goal directly
    return make_task(actions=[("(p-q)", ["p"], ["q"], ["p"]),
                              ("(q-g)", ["q"], ["g"], []),
                              ("(r-g)", ["r"], ["g"], [])],
                     init=["p"], goal=["g"])


def test_memo_entry_dies_with_its_task():
    task = chain_task()
    assert oracle_landmark(task, fid(task, "q"))
    memo = oracles._MEMOS[task]
    assert memo.closures and memo.table
    alive = weakref.ref(task)
    gc.collect()
    before = len(oracles._MEMOS)
    del task, memo
    gc.collect()
    assert alive() is None
    assert len(oracles._MEMOS) == before - 1


def test_derived_tasks_do_not_read_their_parents_entries():
    parent = chain_task()
    p, q, g = (fid(parent, name) for name in ("p", "q", "g"))
    assert oracle_landmark(parent, q) and oracle_gn(parent, q, g)
    # same facts and actions, another initial state
    from_r = with_init(parent, parent.mask(["r"]))
    assert not oracle_landmark(from_r, q) and not oracle_gn(from_r, q, g)
    # same initial state, one more action, reaching a new goal fact from p
    h = parent.num_facts
    shortcut = parent.derive(parent.init, 1 << h, "shortcut", facts=[Fact(h, "h", ())],
                             actions=[Action(len(parent.actions), "(p-h)", 1 << p, 1 << h, 0)])
    assert not oracle_landmark(shortcut, q) and not oracle_gn(shortcut, q, h)
    assert oracle_landmark(parent, q) and oracle_gn(parent, q, g)


@pytest.mark.parametrize("variant, seed", THREE_BLOCKS, ids=THREE_BLOCK_IDS)
def test_derived_tasks_do_not_read_their_parents_table(variant, seed, expansions):
    parent = three_block_task(variant, seed)
    whole = once_each(closure_of(parent, DEFAULT_STATE_CAP))
    space = enumerate_states(parent)
    assert expansions == whole
    # same ops, same initial state: still a table of their own
    for child in (with_init(parent, parent.init),
                  parent.derive(parent.init, parent.goal, "copy")):
        expansions.clear()
        assert enumerate_states(child) == space
        assert expansions == whole
        assert oracles._MEMOS[child].table is not oracles._MEMOS[parent].table


# ---------------------------------------------------------------------------
# The budget
# ---------------------------------------------------------------------------

def entries(memo):
    """What the memo counts against its budget, counted anew."""
    return (sum(map(len, memo.closures.values())) + len(memo.table)
            + sum(map(len, memo.table.values())))


def test_memo_keeps_no_more_states_than_its_budget(monkeypatch, expansions):
    task = ground_files(DOMAINS["arm"], gen_blocksworld(3, "arm", 0))
    space = reference_enumerate_states(task)
    out = Counter(s for s, _, _ in space.transitions)
    # table entries are kept in the order states are first expanded, each
    # while its state and transitions fit: here the first half of them fill
    # the budget exactly
    kept = space.states[:len(space) // 2]
    budget = sum(1 + out[s] for s in kept)
    monkeypatch.setattr(oracles, "MEMO_BUDGET", budget)
    assert enumerate_states(task) == space
    memo = oracles._MEMOS[task]
    assert tuple(memo.table) == kept and memo.stored == budget == entries(memo)
    # a state past the budget is expanded anew on each read
    for _ in range(2):
        expansions.clear()
        assert enumerate_states(task) == space
        assert expansions == once_each(s for s in space.states if s not in memo.table)
    # a closure is kept only if it fits what is left; one not kept is
    # searched anew on each query, past-budget states expanded anew
    for lp in range(task.num_facts):
        if (task.init | task.goal) >> lp & 1:
            continue
        want = reference_landmark(task, lp, DEFAULT_STATE_CAP)
        for _ in range(2):
            searched = [closure_of(task, DEFAULT_STATE_CAP, bit) for bit in (0, 1 << lp)
                        if bit not in memo.closures]
            expansions.clear()
            assert oracle_landmark(task, lp) == want, lp
            assert expansions == sum((once_each(s for s in closure if s not in memo.table)
                                      for closure in searched), Counter()), lp
            assert memo.stored == entries(memo) == budget
    assert tuple(memo.table) == kept and not memo.closures


# ---------------------------------------------------------------------------
# Successor generation: once per reachable state and task
# ---------------------------------------------------------------------------

def reasonable_reads(task, l, lp, cap=DEFAULT_STATE_CAP):
    """The states whose successors ``oracle_reasonable_report`` reads, found
    by the memo-free references: the closure without l, then the aftermath
    search and, if that does not refute the order, the deletion search."""
    lbit, lpbit = 1 << l, 1 << lp
    if task.init & lbit:
        return set()
    closure = closure_of(task, cap, lbit)
    read = set(closure)
    starts = dict.fromkeys(t for s in closure for aid, t in successors(task.ops, s)
                           if task._adder_mask[lp] >> aid & 1 and not t & lbit)
    if starts and not reference_aftermath_violated_from(task, list(starts), l, lp, cap, read):
        keeps_lp = [op for op in task.ops if not op[3] & lpbit]
        read.update(reference_closure(keeps_lp, starts, cap))
    return read


@pytest.mark.parametrize("variant", ["arm", "no-arm"])
def test_repeated_queries_generate_no_successors(variant, expansions):
    task = ground_files(DOMAINS[variant], gen_blocksworld(3, variant, 0))
    assert task_solvable(task)
    whole = once_each(closure_of(task, DEFAULT_STATE_CAP))
    assert expansions == whole
    # every reachable state is in the table: no query generates successors
    for lp in range(task.num_facts):
        other = (lp + 1) % task.num_facts
        oracle_landmark(task, lp)
        if not task.init >> lp & 1:
            first_achiever_pre_mask(task, lp)
        oracle_gn(task, other, lp)
        oracle_reasonable_report(task, other, lp)
        task_solvable(task)
        oracle_inconsistent(task, lp, other)
        assert expansions == whole, lp
    assert enumerate_states(task) == reference_enumerate_states(task)
    assert count_solutions_of_length(task, 4) == reference_count_solutions_of_length(task, 4)
    assert expansions == whole


@pytest.mark.parametrize("variant", ["arm", "no-arm"])
def test_repeated_reasonable_query_reuses_the_achieved_before_closure(variant, expansions):
    task = ground_files(DOMAINS[variant], gen_blocksworld(3, variant, 1))
    read = set()
    for l in range(task.num_facts):
        for lp in range(task.num_facts):
            if l == lp:
                continue
            read |= reasonable_reads(task, l, lp)
            first = oracle_reasonable_report(task, l, lp)
            # the first query expands only what no earlier query expanded
            assert expansions == once_each(read), (l, lp)
            # a repeat expands nothing: the closure without l is kept, and
            # the aftermath and deletion searches read the table
            assert oracle_reasonable_report(task, l, lp) == first
            assert expansions == once_each(read), (l, lp)


@pytest.mark.parametrize("variant, seed", THREE_BLOCKS, ids=THREE_BLOCK_IDS)
def test_shuffled_queries_expand_each_reachable_state_once(variant, seed, expansions):
    task = three_block_task(variant, seed)
    calls = [(decide, args) for decide, args, _, _ in queries(task)]
    want = [outcome(decide, fresh(task), *args) for decide, args in calls]
    expansions.clear()
    order = list(range(len(calls)))
    random.Random(seed).shuffle(order)
    for i in order:
        decide, args = calls[i]
        assert outcome(decide, task, *args) == want[i], (decide.__name__, args)
    assert expansions == once_each(closure_of(task, DEFAULT_STATE_CAP))
