"""The oracles' memo: kept closures per task, a successor table per action set.

Every oracle search reads a state's successors from a table kept per action
set, which every task derived without new facts or actions shares, and
every decider that searches the closure of a task's initial state that
never enters a given fact reads it from a memo kept per task and per
forbidden fact.  On one task, every decider and the enumeration are asked in
a shuffled order, twice, with caps around each closure's size; each answer,
or ``CapExceeded``, must be the answer of a freshly built task and of the
memo-free references in ``test_single_pass`` and ``test_kernel``, whether or
not a sibling filled the table first.  The closures die with their task,
and a table with the last task of its action set and the object-set memo,
handing its entries back.  Derived tasks keep their own closures and share
the table unless they add facts or actions.  A task's closures, and the
tables of every live action set together, keep no more entries than the
budget, and answers do not depend on the budget.  Over any sequence of
queries a reachable state's successors are generated once per action set.
"""

import gc
import random
import warnings
import weakref
from collections import Counter

import pytest
from hypothesis import given, settings, strategies as st

from lmplan import oracles, pddl
from lmplan.bench import gen_blocksworld
from lmplan.control import _compile, with_init
from lmplan.core import Action, Fact, Task, bits, make_task, successors
from lmplan.oracles import (
    DEFAULT_STATE_CAP,
    CapExceeded,
    count_solutions_of_length,
    enumerate_states,
    first_achiever_pre_mask,
    oracle_gn,
    oracle_inconsistent,
    oracle_landmark,
    oracle_n,
    oracle_reasonable_report,
    task_solvable,
)
from lmplan.pddl import ground_files

from conftest import fid
from test_core import micro_tasks
from test_kernel import DOMAINS, reference_reasonable_report
from test_pipeline_properties import solvable_tasks
from test_single_pass import (  # noqa: F401  (cold and expansions are fixtures)
    THREE_BLOCK_IDS,
    THREE_BLOCKS,
    cold,
    expansions,
    once_each,
    outcome,
    aftermath_outcomes,
    reference_closure,
    reference_count_solutions_of_length,
    reference_enumerate_states,
    reference_first_achiever_pre_mask,
    reference_n,
    reference_states,
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


def reference_necessary(task, l, lp, cap):
    return reference_n(task, outcome(reference_enumerate_states, task, cap), l, lp)


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
    out += [(oracle_n, (l, lp), reference_necessary, (0,)) for l, lp in pairs]
    out += [(oracle_gn, (l, lp), reference_gn, (1 << lp,)) for l, lp in pairs]
    # the per-start reference runs at the default cap only: it searches from
    # each start alone, so a cap need not stop it where it stops the
    # multi-source search
    out += [(oracle_reasonable_report, (l, lp), None, (1 << l,)) for l, lp in pairs]
    out += [(oracle_inconsistent, (x, y), reference_inconsistent, (0,)) for x, y in pairs]
    out += [(enumerate_states, (), reference_states, (0,))]
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


def chain_and_sibling():
    task = chain_task()
    # from {r}, the sibling reaches only part of the task's space
    return task, with_init(task, task.mask(["r"]))


# a task, and a sibling that shares its table: another problem of its
# object set, or a hand-built task's ``with_init`` task
SIBLINGS = {
    "arm-3": lambda: [three_block_task("arm", seed) for seed in (1, 0)],
    "no-arm-3": lambda: [three_block_task("no-arm", seed) for seed in (1, 0)],
    "arm-4": lambda: [ground_files(DOMAINS["arm"], gen_blocksworld(4, "arm", seed))
                      for seed in (1, 0)],
    "no-arm-4": lambda: [ground_files(DOMAINS["no-arm"], gen_blocksworld(4, "no-arm", seed))
                         for seed in (1, 0)],
    "make_task": chain_and_sibling,
}


@pytest.mark.parametrize("warm", [False, True], ids=["cold", "warm"])
@pytest.mark.parametrize("name", SIBLINGS)
def test_answers_do_not_depend_on_a_sibling_filling_the_table(name, warm, cold):
    task, sibling = SIBLINGS[name]()
    assert oracles._memo(sibling).table is oracles._memo(task).table
    if warm:
        enumerate_states(sibling)
    assert_memo_matches_fresh_tasks(task, random.Random(1))


@pytest.mark.parametrize("budget", [0, 40])
def test_answers_do_not_depend_on_the_budget(monkeypatch, cold, budget):
    monkeypatch.setattr(oracles, "MEMO_BUDGET", budget)
    task = ground_files(DOMAINS["no-arm"], gen_blocksworld(3, "no-arm", 1))
    assert_memo_matches_fresh_tasks(task, random.Random(budget))
    memo = oracles._MEMOS[task]
    assert memo.stored == entries(memo) <= budget
    assert table_entries(memo.table) <= budget


# ---------------------------------------------------------------------------
# Lifetime: the closures belong to their task, the table to its action set
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
    assert memo.closures and memo.table.states
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


def test_a_table_dies_with_its_action_set_and_hands_its_entries_back(cold):
    gc.collect()
    others = oracles._TABLES.stored  # the entries of other tests' live tables
    task = three_block_task("arm", 0)
    assert enumerate_states(task)
    table = oracles._MEMOS[task].table
    held = table_entries(table)
    assert held and oracles._TABLES.stored == others + held
    alive = weakref.ref(table)
    del task, table
    gc.collect()
    # the object-set memo holds the action set's kept task, and with it the table
    again = three_block_task("arm", 1)
    assert oracles._memo(again).table is alive()
    moved = with_init(again, again.goal)
    del again
    pddl.parse_domain.cache_clear()
    gc.collect()
    assert alive() is oracles._memo(moved).table  # a task of the set still lives
    del moved
    gc.collect()
    assert alive() is None
    assert oracles._TABLES.stored == others


@pytest.mark.parametrize("variant", ["arm", "no-arm"])
def test_problems_of_one_object_set_share_one_table(variant, expansions):
    first, second = three_block_task(variant, 0), three_block_task(variant, 1)
    assert first.init != second.init
    space = enumerate_states(first)
    assert expansions == once_each(space)
    # the second problem reaches no state the first did not
    assert enumerate_states(second) == reference_states(second)
    assert expansions == once_each(space)
    assert oracles._MEMOS[second].table is oracles._MEMOS[first].table


@pytest.mark.parametrize("variant, seed", THREE_BLOCKS, ids=THREE_BLOCK_IDS)
def test_derived_tasks_share_their_parents_table(variant, seed, expansions):
    parent = three_block_task(variant, seed)
    whole = once_each(closure_of(parent, DEFAULT_STATE_CAP))
    space = enumerate_states(parent)
    assert expansions == whole
    # same ops: the parent's table, so no successors generated anew
    for child in (with_init(parent, parent.init),
                  parent.derive(parent.init, parent.goal, "copy")):
        assert enumerate_states(child) == space
        assert expansions == whole
        assert oracles._MEMOS[child].table is oracles._MEMOS[parent].table


@pytest.mark.parametrize("variant, seed", THREE_BLOCKS, ids=THREE_BLOCK_IDS)
def test_tasks_with_new_facts_or_actions_start_a_table_of_their_own(variant, seed,
                                                                    expansions):
    parent = three_block_task(variant, seed)
    assert enumerate_states(parent)
    n = parent.num_facts
    subtask = _compile(parent, parent.init, [(f,) for f in bits(parent.goal)]).task
    shortcut = parent.derive(parent.init, 1 << n, "shortcut", facts=[Fact(n, "h", ())],
                             actions=[Action(len(parent.actions), "(h)", parent.init,
                                             1 << n, 0)])
    for child in (subtask, shortcut):
        expansions.clear()
        space = enumerate_states(child)
        assert space == reference_states(child)
        assert expansions == once_each(space)
        assert oracles._MEMOS[child].table is not oracles._MEMOS[parent].table


# ---------------------------------------------------------------------------
# The budget
# ---------------------------------------------------------------------------

def entries(memo):
    """What a task's memo counts against its budget, counted anew: the
    states of its kept closures."""
    return sum(map(len, memo.closures.values()))


def table_entries(table):
    """What a table counts against the budget of every live table, counted
    anew: its states and their transitions."""
    return len(table.states) + sum(map(len, table.states.values()))


def test_memo_keeps_no_more_states_than_its_budget(monkeypatch, expansions):
    task = ground_files(DOMAINS["arm"], gen_blocksworld(3, "arm", 0))
    space = reference_enumerate_states(task)
    out = Counter(s for s, _, _ in space.transitions)
    # table entries are kept in the order states are first expanded, each
    # while its state and transitions fit: here the first half of them fill
    # what the live tables of other tests leave of the budget exactly
    kept = space.states[:len(space.states) // 2]
    budget = sum(1 + out[s] for s in kept)
    gc.collect()
    others = oracles._TABLES.stored
    monkeypatch.setattr(oracles, "MEMO_BUDGET", others + budget)
    assert enumerate_states(task) == space.states
    memo = oracles._MEMOS[task]
    table = memo.table
    assert tuple(table.states) == kept and table_entries(table) == budget
    assert oracles._TABLES.stored == oracles.MEMO_BUDGET
    # the whole space's closure fits the task's own budget; a necessary
    # order that holds reads the successors of every state of it without
    # l, and a state past the table's budget is expanded anew on each read
    assert 0 in memo.closures
    held = [(l, lp) for l in range(task.num_facts) for lp in range(task.num_facts)
            if l != lp and reference_necessary(task, l, lp, DEFAULT_STATE_CAP)
            and not task.init >> lp & 1]
    assert held
    for l, lp in held:
        for _ in range(2):
            expansions.clear()
            assert oracle_n(task, l, lp)
            assert expansions == once_each(s for s in space.states
                                           if s not in table.states and not s >> l & 1), l
    # a closure is kept only if it fits what the task's closures left; one
    # not kept is searched anew on each query, past-budget states expanded
    # anew
    for lp in range(task.num_facts):
        if (task.init | task.goal) >> lp & 1:
            continue
        want = reference_landmark(task, lp, DEFAULT_STATE_CAP)
        for _ in range(2):
            searched = [closure_of(task, DEFAULT_STATE_CAP, bit) for bit in (0, 1 << lp)
                        if bit not in memo.closures]
            expansions.clear()
            assert oracle_landmark(task, lp) == want, lp
            assert expansions == sum((once_each(s for s in closure if s not in table.states)
                                      for closure in searched), Counter()), lp
            assert memo.stored == entries(memo) <= oracles.MEMO_BUDGET
    assert tuple(table.states) == kept and oracles._TABLES.stored == oracles.MEMO_BUDGET


def test_tables_of_all_live_action_sets_share_one_budget(monkeypatch, cold):
    tasks = [ground_files(DOMAINS["arm"], gen_blocksworld(4, "arm", 0)),
             ground_files(DOMAINS["arm"], gen_blocksworld(3, "arm", 0)),
             ground_files(DOMAINS["no-arm"], gen_blocksworld(3, "no-arm", 0))]
    spaces = [reference_enumerate_states(task) for task in tasks]
    full = sum(len(space.states) + len(space.transitions) for space in spaces)
    gc.collect()
    others = oracles._TABLES.stored
    # room for half of what the three tables would hold
    monkeypatch.setattr(oracles, "MEMO_BUDGET", others + full // 2)
    for task, space in zip(tasks, spaces):
        assert enumerate_states(task) == space.states
        for lp in range(task.num_facts):
            assert oracle_landmark(task, lp) == reference_landmark(task, lp, DEFAULT_STATE_CAP)
    tables = [oracles._MEMOS[task].table for task in tasks]
    assert len(set(map(id, tables))) == 3
    held = sum(map(table_entries, tables))
    assert 0 < held <= full // 2
    assert oracles._TABLES.stored == others + held <= oracles.MEMO_BUDGET
    # the first table filled what the budget left, and answered past it
    assert len(tables[0].states) < len(spaces[0].states)


@pytest.mark.parametrize("room", [0, -1], ids=["fits", "one-short"])
def test_enumeration_keeps_its_closure_if_it_fits(monkeypatch, expansions, room):
    task = ground_files(DOMAINS["arm"], gen_blocksworld(3, "arm", 0))
    space = reference_enumerate_states(task)
    # a sibling fills the table; then the task's closures have room for the
    # whole space's closure if ``room`` allows
    assert enumerate_states(with_init(task, task.init)) == space.states
    assert expansions == once_each(space.states)
    monkeypatch.setattr(oracles, "MEMO_BUDGET", len(space.states) + room)
    assert enumerate_states(task) == space.states
    memo = oracles._MEMOS[task]
    assert tuple(memo.table.states) == space.states
    kept = 0 in memo.closures
    assert kept == (room == 0)
    assert memo.stored == entries(memo) == kept * len(space.states)
    # kept or not, neither enumeration generates successors
    assert enumerate_states(task) == space.states
    assert expansions == once_each(space.states)


# ---------------------------------------------------------------------------
# Successor generation: once per reachable state and action set
# ---------------------------------------------------------------------------

def reasonable_reads(task, l, lp, cap=DEFAULT_STATE_CAP):
    """The states whose successors ``oracle_reasonable_report`` reads, found
    by the memo-free references: the closure without l, then the deletion
    search and, if that does not refute the order, the aftermath search.
    As bounds: the states it surely reads and those it may read, which
    differ only where the aftermath search refutes (``aftermath_outcomes``)."""
    lbit, lpbit = 1 << l, 1 << lp
    if task.init & lbit:
        return set(), set()
    closure = closure_of(task, cap, lbit)
    read = set(closure)
    starts = list(dict.fromkeys(t for s in closure for aid, t in successors(task.ops, s)
                                if task._adder_mask[lp] >> aid & 1 and not t & lbit))
    if not starts:
        return read, read
    keeps_lp = [op for op in task.ops if not op[3] & lpbit]
    deletion = reference_closure(keeps_lp, starts, cap)
    read |= set(deletion)
    if any(s & lbit for s in deletion):  # the deletion search refutes the order
        return read, read
    surely, every, _, _ = aftermath_outcomes(task, starts, l, lp)
    return read | surely, read | every


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
        oracle_n(task, other, lp)
        oracle_reasonable_report(task, other, lp)
        task_solvable(task)
        oracle_inconsistent(task, lp, other)
        assert expansions == whole, lp
    assert enumerate_states(task) == reference_states(task)
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
            surely, every = reasonable_reads(task, l, lp)
            first = oracle_reasonable_report(task, l, lp)
            # the first query expands only what no earlier query expanded
            assert set(expansions.values()) <= {1}, (l, lp)
            assert read | surely <= set(expansions) <= read | every, (l, lp)
            read = set(expansions)
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
