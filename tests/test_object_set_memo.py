"""The object-set memo: ``ground`` keeps, per domain, what it derives from a
problem's objects and static ``:init`` atoms, and within that, per
reachable set, the facts, the kept actions and a task holding them.

A task grounded through a kept entry must equal one grounded with the memo
emptied; problems that differ only in their init and goal share the
entries, yet each gets a task of its own; failures are not kept; and the
memo stays within its bound.
"""

from __future__ import annotations

import itertools

import pytest

from lmplan import oracles, pddl, rpg
from lmplan.bench import DOMAIN_TEXTS, gen_problem
from lmplan.oracles import oracle_landmark
from lmplan.pddl import GroundingError, ProblemAst, ground, ground_files, parse_domain, parse_problem
from lmplan.planners import gbfs_plan
from lmplan.rpg import build_rpg

SIZES = {
    "blocksworld-arm": range(3, 10),
    "blocksworld-no-arm": range(3, 9),
    "logistics": [(1, 2, 1, 2), (2, 3, 2, 4), (3, 3, 1, 6)],
}
SEEDS = range(5)
# the domains interleaved, so each domain's memo serves it between the others
CASES = [case for group in itertools.zip_longest(*(
    [(domain, size, seed) for size in sizes for seed in SEEDS]
    for domain, sizes in SIZES.items())) for case in group if case is not None]


@pytest.fixture(autouse=True)
def empty_memo():
    parse_domain.cache_clear()
    yield
    parse_domain.cache_clear()


def memo(domain_text: str) -> pddl._ObjectSets:
    return parse_domain(domain_text).plan.object_sets


def summary(task):
    return (task.name, task.facts, task.actions, task.ops, task._adder_mask, task._adder_pre,
            task._changed, task._cone_limit, task.init, task.goal, task.provably_unsolvable,
            len(task.pruned_actions))


def cold(domain_text: str, problem_text: str):
    """The task grounded with the domain's object-set memo emptied first."""
    memo(domain_text).clear()
    assert memo(domain_text).size == 0
    return ground_files(domain_text, problem_text)


def test_warm_memo_grounds_as_a_cold_one():
    texts = [(DOMAIN_TEXTS[d], gen_problem(d, size, seed)) for d, size, seed in CASES]
    warm = [ground_files(*pair) for pair in texts]
    warm_summaries = [summary(t) for t in warm]
    # every seed of a size shares the first seed's facts and actions
    for (d, size, seed), task in zip(CASES, warm):
        first = warm[CASES.index((d, size, 0))]
        assert task.facts is first.facts and task.actions is first.actions
        assert task.pruned_actions is first.pruned_actions
        assert (task is first) == (seed == 0)
    colds = [cold(*pair) for pair in texts]
    assert [summary(t) for t in colds] == warm_summaries
    assert not any(c.actions is w.actions for c, w in zip(colds, warm))
    assert any(s[-1] for s in warm_summaries)  # logistics 1-2-1-2 prunes


ROADS = """(define (domain roads)
  (:requirements :strips :typing)
  (:types place)
  (:predicates (road ?a ?b - place) (at ?a - place) (seen ?a - place) (flag))
  (:action go
    :parameters (?a ?b - place)
    :precondition (and (at ?a) (road ?a ?b))
    :effect (and (at ?b) (seen ?b) (not (at ?a)))))
"""


def roads(objects: str, roads: str, init: str, goal: str, name: str = "r") -> str:
    return (f"(define (problem {name}) (:domain roads) (:objects {objects})\n"
            f"  (:init {roads} {init})\n  (:goal (and {goal})))")


ABC = "a b c - place"
LINE = "(road a b) (road b c)"


def grounds_as_cold(problem_text: str):
    task = ground_files(ROADS, problem_text)
    assert summary(cold(ROADS, problem_text)) == summary(task)
    return task


def test_different_statics_on_the_same_objects_are_kept_apart():
    line = ground_files(ROADS, roads(ABC, LINE, "(at a)", "(at c)"))
    back = ground_files(ROADS, roads(ABC, "(road c b) (road b a)", "(at c)", "(at a)"))
    assert len(memo(ROADS)) == 2
    assert [a.name for a in line.actions] == ["(go a b)", "(go b c)"]
    assert [a.name for a in back.actions] == ["(go b a)", "(go c b)"]
    for text in (roads(ABC, LINE, "(at a)", "(at c)"),
                 roads(ABC, "(road c b) (road b a)", "(at c)", "(at a)")):
        grounds_as_cold(text)


def test_objects_in_another_order_share_the_entry():
    first = ground_files(ROADS, roads(ABC, LINE, "(at a)", "(at c)"))
    shuffled = ground_files(ROADS, roads("c a b - place", "(road b c) (road a b)",
                                         "(at a)", "(seen b)"))
    assert len(memo(ROADS)) == 1
    assert shuffled.actions is first.actions and shuffled is not first
    grounds_as_cold(roads("c a b - place", "(road b c) (road a b)", "(at a)", "(seen b)"))


def test_atoms_no_schema_mentions_join_the_facts():
    plain = ground_files(ROADS, roads(ABC, LINE, "(at a)", "(at c)"))
    flagged = ground_files(ROADS, roads(ABC, LINE, "(at a) (flag)", "(at c) (flag)"))
    # (seen a) is an atom no action adds; (road c a) one no binding holds
    odd = ground_files(ROADS, roads(ABC, LINE, "(at a) (seen a)", "(at c) (road c a)"))
    assert len(memo(ROADS)) == 1 and len(next(iter(memo(ROADS).values())).reached) == 3
    assert "(flag)" not in {f.name for f in plain.facts}
    assert {f.name for f in flagged.facts} - {f.name for f in plain.facts} == {"(flag)"}
    assert odd.provably_unsolvable and not flagged.provably_unsolvable
    assert {f.name for f in odd.facts} - {f.name for f in plain.facts} == {"(seen a)", "(road c a)"}
    # two atoms past the table on the same bit, with the same reach: each
    # gets its own facts
    seen_a = ground_files(ROADS, roads(ABC, LINE, "(at a) (seen a)", "(at c)"))
    assert {f.name for f in seen_a.facts} - {f.name for f in plain.facts} == {"(seen a)"}
    for text in (roads(ABC, LINE, "(at a) (flag)", "(at c) (flag)"),
                 roads(ABC, LINE, "(at a) (seen a)", "(at c) (road c a)"),
                 roads(ABC, LINE, "(at a) (seen a)", "(at c)"),
                 roads(ABC, LINE, "(at a)", "(at c)")):
        grounds_as_cold(text)


def test_a_goal_out_of_relaxed_reach_is_posed_on_its_own_reachable_set():
    reachable = ground_files(ROADS, roads(ABC, LINE, "(at a)", "(at c)"))
    stuck = ground_files(ROADS, roads(ABC, LINE, "(at c)", "(at a)"))
    again = ground_files(ROADS, roads(ABC, LINE, "(at b)", "(at a)"))
    # the same reach as stuck, another goal outside it
    other = ground_files(ROADS, roads(ABC, LINE, "(at c)", "(at b)"))
    assert not reachable.provably_unsolvable
    assert stuck.provably_unsolvable and again.provably_unsolvable and other.provably_unsolvable
    assert len(memo(ROADS)) == 1
    # from c nothing moves; from b, (go b c) does
    assert stuck.actions == () and [a.name for a in again.actions] == ["(go b c)"]
    assert "(at a)" in {f.name for f in stuck.facts}
    assert {f.name for f in other.facts} - {f.name for f in stuck.facts} == {"(at b)"}
    for text in (roads(ABC, LINE, "(at a)", "(at c)"), roads(ABC, LINE, "(at c)", "(at a)"),
                 roads(ABC, LINE, "(at b)", "(at a)"), roads(ABC, LINE, "(at c)", "(at b)")):
        grounds_as_cold(text)


HOME = ROADS.replace("(not (at ?a))", "(not (at ?a)) (seen home)")


def test_a_constants_error_is_raised_every_time_and_not_kept():
    text = roads(ABC, LINE, "(at a)", "(at c)")
    errors = []
    for _ in range(2):
        with pytest.raises(GroundingError) as caught:
            ground_files(HOME, text)
        errors.append(str(caught.value))
        assert len(memo(HOME)) == 0 and memo(HOME).size == 0
    assert errors == ["unknown constant 'home' in seen"] * 2
    # the objects hold home: it grounds, and is kept
    assert ground_files(HOME, roads("a b c home - place", LINE, "(at a)", "(at c)")).actions
    assert len(memo(HOME)) == 1


def test_an_unknown_object_in_init_is_raised_every_time_and_not_kept():
    d = parse_domain(ROADS)
    good = parse_problem(roads(ABC, LINE, "(at a)", "(at c)"), d)
    bad = ProblemAst("bad", "roads", good.objects, good.init + (pddl.AtomAst("at", ("z",)),),
                     good.goal)
    for _ in range(2):
        with pytest.raises(GroundingError, match="unknown constant 'z' in at"):
            ground(d, bad)
        assert len(d.plan.object_sets) == 0
    task = ground(d, good)
    with pytest.raises(GroundingError, match="unknown constant 'z' in at"):
        ground(d, bad)
    # the entry the good problem left is kept as it was
    assert len(d.plan.object_sets) == 1 and ground(d, good).actions is task.actions


def sizes_add_up(sets: pddl._ObjectSets) -> int:
    for entry in sets.values():
        assert entry.size == len(entry.rows) + sum(len(r.task.actions)
                                                   for r in entry.reached.values())
    assert sets.size == sum(entry.size for entry in sets.values())
    return sets.size


@pytest.mark.parametrize("bound, most", [(100, 2), (700, 5), (2000, 6)])
def test_memo_never_exceeds_its_bound(monkeypatch, bound, most):
    monkeypatch.setattr(pddl, "_MEMO_ACTIONS", bound)
    text = DOMAIN_TEXTS["blocksworld-arm"]
    d = parse_domain(text)
    held = []
    for n, seed in itertools.product([3, 5, 4, 9, 6, 3, 12, 5], range(2)):
        problem = gen_problem("blocksworld-arm", n, seed)
        task = ground(d, parse_problem(problem, d))
        assert sizes_add_up(d.plan.object_sets) <= bound
        # n blocks: 2n + 2n(n - 1) bindings, all of them kept; the object set
        # grounded last is held, as the most recent, if it fits at all
        need = 2 * (2 * n + 2 * n * (n - 1))
        newest = next(reversed(d.plan.object_sets.values()), None)
        assert (newest is not None and newest.size == need) == (need <= bound)
        held.append(len(d.plan.object_sets))
        fresh = parse_domain.__wrapped__(text)  # a domain of its own, its memo empty
        assert summary(ground(fresh, parse_problem(problem, fresh))) == summary(task)
    # the least recently used object sets go first
    assert max(held) == most


def test_the_default_bound_holds_across_sizes():
    text = DOMAIN_TEXTS["blocksworld-no-arm"]
    for n in range(3, 30, 2):
        ground_files(text, gen_problem("blocksworld-no-arm", n, 0))
        assert sizes_add_up(memo(text)) <= pddl._MEMO_ACTIONS
    assert 0 < len(memo(text)) < 14


def test_tasks_of_one_entry_keep_their_own_search_state():
    text = DOMAIN_TEXTS["blocksworld-arm"]
    one, two = (ground_files(text, gen_problem("blocksworld-arm", 4, seed)) for seed in (1, 2))
    assert one is not two and one.actions is two.actions and one._cones is two._cones
    assert (one.init, one.goal) != (two.init, two.goal)
    assert rpg._record(one) is not rpg._record(two)
    assert oracles._memo(one) is not oracles._memo(two)
    # searching and deciding on one leaves the other as a cold task
    plans = [gbfs_plan(t).plan for t in (one, two)]
    first_goal = one.facts_in(one.goal & ~one.init)[0]
    assert oracle_landmark(one, first_goal.id)
    assert build_rpg(one).fact_level[first_goal.id] > 0
    for task, seed, plan in zip((one, two), (1, 2), plans):
        fresh = cold(text, gen_problem("blocksworld-arm", 4, seed))
        assert summary(fresh) == summary(task)
        assert gbfs_plan(fresh).plan == plan == gbfs_plan(task).plan
