"""The domain memo: ``parse_domain`` keeps the parses of its last texts, and
each parsed domain carries the grounding plan that ``ground`` reads.

A task grounded with the domain already read must equal one grounded from
scratch; a text that fails is never kept; the memo stays within its bound;
and the domain it hands out is shared, so it must be read-only.
"""

from __future__ import annotations

import itertools
from dataclasses import FrozenInstanceError

import pytest

from lmplan import pddl
from lmplan.bench import DOMAIN_TEXTS, gen_problem
from lmplan.instances import BLOCKSWORLD_ARM_DOMAIN, LOGISTICS_DOMAIN
from lmplan.pddl import ParseError, ground_files, parse_domain

SIZES = {
    "blocksworld-arm": range(3, 10),
    "blocksworld-no-arm": range(3, 9),
    "logistics": [(1, 2, 1, 2), (2, 3, 2, 4), (3, 3, 1, 6)],
}
# the domains interleaved, so the memo serves each between the others
CASES = [case for group in itertools.zip_longest(*(
    [(domain, size, seed) for size in sizes for seed in range(3)]
    for domain, sizes in SIZES.items())) for case in group if case is not None]


@pytest.fixture(autouse=True)
def empty_memo():
    parse_domain.cache_clear()
    yield
    parse_domain.cache_clear()


def summary(task):
    return (task.name, [(f.id, f.predicate, f.args) for f in task.facts],
            [(a.name, a.pre, a.add, a.delete) for a in task.actions],
            task.init, task.goal, task.provably_unsolvable, len(task.pruned_actions))


def test_warm_memo_grounds_as_a_cold_one():
    texts = [(DOMAIN_TEXTS[d], gen_problem(d, size, seed)) for d, size, seed in CASES]
    for domain_text in DOMAIN_TEXTS.values():
        parse_domain(domain_text)
    hits = parse_domain.cache_info().hits
    warm = [summary(ground_files(*pair)) for pair in texts]
    assert parse_domain.cache_info().hits == hits + len(CASES)
    cold = []
    for pair in texts:
        parse_domain.cache_clear()
        cold.append(summary(ground_files(*pair)))
        assert parse_domain.cache_info().hits == 0
    assert warm == cold
    assert any(s[-1] for s in warm)  # logistics 1-2-1-2 prunes


def test_grounding_derives_nothing_from_the_domain_once_planned(monkeypatch):
    problem = gen_problem("logistics", (2, 3, 2, 4), 1)
    first = summary(ground_files(LOGISTICS_DOMAIN, problem))

    def fail(*_):
        raise AssertionError("domain-only work done again")

    for name in ("_schema_plan", "_join_order"):
        monkeypatch.setattr(pddl, name, fail)
    assert summary(ground_files(LOGISTICS_DOMAIN, problem)) == first


BAD_DOMAIN = ("(define (domain bad)\n  (:predicates (p ?x))\n  (:action a :parameters (?x)\n"
              "    :precondition (q ?x)))")


def test_a_failing_text_is_not_kept():
    errors = []
    for _ in range(2):
        with pytest.raises(ParseError) as caught:
            parse_domain(BAD_DOMAIN)
        errors.append((str(caught.value), caught.value.line, caught.value.column))
        assert parse_domain.cache_info().currsize == 0
    assert errors[0] == errors[1] and errors[0][1:] == (4, 20)
    assert parse_domain.cache_info().misses == 2


def test_memo_holds_at_most_its_bound():
    assert parse_domain.cache_info().maxsize == pddl._MEMO_TEXTS
    def renamed(k):
        return BLOCKSWORLD_ARM_DOMAIN.replace("(domain blocksworld-arm)", f"(domain bw{k})", 1)

    for k in range(2 * pddl._MEMO_TEXTS + 3):
        d = parse_domain(renamed(k))
        assert d.name == f"bw{k}"
        assert parse_domain.cache_info().currsize == min(k + 1, pddl._MEMO_TEXTS)
    # the oldest texts went first
    parse_domain(renamed(0))
    assert parse_domain.cache_info().hits == 0


def test_parsed_domain_is_shared_and_read_only():
    d = parse_domain(BLOCKSWORLD_ARM_DOMAIN)
    assert parse_domain(BLOCKSWORLD_ARM_DOMAIN) is d
    assert d.plan is d.plan
    with pytest.raises(TypeError):
        d.predicates["on"] = 3
    with pytest.raises(TypeError):
        del d.predicates["on"]
    with pytest.raises(FrozenInstanceError):
        d.predicates = {}
    assert d.predicates["on"] == 2 and parse_domain(BLOCKSWORLD_ARM_DOMAIN).predicates["on"] == 2
