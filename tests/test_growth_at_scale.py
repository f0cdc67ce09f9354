"""The one delete-free growth, ``core.grow_layers``, at the paper's regime.

Elsewhere tier-1 builds no goals-first graph above 10 blocks except through
the scale fingerprints.  Here, at seed 1, the goals-first graph of arm 30
and logistics 8-4-3-20 must equal the reference graph grown over every
action one at a time: the same fact levels, last layer, verdict and newly
applicable actions per layer.  And the grounder, run cold at arm 40 and
logistics 10-5-4-30 (object sets too large for its memo), must reach the
facts and keep the actions that the reference sweeping closure gives over
the same bindings.
"""

from __future__ import annotations

import pytest

from lmplan import pddl
from lmplan.bench import DOMAIN_TEXTS, gen_problem, generate_task
from lmplan.core import format_atom
from lmplan.rpg import GOALS_FIRST, build_rpg

from test_pipeline_differential import ReferenceRPG, relaxed_closure


@pytest.mark.parametrize("domain,size", [("blocksworld-arm", 30), ("logistics", (8, 4, 3, 20))],
                         ids=["arm-30", "logistics-8-4-3-20"])
def test_goals_first_graph_matches_the_reference(domain, size):
    task = generate_task(domain, size, 1)
    graph = build_rpg(task, GOALS_FIRST)
    ref = ReferenceRPG(task, task.init, GOALS_FIRST)
    assert graph.goal_reached and ref.goal_reached
    assert (graph.fact_level, graph.top_layer) == (ref.fact_level, ref.top_layer)
    below = [0, *ref.action_layers]
    assert graph._act_layers == [layer & ~before for layer, before in zip(ref.action_layers, below)]


def reference_closure(domain: pddl.DomainAst, problem: pddl.ProblemAst
                      ) -> tuple[list[str], list[str], bool]:
    """The fact names, kept action names and verdict of ``problem``, from
    the reference closure over the (pre, add) pairs of the bindings that
    pass the static tests."""
    static = [a for a in problem.init if a.predicate in domain.plan.static]
    entry = pddl._object_set(domain, problem, static)
    atoms = entry.atoms
    pairs = []
    for s, row in entry.rows:
        sp = domain.plan.schemas[s]
        pre = add = 0
        for get in sp.fluent:
            pre |= atoms[get(row)]
        for get in sp.add:
            add |= atoms[get(row)]
        pairs.append((pre, add))
    init = {(a.predicate, *a.args) for a in problem.init}
    goal = {(a.predicate, *a.args) for a in problem.goal}
    table = list(atoms)  # the atoms bindings read, and the static ones
    # an init or goal atom past them takes a bit of its own
    reached = relaxed_closure(pairs, sum(atoms[a] for a in init))
    names = {a for a in table if reached & atoms[a]} | init | goal
    facts = sorted(format_atom(a[0], a[1:]) for a in names)
    actions = [format_atom(domain.schemas[s].name, row[:len(domain.schemas[s].params)])
               for (s, row), (pre, _) in zip(entry.rows, pairs) if reached & pre == pre]
    return facts, actions, not all(reached & atoms[a] for a in goal)


@pytest.mark.parametrize("domain,size", [("blocksworld-arm", 40), ("logistics", (10, 5, 4, 30))],
                         ids=["arm-40", "logistics-10-5-4-30"])
def test_grounder_reaches_what_the_reference_closure_reaches(domain, size):
    pddl.parse_domain.cache_clear()  # cold: a domain and memo of its own
    d = pddl.parse_domain(DOMAIN_TEXTS[domain])
    p = pddl.parse_problem(gen_problem(domain, size, 1), d)
    task = pddl.ground(d, p)
    assert not d.plan.object_sets  # too large for the memo
    facts, actions, unsolvable = reference_closure(d, p)
    assert [f.name for f in task.facts] == facts
    assert [a.name for a in task.actions] == actions
    assert task.provably_unsolvable == unsolvable
