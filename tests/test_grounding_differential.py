"""Differential tests for the grounder.

The reference below is the grounder ``lmplan.pddl.ground`` replaced, kept
unchanged apart from its name (with the atom formatter it used): it grounds every type-consistent,
pairwise-distinct binding of every schema (``itertools.product`` over the
sorted typed pools), prunes with the relaxed-reachability fixpoint and
builds every pruned action's name eagerly.  The new grounder tests static
preconditions while it binds (joining them through indexes of the ``:init``
relations), gives atoms integer ids, runs the fixpoint over bitmasks of the
survivors only and counts the pruned actions without naming them; the Task
must be the same, and ``len(task.pruned_actions)`` must count the
reference's pruned names.  The grounder has no unpruned mode: the
reference's (``prune=False``) grounds every binding, and the grounder's
kept actions and the pruned names built here (``pruned_names``) must be
those.
"""

from __future__ import annotations

import itertools
from typing import Optional

import pytest
from hypothesis import given, settings, strategies as st

from lmplan import instances, pddl
from lmplan.bench import DOMAIN_TEXTS, gen_blocksworld, gen_logistics
from lmplan.core import Action, Fact, Task, format_atom, mask_of
from lmplan.pddl import (
    AtomAst,
    DomainAst,
    GroundingError,
    ParseError,
    ProblemAst,
    SchemaAst,
    ground,
    parse_domain,
    parse_problem,
)


# ---------------------------------------------------------------------------
# Reference
# ---------------------------------------------------------------------------

def _ground_atom(atom: AtomAst, binding: dict[str, str], objects: set[str]) -> str:
    args = []
    for a in atom.args:
        if a.startswith("?"):
            args.append(binding[a])
        elif a in objects:
            args.append(a)
        else:
            raise GroundingError(f"unknown constant {a!r} in {atom.predicate}")
    return format_atom(atom.predicate, args)


def _instantiations(schema: SchemaAst, by_type: dict[Optional[str], list[str]]):
    """Type-consistent bindings with pairwise-distinct objects, in
    lexicographic order of the bound object tuples."""
    pools = []
    for _, t in schema.params:
        pool = by_type.get(t, [])
        if not pool:
            return
        pools.append(pool)
    for combo in itertools.product(*pools):
        if len(set(combo)) != len(combo):
            continue
        yield dict(zip((v for v, _ in schema.params), combo))


def unfiltered_bindings(schema: SchemaAst, by_type: dict[Optional[str], list[str]]):
    """``_instantiations`` as object tuples in parameter order."""
    return [tuple(b[v] for v, _ in schema.params) for b in _instantiations(schema, by_type)]


def pruned_names(domain: DomainAst, problem: ProblemAst, task: Task) -> list[str]:
    """The names of every binding, with no static tests, that ``task``
    (``problem`` grounded) does not keep, in grounding order."""
    by_type = pddl._pools(problem)
    kept = {a.name for a in task.actions}
    names = (format_atom(schema.name, combo)
             for schema in domain.schemas for combo in unfiltered_bindings(schema, by_type))
    return [name for name in names if name not in kept]


def reference_ground(domain: DomainAst, problem: ProblemAst, prune: bool = True) -> Task:
    """Instantiate schemas over the problem objects and build a Task.

    With ``prune`` on, actions unreachable in the delete-relaxed fixpoint are
    dropped and the fact universe is the relaxed-reachable facts plus init
    and goal.  A goal fact outside the fixpoint does not fail the grounding;
    the returned task is flagged provably unsolvable instead.
    """
    by_type: dict[Optional[str], list[str]] = {}
    all_objects = [o for o, _ in problem.objects]
    object_set = set(all_objects)
    for o, t in problem.objects:
        by_type.setdefault(t, []).append(o)
    # untyped parameters range over every object
    by_type[None] = list(all_objects)
    for pool in by_type.values():
        pool.sort()

    grounded: list[tuple[str, frozenset, frozenset, frozenset]] = []
    for schema in domain.schemas:
        for binding in _instantiations(schema, by_type):
            gname = format_atom(schema.name, [binding[v] for v, _ in schema.params])
            pre = frozenset(_ground_atom(a, binding, object_set) for a in schema.pre)
            add = frozenset(_ground_atom(a, binding, object_set) for a in schema.add)
            dele = frozenset(_ground_atom(a, binding, object_set) for a in schema.delete)
            grounded.append((gname, pre, add, dele))

    init_names = {_ground_atom(a, {}, object_set) for a in problem.init}
    goal_names = {_ground_atom(a, {}, object_set) for a in problem.goal}

    if prune:
        reached = set(init_names)
        pending = list(range(len(grounded)))
        kept_idx: list[int] = []
        changed = True
        while changed:
            changed = False
            still = []
            for i in pending:
                _, pre, add, _ = grounded[i]
                if pre <= reached:
                    kept_idx.append(i)
                    if not add <= reached:
                        reached |= add
                        changed = True
                else:
                    still.append(i)
            pending = still
        kept_idx.sort()
        kept = [grounded[i] for i in kept_idx]
        pruned = tuple(grounded[i][0] for i in sorted(set(range(len(grounded))) - set(kept_idx)))
        universe = sorted(reached | init_names | goal_names)
    else:
        kept = grounded
        pruned = ()
        universe = sorted(
            init_names
            | goal_names
            | {f for _, pre, add, dele in grounded for f in pre | add | dele}
        )

    index = {fname: i for i, fname in enumerate(universe)}
    facts = []
    for i, fname in enumerate(universe):
        pred = fname[1:-1].split()[0]
        args = tuple(fname[1:-1].split()[1:])
        facts.append(Fact(i, pred, args))
    known = index.keys()
    actions = []
    for i, (gname, pre, add, dele) in enumerate(kept):
        actions.append(
            Action(
                i,
                gname,
                mask_of(index[f] for f in pre),
                mask_of(index[f] for f in add if f in known),
                # deletes of never-true facts are inert; drop them
                mask_of(index[f] for f in dele if f in known),
            )
        )
    init_mask = mask_of(index[f] for f in init_names)
    goal_mask = mask_of(index[f] for f in goal_names)
    unsolvable = prune and not goal_names <= reached
    return Task(facts, actions, 0, 0).derive(init_mask, goal_mask, problem.name,
                                             pruned_actions=pruned,
                                             provably_unsolvable=unsolvable)


# ---------------------------------------------------------------------------
# Differential tests
# ---------------------------------------------------------------------------

def grounded(fn, domain: DomainAst, problem: ProblemAst):
    """Everything a grounding produces, or the GroundingError it raised."""
    try:
        t = fn(domain, problem)
    except GroundingError as e:
        return ("GroundingError", str(e))
    return (t.facts, t.actions, t.init, t.goal, t.name, len(t.pruned_actions),
            t.provably_unsolvable)


def pair(domain_text: str, problem_text: str) -> tuple[DomainAst, ProblemAst]:
    d = parse_domain(domain_text)
    return d, parse_problem(problem_text, d)


BUILT_IN = {
    "demo-bw": (instances.BLOCKSWORLD_ARM_DOMAIN, instances.BLOCKSWORLD_DEMO_PROBLEM),
    "roadmap": (instances.ROADMAP_DOMAIN, instances.ROADMAP_PROBLEM),
    "two-planes": (instances.LOGISTICS_DOMAIN, instances.LOGISTICS_TWO_PLANES_PROBLEM),
}
BUILT_IN.update({
    f"bw-{variant}-{n}": (DOMAIN_TEXTS[f"blocksworld-{variant}"], gen_blocksworld(n, variant, n))
    for variant in ("arm", "no-arm") for n in range(3, 10)
})
BUILT_IN.update({
    f"log-{'-'.join(map(str, size))}": (DOMAIN_TEXTS["logistics"], gen_logistics(*size, seed=1))
    for size in [(1, 2, 1, 2), (2, 3, 2, 4), (3, 3, 1, 6)]
})

# static joins the generated tasks above lack: binary relations over typed
# pools joined on one and on two bound objects, two joins on one variable,
# a static atom repeating its variable (a filter), static atoms with
# constants, and a zero-arity static precondition (true in one problem,
# false in the other)
JOIN_DOMAIN = """(define (domain joins) (:requirements :strips :typing) (:types node colour)
  (:predicates (edge ?a - node ?b - node) (loop ?a - node ?b - node)
               (tint ?a - node ?c - colour) (open) (at ?a - node)
               (painted ?a - node ?c - colour) (seen ?a - node))
  (:action move :parameters (?from - node ?to - node ?c - colour)
    :precondition (and (open) (at ?from) (edge ?from ?to) (tint ?to ?c) (tint ?from ?c))
    :effect (and (at ?to) (not (at ?from))))
  (:action paint :parameters (?a - node ?c - colour)
    :precondition (and (at ?a) (loop ?a ?a) (tint ?a red))
    :effect (and (painted ?a ?c)))
  (:action jump :parameters (?a - node ?b - node)
    :precondition (and (edge n1 ?b) (at ?a) (edge ?a n3))
    :effect (and (seen ?b) (at ?b))))"""


def join_problem(is_open: bool) -> str:
    # ill-typed atoms too: (edge n1 red) must not make red a node candidate
    edges = ["n1 n2", "n2 n3", "n3 n1", "n1 n3", "n4 n3", "n2 n4", "n1 red"]
    tints = ["n1 red", "n2 red", "n3 red", "n3 blue", "n4 blue", "n2 blue", "n4 n1"]
    return ("(define (problem joins-p) (:domain joins)"
            " (:objects n1 n2 n3 n4 - node red blue - colour)"
            f" (:init {'(open)' if is_open else ''} (at n1) (loop n2 n2) (loop n3 n1)"
            + "".join(f" (edge {e})" for e in edges) + "".join(f" (tint {t})" for t in tints)
            + ") (:goal (and (painted n2 blue) (seen n3))))")


REPEATS_DOMAIN = """(define (domain repeats) (:predicates (p ?x) (q ?x ?y))
  (:action a :parameters (?x ?y) :precondition (and (p ?x)) :effect (and (q ?x ?y)))
  (:action c :parameters (?y ?z) :precondition (and (q ?z ?y)) :effect (and (not (p ?y))))
  (:action b :parameters (?x ?y) :precondition (and (q ?x ?y)) :effect (and (not (q ?y ?x)))))"""


def repeats_problem(objects: str) -> str:
    return (f"(define (problem repeats-p) (:domain repeats) (:objects {objects})"
            " (:init (p o1)) (:goal (and (q o1 o3))))")


BUILT_IN.update({
    "joins-open": (JOIN_DOMAIN, join_problem(True)),
    "joins-closed": (JOIN_DOMAIN, join_problem(False)),
    "repeats": (REPEATS_DOMAIN, repeats_problem("o1 o2 o3")),
})


def against_unpruned(domain: DomainAst, problem: ProblemAst):
    """The grounding and the reference's unpruned one, side by side: the
    kept actions in order, each with its pre, add and delete fact names; all
    action names (kept and pruned on the grounding's side), sorted; and the
    initial and goal fact names.  The unpruned side's deletes are cut to
    the grounding's facts, since the others are never true.  The pruned
    names are built here, and the grounding must count them."""
    t, full = ground(domain, problem), reference_ground(domain, problem, prune=False)
    kept = {a.name for a in t.actions}
    universe = {f.name for f in t.facts}

    def view(task, names):
        return ([(a.name, task.fact_names(a.pre), task.fact_names(a.add),
                  [f for f in task.fact_names(a.delete) if f in universe])
                 for a in task.actions if a.name in kept], names,
                task.fact_names(task.init), task.fact_names(task.goal))

    pruned = pruned_names(domain, problem, t)
    assert len(t.pruned_actions) == len(pruned)
    return (view(t, sorted([*kept, *pruned])),
            view(full, sorted(a.name for a in full.actions)))


# the reference's unpruned grounding of 3-3-1-6 builds 221,760 actions (16 s,
# 750 MB); its enumeration is held against the reference's in
# test_unfiltered_bindings_match_reference instead
GROUNDINGS = [(case, True) for case in BUILT_IN] + \
    [(case, False) for case in BUILT_IN if case != "log-3-3-1-6"]


@pytest.mark.parametrize("case,prune", GROUNDINGS)
def test_ground_matches_reference_on_built_in_tasks(case, prune):
    # True: the reference's pruned grounding; False: its unpruned one
    d, p = pair(*BUILT_IN[case])
    if prune:
        assert grounded(ground, d, p) == grounded(reference_ground, d, p)
    else:
        ours, reference = against_unpruned(d, p)
        assert ours == reference


def test_repeated_objects_are_refused():
    # once grounded as o1 o1 o2 o3's bindings, with actions named twice
    with pytest.raises(ParseError) as err:
        pair(REPEATS_DOMAIN, repeats_problem("o1 o2 o1 o3"))
    assert str(err.value) == "1:63: object 'o1' declared twice"


@pytest.mark.parametrize("case", sorted(BUILT_IN))
def test_unfiltered_bindings_match_reference(case):
    # what the pruned count counts: every binding, per schema
    d, p = pair(*BUILT_IN[case])
    by_type = pddl._pools(p)
    for schema in d.schemas:
        assert pddl._num_bindings(schema, by_type) == len(unfiltered_bindings(schema, by_type))


@st.composite
def pddl_pairs(draw):
    """A random typed or untyped STRIPS domain and problem, as text: static
    and fluent predicates, zero-arity predicates and schemas, constants
    (rarely an unknown one) in schema atoms, predicates that are only
    deleted and empty type pools; and whether the text repeats a parameter
    name in a schema or (rarely) an object."""
    typed = draw(st.booleans())
    types = ["ta", "tb", "tc"][:draw(st.integers(1, 3))] if typed else [None]
    objects = [(f"{t or 'o'}{i}", t) for t in types for i in range(draw(st.integers(0, 3)))]
    names = [o for o, _ in objects]
    objects += objects[:draw(st.sampled_from([0, 0, 0, 0, 0, 1]))]
    repeats = len(objects) != len(names)
    arity = {f"p{i}": draw(st.integers(0, 2)) for i in range(draw(st.integers(1, 4)))}

    def typed_list(entries):
        return " ".join(f"{v} - {t}" if t else v for v, t in entries)

    def atoms(pool, most):
        out = []
        for _ in range(draw(st.integers(0, most))):
            pred = draw(st.sampled_from(sorted(arity)))
            out.append(format_atom(pred, [draw(st.sampled_from(pool)) for _ in range(arity[pred])]))
        return out

    preds = " ".join(format_atom(p, [typed_list([(f"?x{j}", types[0])]) for j in range(k)])
                     for p, k in arity.items())
    schemas = []
    for i in range(draw(st.integers(0, 4))):
        params = [(draw(st.sampled_from(["?a", "?b", "?c"])), draw(st.sampled_from(types)))
                  for _ in range(draw(st.integers(0, 3)))]
        repeats = repeats or len({v for v, _ in params}) != len(params)
        pool = [v for v, _ in params] + names + ["zz"] * draw(st.sampled_from([0, 0, 0, 1]))
        pool = pool or ["zz"]
        pre = atoms(pool, 3)
        eff = atoms(pool, 2) + [f"(not {a})" for a in atoms(pool, 1)]
        schemas.append(f"(:action s{i} :parameters ({typed_list(params)})"
                       f" :precondition (and {' '.join(pre)}) :effect (and {' '.join(eff)}))")
    domain = (f"(define (domain gen) (:requirements :strips{' :typing' if typed else ''})"
              + (f" (:types {' '.join(types)})" if typed else "")
              + f" (:predicates {preds}) {' '.join(schemas)})")
    facts = sorted(format_atom(p, args) for p, k in arity.items()
                   for args in itertools.product(names, repeat=k))
    init = draw(st.sets(st.sampled_from(facts), max_size=12)) if facts else set()
    goal = draw(st.sets(st.sampled_from(facts), max_size=2)) if facts else set()
    problem = (f"(define (problem gen-p) (:domain gen) (:objects {typed_list(objects)})"
               f" (:init {' '.join(sorted(init))}) (:goal (and {' '.join(sorted(goal))})))")
    return domain, problem, repeats


# about half the drawn texts repeat a name, so 600 give about 300 groundings
@settings(max_examples=600)
@given(pddl_pairs())
def test_ground_matches_reference_on_random_domains(drawn):
    *texts, repeats = drawn
    if repeats:
        with pytest.raises(ParseError, match="declared twice"):
            pair(*texts)
        return
    d, p = pair(*texts)
    got = grounded(ground, d, p)
    assert got == grounded(reference_ground, d, p)
    if got[0] != "GroundingError":
        names = [a.name for a in got[1]] + pruned_names(d, p, ground(d, p))
        assert len(set(names)) == len(names) == got[5] + len(got[1])
