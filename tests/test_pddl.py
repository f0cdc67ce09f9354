import gc
import pickle
import re
import weakref

import pytest
from hypothesis import given, settings, strategies as st

from lmplan.bench import gen_blocksworld, gen_logistics
from lmplan.core import PlanningError, successors
from lmplan.instances import (
    BLOCKSWORLD_ARM_DOMAIN,
    BLOCKSWORLD_DEMO_PROBLEM,
    BLOCKSWORLD_NO_ARM_DOMAIN,
    LOGISTICS_DOMAIN,
    LOGISTICS_TWO_PLANES_PROBLEM,
    ROADMAP_DOMAIN,
    ROADMAP_PROBLEM,
)
from lmplan.oracles import enumerate_states
from lmplan.pddl import (
    GroundingError,
    ParseError,
    ground,
    ground_files,
    grounded_domain_pddl,
    grounded_problem_pddl,
    mangle_action_name,
    parse_domain,
    parse_plan_text,
    parse_problem,
)
from test_grounding_differential import pruned_names, unfiltered_bindings


def bw_problem(objects, init, goal, name="p"):
    return (
        f"(define (problem {name}) (:domain blocksworld-arm)\n"
        f"  (:objects {objects} - block)\n"
        f"  (:init {init})\n"
        f"  (:goal (and {goal})))"
    )


def test_domain_parses_four_schemas():
    d = parse_domain(BLOCKSWORLD_ARM_DOMAIN)
    assert d.name == "blocksworld-arm"
    assert [s.name for s in d.schemas] == ["pick-up", "put-down", "stack", "unstack"]
    assert d.predicates["on"] == 2
    assert d.predicates["arm-empty"] == 0


def test_empty_domain_is_valid():
    d = parse_domain("(define (domain nothing) (:predicates))")
    assert d.schemas == () and d.predicates == {}


def test_undeclared_predicate_rejected():
    text = """(define (domain bad) (:predicates (p ?x))
      (:action a :parameters (?x) :precondition (and (q ?x)) :effect (and (p ?x))))"""
    with pytest.raises(ParseError) as err:
        parse_domain(text)
    assert "undeclared predicate" in str(err.value)
    assert err.value.line == 2


def test_arity_mismatch_rejected():
    text = """(define (domain bad) (:predicates (p ?x))
      (:action a :parameters (?x ?y) :precondition (and (p ?x ?y)) :effect (and (p ?x))))"""
    with pytest.raises(ParseError) as err:
        parse_domain(text)
    assert "arity" in str(err.value)


def test_unknown_requirement_rejected():
    with pytest.raises(ParseError) as err:
        parse_domain("(define (domain bad) (:requirements :adl) (:predicates))")
    assert "requirement" in str(err.value)


def test_unbalanced_parens_report_position():
    with pytest.raises(ParseError):
        parse_domain("(define (domain bad) (:predicates)")


def test_problem_parses_demo_counts():
    d = parse_domain(BLOCKSWORLD_ARM_DOMAIN)
    text = bw_problem(
        "a b c d",
        "(on-table a) (on-table b) (on-table c) (on d c) (clear a) (clear b) (clear d) (arm-empty)",
        "(on c a) (on b d)",
    )
    p = parse_problem(text, d)
    assert len(p.init) == 8 and len(p.goal) == 2


def test_empty_goal_is_valid():
    d = parse_domain(BLOCKSWORLD_ARM_DOMAIN)
    p = parse_problem("(define (problem e) (:domain blocksworld-arm) (:objects a - block) (:init (clear a)) (:goal (and)))", d)
    assert p.goal == ()


def test_goal_with_unknown_object_rejected():
    d = parse_domain(BLOCKSWORLD_ARM_DOMAIN)
    text = "(define (problem e) (:domain blocksworld-arm) (:objects a - block) (:init) (:goal (clear zz)))"
    with pytest.raises(ParseError) as err:
        parse_problem(text, d)
    assert "unknown object" in str(err.value)


def test_problem_for_another_domain_rejected():
    d = parse_domain(BLOCKSWORLD_ARM_DOMAIN)
    text = "(define (problem e)\n  (:domain blocksworld-no-arm) (:objects) (:init) (:goal (and)))"
    with pytest.raises(ParseError) as err:
        parse_problem(text, d)
    assert str(err.value) == "2:4: problem is for domain 'blocksworld-no-arm', not 'blocksworld-arm'"
    assert (err.value.line, err.value.column) == (2, 4)
    # no :domain section: nothing to compare
    assert parse_problem("(define (problem e) (:objects) (:init) (:goal (and)))", d).domain == ""


def test_two_block_grounding_yields_eight_actions():
    # hand enumeration over distinct bindings: 2 pick-up, 2 put-down,
    # 2 stack, 2 unstack
    t = ground_files(
        BLOCKSWORLD_ARM_DOMAIN,
        bw_problem("a b", "(on-table a) (on-table b) (clear a) (clear b) (arm-empty)", "(on a b)"),
    )
    assert len(t.actions) == 8
    names = {a.name for a in t.actions}
    assert names == {
        "(pick-up a)", "(pick-up b)", "(put-down a)", "(put-down b)",
        "(stack a b)", "(stack b a)", "(unstack a b)", "(unstack b a)",
    }


def test_grounding_is_deterministic():
    d = parse_domain(LOGISTICS_DOMAIN)
    from lmplan.instances import LOGISTICS_TWO_PLANES_PROBLEM

    p = parse_problem(LOGISTICS_TWO_PLANES_PROBLEM, d)
    t1, t2 = ground(d, p), ground(d, p)
    assert [f.name for f in t1.facts] == [f.name for f in t2.facts]
    assert [a.name for a in t1.actions] == [a.name for a in t2.actions]


@pytest.mark.parametrize("domain,problem", [
    (BLOCKSWORLD_ARM_DOMAIN, BLOCKSWORLD_DEMO_PROBLEM),
    (LOGISTICS_DOMAIN, gen_logistics(2, 3, 2, 4, seed=1)),
    (ROADMAP_DOMAIN, ROADMAP_PROBLEM),
    # the reader keeps whitespace other than space, tab, CR and LF in a symbol
    *[("(define (domain d) (:predicates (q ?x) (p ?x))"
       " (:action go :parameters (?x) :precondition (q ?x) :effect (p ?x)))",
       f"(define (problem w) (:domain d) (:objects {s}) (:init (q {s})) (:goal (p {s})))")
      for s in ("a\x0bb", "a\xa0b")],
], ids=["blocksworld", "logistics", "roadmap", "vertical-tab", "no-break-space"])
def test_fact_args_are_the_grounded_atom_with_its_declared_arity(domain, problem):
    d = parse_domain(domain)
    p = parse_problem(problem, d)
    t = ground(d, p)
    objects = {o for o, _ in p.objects}
    for f in t.facts:
        assert len(f.args) == d.predicates[f.predicate], f.name
        assert set(f.args) <= objects, f.name
    for mask, atoms in ((t.init, p.init), (t.goal, p.goal)):
        assert {(f.predicate, f.args) for f in t.facts_in(mask)} == \
            {(a.predicate, a.args) for a in atoms}


@pytest.mark.parametrize("blank", ["\x0b", "\xa0"], ids=["vertical-tab", "no-break-space"])
def test_names_holding_reader_kept_whitespace_are_found(blank):
    # the reader splits only on space, tab, CR and LF, so "a<blank>b" is one
    # object; the name lookups and the plan reader must split the same way
    obj = f"a{blank}b"
    t = ground_files(
        "(define (domain d) (:predicates (q ?x) (p ?x))"
        " (:action go :parameters (?x) :precondition (q ?x) :effect (p ?x)))",
        f"(define (problem w) (:domain d) (:objects {obj}) (:init (q {obj})) (:goal (p {obj})))")
    for f in t.facts:
        assert t.fact_named(f.name) == f
        assert t.has_fact(f.name)
        assert t.fact_named(f"  {f.name}\t") == f
    go = t.action_named(f"(go {obj})")
    assert parse_plan_text(t, f"(go {obj})\r\n; done\n") == [go.id]
    assert parse_plan_text(t, f"( go\t{obj} )") == [go.id]


def test_zero_object_problem_grounds_to_zero_actions():
    d = parse_domain(BLOCKSWORLD_ARM_DOMAIN)
    p = parse_problem("(define (problem z) (:domain blocksworld-arm) (:objects) (:init) (:goal (and)))", d)
    t = ground(d, p)
    assert len(t.actions) == 0


def test_relaxed_unreachable_goal_flags_unsolvable():
    t = ground_files(
        BLOCKSWORLD_ARM_DOMAIN,
        bw_problem("a b", "(on-table a) (on-table b) (clear a) (clear b)", "(on a b)"),
    )  # arm never empty: nothing can ever be picked up
    assert t.provably_unsolvable


def test_pruning_drops_relaxed_unreachable_actions(two_planes):
    # cross-city drives are type-consistent but never applicable
    d = parse_domain(LOGISTICS_DOMAIN)
    pruned = pruned_names(d, parse_problem(LOGISTICS_TWO_PLANES_PROBLEM, d), two_planes)
    assert "(drive-truck la-truck la-po boston-po la)" in pruned
    assert len(pruned) == len(two_planes.pruned_actions)
    kept = {a.name for a in two_planes.actions}
    assert "(drive-truck la-truck la-po la-airport la)" in kept


@pytest.mark.parametrize("size,seed", [(3, 0), (3, 1), (4, 2), (4, 3)])
def test_pruning_is_sound_on_micro_instances(size, seed):
    # every action ever applicable in the exact space survives pruning
    from lmplan.bench import DOMAIN_TEXTS, gen_blocksworld

    d = parse_domain(DOMAIN_TEXTS["blocksworld-arm"])
    p = parse_problem(gen_blocksworld(size, "arm", seed), d)
    from test_grounding_differential import reference_ground

    pruned_task = ground(d, p)
    full_task = reference_ground(d, p, prune=False)
    used = {full_task.actions[aid].name for s in enumerate_states(full_task)
            for aid, _ in successors(full_task.ops, s)}
    assert used <= {a.name for a in pruned_task.actions}


def test_grounded_pddl_round_trip(roadmap):
    text_d = grounded_domain_pddl(roadmap)
    text_p = grounded_problem_pddl(roadmap)
    t2 = ground_files(text_d, text_p)
    assert {mangle_action_name(a.name) for a in roadmap.actions} == \
        {a.name.strip("()") for a in t2.actions}
    assert sorted(roadmap.fact_names(roadmap.init)) == sorted(t2.fact_names(t2.init))
    assert sorted(roadmap.fact_names(roadmap.goal)) == sorted(t2.fact_names(t2.goal))


def test_plan_text_accepts_both_spellings(demo_bw):
    plan = parse_plan_text(demo_bw, "(unstack d c)\n; comment\n(put-down_d)\n(pick-up_c)\n")
    names = [demo_bw.actions[a].name for a in plan]
    assert names == ["(unstack d c)", "(put-down d)", "(pick-up c)"]


@pytest.mark.parametrize("spelling", ["(unstack  d c)", "(unstack\td c)", " ( UNSTACK d\r\nc ) "],
                         ids=["two-spaces", "tab", "blanks-and-case"])
def test_action_names_are_found_however_blanks_are_spelled(demo_bw, spelling):
    # as fact names are: split on the reader's blanks, lowercased
    unstack = demo_bw.action_named("(unstack d c)")
    assert demo_bw.action_named(spelling) == unstack
    assert parse_plan_text(demo_bw, spelling.replace("\n", " ")) == [unstack.id]


@pytest.mark.parametrize("name", ["", "((unstack d c))", "(unstack (d) c)"],
                         ids=["empty", "doubled-parentheses", "nested"])
def test_malformed_action_name_is_reported_as_one(demo_bw, name):
    with pytest.raises(PlanningError, match=r"^malformed action name: "):
        demo_bw.action_named(name)
    with pytest.raises(PlanningError, match=r"^malformed fact name: "):
        demo_bw.fact_named(name)


# (move x y_z) and (move x_y z) both mangle to move_x_y_z
COLLIDING_DOMAIN = """(define (domain d) (:predicates (p ?a ?b) (q ?a ?b))
  (:action move :parameters (?a ?b) :precondition (p ?a ?b) :effect (q ?a ?b)))"""
COLLIDING_PROBLEM = """(define (problem c) (:domain d) (:objects x x_y y_z z)
  (:init (p x y_z) (p x_y z)) (:goal (and (q x y_z))))"""
COLLISION = "actions (move x y_z) and (move x_y z) both mangle to 'move_x_y_z'"


def test_hand_off_refuses_actions_whose_names_mangle_alike():
    # the domain held the action twice, and lmplan's own parser refused it
    task = ground_files(COLLIDING_DOMAIN, COLLIDING_PROBLEM)
    assert [a.name for a in task.actions] == ["(move x y_z)", "(move x_y z)"]
    with pytest.raises(PlanningError) as err:
        grounded_domain_pddl(task)
    assert str(err.value) == COLLISION


def test_plan_text_refuses_actions_whose_names_mangle_alike():
    # the mangled spelling silently read as the later action
    task = ground_files(COLLIDING_DOMAIN, COLLIDING_PROBLEM)
    with pytest.raises(PlanningError) as err:
        parse_plan_text(task, "(move_x_y_z)\n")
    assert str(err.value) == COLLISION


def test_malformed_plan_line_is_reported_as_an_action_name(demo_bw):
    with pytest.raises(PlanningError) as err:
        parse_plan_text(demo_bw, "(unstack d c)\n((unstack d c))\n")
    assert str(err.value) == "malformed action name: '((unstack d c))'"


def test_constants_in_action_atoms_resolve(roadmap):
    assert roadmap.fact_named("(at a)").id in range(roadmap.num_facts)
    with pytest.raises(PlanningError):
        roadmap.fact_named("(at zz)")


def test_comments_and_case_are_normalized():
    d = parse_domain(
        "; a commented domain\n"
        "(define (domain CaseTest) ; trailing\n"
        "  (:predicates (P ?X))\n"
        "  (:action Move :parameters (?X) ; comment inside\n"
        "    :precondition (and (p ?x)) :effect (and (not (P ?X)))))\n"
    )
    assert d.name == "casetest"
    assert d.schemas[0].name == "move"
    p = parse_problem(
        "(define (problem UP) (:domain CaseTest) (:objects A B)\n"
        "  (:init (P A)) (:goal (and)))", d)
    assert p.objects == (("a", None), ("b", None))
    assert p.init[0].args == ("a",)


def test_mixed_typed_and_untyped_objects_rejected():
    d = parse_domain(BLOCKSWORLD_ARM_DOMAIN)
    with pytest.raises(ParseError) as err:
        parse_problem(
            "(define (problem m) (:domain blocksworld-arm)"
            " (:objects a - block b) (:init) (:goal (and)))", d)
    assert "mixed" in str(err.value)


# ---------------------------------------------------------------------------
# Declarations made twice
# ---------------------------------------------------------------------------

def bw_problem_with(sections):
    return ("(define (problem p) (:domain blocksworld-arm)\n"
            + "\n".join(f"  {s}" for s in sections) + ")")


OBJECTS, INIT, GOAL = "(:objects a b - block)", "(:init (on-table a) (clear a))", "(:goal (and))"


@pytest.mark.parametrize("sections,message", [
    ([OBJECTS, "(:objects c - block)", INIT, GOAL], "3:4: repeated :objects in problem"),
    ([OBJECTS, INIT, "(:init (on-table b) (clear b) (arm-empty))", GOAL],
     "4:4: repeated :init in problem"),
    ([OBJECTS, INIT, GOAL, "(:goal (clear a))"], "5:4: repeated :goal in problem"),
], ids=[":objects", ":init", ":goal"])
def test_repeated_problem_section_rejected(sections, message):
    # a second section would otherwise replace the first
    d = parse_domain(BLOCKSWORLD_ARM_DOMAIN)
    with pytest.raises(ParseError) as err:
        parse_problem(bw_problem_with(sections), d)
    assert str(err.value) == message


def schema_text(clauses):
    return ("(define (domain d) (:requirements :typing) (:types t)\n"
            "  (:predicates (p ?x) (q ?x))\n"
            "  (:action go\n" + "\n".join(f"    {c}" for c in clauses) + "))")


PARAMETERS, PRECONDITION, EFFECT = ":parameters (?x)", ":precondition (p ?x)", ":effect (q ?x)"


@pytest.mark.parametrize("text,message", [
    ("(define (domain d) (:types t)\n  (:predicates (p ?x))\n  (:types u))",
     "3:4: repeated :types in domain"),
    (schema_text([PARAMETERS, ":parameters (?x - t)", PRECONDITION, EFFECT]),
     "5:5: repeated :parameters in action go"),
    (schema_text([PARAMETERS, PRECONDITION, ":precondition (q ?x)", EFFECT]),
     "6:5: repeated :precondition in action go"),
    (schema_text([PARAMETERS, PRECONDITION, EFFECT, ":effect (not (p ?x))"]),
     "7:5: repeated :effect in action go"),
], ids=[":types", ":parameters", ":precondition", ":effect"])
def test_repeated_domain_section_or_action_clause_rejected(text, message):
    with pytest.raises(ParseError) as err:
        parse_domain(text)
    assert str(err.value) == message


def test_second_action_of_one_name_rejected():
    # two pick-up schemas would ground to actions sharing names, and a
    # lookup by name would find only the later one
    with pytest.raises(ParseError) as err:
        parse_domain(BLOCKSWORLD_ARM_DOMAIN.replace("(:action put-down", "(:action PICK-UP"))
    assert str(err.value) == "14:12: action 'pick-up' declared twice"


@pytest.mark.parametrize("objects,message", [
    ("(:objects a a b)", "2:15: object 'a' declared twice"),
    ("(:objects a - block b a - block)", "2:25: object 'a' declared twice"),
], ids=["untyped", "typed"])
def test_object_declared_twice_rejected(objects, message):
    # (:objects a a b - block) grounded to 14 actions with only 8 names
    d = parse_domain(BLOCKSWORLD_ARM_DOMAIN)
    with pytest.raises(ParseError) as err:
        parse_problem(bw_problem_with([objects, INIT, GOAL]), d)
    assert str(err.value) == message


@pytest.mark.parametrize("parameters,message", [
    (":parameters (?x ?x)", "4:21: parameter '?x' declared twice in action go"),
    (":parameters (?x - t ?x - t)", "4:25: parameter '?x' declared twice in action go"),
], ids=["untyped", "typed"])
def test_parameter_named_twice_rejected(parameters, message):
    # (go a a) was grounded twice, and a lookup by name found the later one
    with pytest.raises(ParseError) as err:
        parse_domain(schema_text([parameters, PRECONDITION, EFFECT]))
    assert str(err.value) == message


def test_predicate_declared_twice_rejected():
    # the later arity would otherwise win, and a use of the first would
    # fail as an arity mismatch
    text = """(define (domain d) (:predicates (p ?x) (q)
      (P ?x ?y))
      (:action a :parameters (?x) :precondition (p ?x) :effect (q)))"""
    with pytest.raises(ParseError) as err:
        parse_domain(text)
    assert str(err.value) == "2:8: predicate 'p' declared twice"


@pytest.mark.parametrize("types,message", [
    ("(:types block)", "2:25: unknown type 'blokc' in predicate p"),
    ("", "2:25: unknown type 'blokc' in predicate p"),
], ids=["misspelt", "no-types"])
def test_predicate_of_unknown_type_rejected(types, message):
    # as an action parameter of an unknown type is
    text = f"""(define (domain d) (:requirements :typing) {types}
      (:predicates (q) (p ?a - blokc)))"""
    with pytest.raises(ParseError) as err:
        parse_domain(text)
    assert str(err.value) == message


# ---------------------------------------------------------------------------
# Unknown constants: raised whenever the schema has a binding
# ---------------------------------------------------------------------------

STATIC_GUARDED = """(define (domain guarded) (:requirements :strips :typing) (:types t u)
  (:predicates (s ?x - t) (f ?x - t))
  (:action a :parameters (?x - t) :precondition (and (s ?x)) :effect (and (f zz))))"""


def guarded_problem(objects):
    return f"(define (problem g) (:domain guarded) (:objects {objects}) (:init) (:goal (and)))"


def test_unknown_constant_raises_even_when_every_binding_fails_a_static_test():
    # (s ?x) is static and false for o1, so no binding survives the filter
    with pytest.raises(GroundingError, match="unknown constant 'zz' in f"):
        ground_files(STATIC_GUARDED, guarded_problem("o1 - t"))


@pytest.mark.parametrize("objects", ["", "o1 - u"])
def test_unknown_constant_without_bindings_raises_nothing(objects):
    # the pool of type t is empty, so the schema has no binding to ground
    assert ground_files(STATIC_GUARDED, guarded_problem(objects)).actions == ()


# ---------------------------------------------------------------------------
# Pruned actions: counted, never named
# ---------------------------------------------------------------------------

def test_grounding_builds_no_pruned_names(monkeypatch):
    from lmplan import pddl

    d = parse_domain(LOGISTICS_DOMAIN)
    p = parse_problem(gen_logistics(3, 3, 1, 6, seed=1), d)
    calls = []
    real = pddl.format_atom
    monkeypatch.setattr(pddl, "format_atom", lambda *a: calls.append(1) or real(*a))
    t = ground(d, p)
    grounding_calls = len(calls)
    assert len(t.pruned_actions) == 221_592
    # a name and a few atoms per binding passing the static tests, none
    # for the 221,592 pruned bindings, almost all of which fail them
    assert 50 * grounding_calls < len(t.pruned_actions)


def test_logistics_5_4_2_12_grounds_to_820_actions():
    # 124 s with the full binding product, about 0.25 s with static tests
    t = ground_files(LOGISTICS_DOMAIN, gen_logistics(5, 4, 2, 12, seed=1))
    assert (len(t.actions), len(t.facts)) == (820, 423)


def test_a_grounded_task_frees_its_asts():
    d = parse_domain(LOGISTICS_DOMAIN)
    p = parse_problem(gen_logistics(2, 3, 2, 4, seed=1), d)
    problem = weakref.ref(p)
    t = ground(d, p)
    del p
    gc.collect()
    assert problem() is None
    assert len(t.pruned_actions) > 0 and t.actions


def test_drive_truck_binds_its_city_before_its_destination():
    from lmplan import pddl

    d = parse_domain(LOGISTICS_DOMAIN)
    p = parse_problem(gen_logistics(3, 3, 1, 6, seed=1), d)
    drive = next(s for s in d.schemas if s.name == "drive-truck")
    # (in-city ?from ?c) keys ?c once ?from is bound, then (in-city ?to ?c)
    # keys ?to; unary static atoms key nothing on a bound variable
    slot = {v: i for i, (v, _) in enumerate(drive.params)}
    refs = [tuple(slot[a] for a in atom.args) for atom in drive.pre]
    assert [v for v, _ in drive.params] == ["?t", "?from", "?to", "?c"]
    assert pddl._join_order(4, refs) == [0, 1, 3, 2]
    # a join keying the next slot anyway, or keying on a constant alone,
    # keeps the order
    assert pddl._join_order(3, [(0,), (1,), (2,), (0, 1)]) == [0, 1, 2]
    assert pddl._join_order(2, [(0,), ("n1", 1)]) == [0, 1]
    by_type = pddl._pools(p)
    static = {"truck", "location", "city", "in-city"}
    static = {name: {a.args for a in p.init if a.predicate == name} for name in static}
    plan = d.plan.schemas[d.schemas.index(drive)]
    assert plan.order == (0, 1, 3, 2)
    kept = list(pddl._bindings(drive, by_type, plan, static))
    # parameter order, lexicographic, and exactly the unfiltered bindings
    # passing every static precondition
    expected = [c for c in unfiltered_bindings(drive, by_type)
                if all(tuple(c[slot[a]] for a in atom.args) in static[atom.predicate]
                       for atom in drive.pre if atom.predicate in static)]
    assert kept == expected == sorted(kept) and len(kept) == 54


def test_bindings_found_out_of_order_come_back_sorted():
    from lmplan import pddl

    # (link ?a ?c) keys ?c once ?a is bound, so ?c is bound before ?b; the
    # bindings must still come in parameter order, lexicographically
    d = parse_domain("""(define (domain order) (:predicates (link ?x ?y) (p ?x) (q ?x ?y ?z))
      (:action go :parameters (?a ?b ?c) :precondition (and (link ?a ?c) (p ?b))
        :effect (and (q ?a ?b ?c))))""")
    p = parse_problem("""(define (problem order-p) (:domain order) (:objects a1 a2 b1 b2 c1 c2)
      (:init (link a1 c2) (link a1 c1) (link a2 c1) (p b2) (p b1) (p c2))
      (:goal (and (q a1 b1 c1))))""", d)
    go = d.schemas[0]
    assert pddl._join_order(3, [(0, 2), (1,)]) == [0, 2, 1]
    by_type = pddl._pools(p)
    static = {"link": {a.args for a in p.init if a.predicate == "link"},
              "p": {a.args for a in p.init if a.predicate == "p"}}
    assert d.plan.schemas[0].order == (0, 2, 1)
    kept = list(pddl._bindings(go, by_type, d.plan.schemas[0], static))
    expected = [c for c in unfiltered_bindings(go, by_type)
                if (c[0], c[2]) in static["link"] and (c[1],) in static["p"]]
    assert kept == expected == sorted(kept)
    assert kept[:3] == [("a1", "b1", "c1"), ("a1", "b1", "c2"), ("a1", "b2", "c1")]


def test_derived_tasks_have_no_pruned_names(two_planes):
    sub = two_planes.derive(two_planes.init, two_planes.goal, "sub")
    assert len(sub.pruned_actions) == 0 and len(two_planes.pruned_actions) > 0


def test_grounded_task_pickles_with_its_pruned_count():
    fresh = ground_files(LOGISTICS_DOMAIN, LOGISTICS_TWO_PLANES_PROBLEM)
    copy = pickle.loads(pickle.dumps(fresh))
    assert len(copy.pruned_actions) == len(fresh.pruned_actions) > 0
    assert [a.name for a in copy.actions] == [a.name for a in fresh.actions]


# ---------------------------------------------------------------------------
# Robustness: only ParseError and GroundingError escape
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("domain,problem", [
    ("(define (domain (x)))", None),
    ("(define (domain r) (:requirements (a)))", None),
    ("(define (domain r) (:predicates (p)) (:action a :parameters ?x :effect (p)))", None),
    (BLOCKSWORLD_ARM_DOMAIN, "(define (problem (x)))"),
    (BLOCKSWORLD_ARM_DOMAIN, "(define (problem e) (:domain) (:objects) (:init) (:goal (and)))"),
    (BLOCKSWORLD_ARM_DOMAIN, "(define (problem e) (:domain (d)) (:objects) (:init) (:goal (and)))"),
])
def test_malformed_names_raise_parse_errors(domain, problem):
    with pytest.raises(ParseError):
        parse_problem(problem, parse_domain(domain)) if problem else parse_domain(domain)


FUZZ_PAIRS = [
    (BLOCKSWORLD_ARM_DOMAIN, BLOCKSWORLD_DEMO_PROBLEM),
    (ROADMAP_DOMAIN, ROADMAP_PROBLEM),
    (LOGISTICS_DOMAIN, LOGISTICS_TWO_PLANES_PROBLEM),
    (BLOCKSWORLD_NO_ARM_DOMAIN, gen_blocksworld(3, "no-arm", 0)),
]
EXTRA_TOKENS = ["(", ")", " ", "-", "?x", "zz", ":domain", "(:domain)", "()", "(and)", "(not"]


def _tokens(text):
    return re.findall(r"\(|\)|[^\s()]+|\s+", text)


def _matching(toks, i):
    """Index of the ")" closing the "(" at ``i``, or None."""
    depth = 0
    for j in range(i, len(toks)):
        depth += {"(": 1, ")": -1}.get(toks[j], 0)
        if depth == 0:
            return j
    return None


@st.composite
def mutated_pairs(draw):
    """A built-in domain and problem, one of them mutated 1-4 times: a token
    deleted, inserted, replaced or swapped, a token wrapped in parentheses,
    or a list unwrapped or emptied down to its head."""
    domain, problem = draw(st.sampled_from(FUZZ_PAIRS))
    which = draw(st.booleans())
    toks = _tokens(domain if which else problem)
    vocabulary = sorted(set(_tokens(domain) + _tokens(problem))) + EXTRA_TOKENS
    for _ in range(draw(st.integers(1, 4))):
        i = draw(st.integers(0, len(toks) - 1))
        op = draw(st.sampled_from(["delete", "insert", "replace", "swap", "wrap", "unwrap", "empty"]))
        close = _matching(toks, i) if toks[i] == "(" else None
        if op == "delete":
            del toks[i]
        elif op == "insert":
            toks.insert(i, draw(st.sampled_from(vocabulary)))
        elif op == "replace":
            toks[i] = draw(st.sampled_from(vocabulary))
        elif op == "swap":
            j = draw(st.integers(0, len(toks) - 1))
            toks[i], toks[j] = toks[j], toks[i]
        elif op == "wrap":
            toks[i] = f"({toks[i]})"
        elif close is not None and op == "unwrap":
            del toks[close], toks[i]
        elif close is not None:
            del toks[i + 2:close]
        toks = toks or ["("]
    text = "".join(toks)
    return (text, problem) if which else (domain, text)


@settings(max_examples=400)
@given(mutated_pairs())
def test_mutated_texts_raise_only_parse_and_grounding_errors(texts):
    domain_text, problem_text = texts
    try:
        d = parse_domain(domain_text)
        p = parse_problem(problem_text, d)
        len(ground(d, p).pruned_actions)
    except (ParseError, GroundingError):
        pass
