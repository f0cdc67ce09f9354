import pytest
from hypothesis import given, strategies as st

from lmplan.core import (
    Fact,
    PlanningError,
    _fact_id,
    apply_action,
    make_task,
    parse_fact_name,
    plan_obeys_order,
    result_state,
    validate_plan,
)

from conftest import fid


def aid(task, name):
    return task.action_named(name).id


def test_apply_achieves_and_consumes(twin):
    a = twin.action_named("(make-l-first)")
    out = apply_action(twin.init, a)
    assert out == twin.mask(["l", "p2"])


def test_apply_unmet_precondition_is_undefined(twin):
    a = twin.action_named("(make-l-first)")
    assert apply_action(0, a) is None


def test_empty_plan_is_identity(twin):
    assert result_state(twin, []) == twin.init
    s = twin.mask(["l", "p2"])
    assert result_state(twin, [], state=s) == s


def test_result_folds_and_absorbs_undefined(twin):
    plan = [aid(twin, n) for n in ["(make-l-first)", "(swap-to-lp)", "(redo-l)"]]
    final = result_state(twin, plan)
    assert final == twin.mask(["l", "lp"])
    assert result_state(twin, [aid(twin, "(swap-to-l)")]) is None


def test_validate_plan(twin):
    good = [aid(twin, n) for n in ["(make-l-first)", "(swap-to-lp)", "(redo-l)"]]
    assert validate_plan(twin, good)
    assert not validate_plan(twin, [aid(twin, "(make-l-first)")])


def test_validate_empty_plan_when_goal_initial():
    t = make_task(actions=[("(noop)", ["g"], ["h"], [])], init=["g"], goal=["g"])
    assert validate_plan(t, [])


def test_foreign_action_id_is_a_fault(twin):
    with pytest.raises(PlanningError):
        result_state(twin, [99])
    with pytest.raises(PlanningError):
        result_state(twin, [-1])


def test_add_and_delete_same_fact_nets_to_deletion():
    t = make_task(actions=[("(flip)", ["p"], ["q", "p"], ["p"])], init=["p"], goal=["q"])
    out = result_state(t, [0])
    assert out == t.mask(["q"])


def test_obeys_order_first_adds(twin):
    plan = [aid(twin, n) for n in ["(make-l-first)", "(swap-to-lp)", "(redo-l)"]]
    # l first added at step 0, lp at step 1
    assert plan_obeys_order(twin, plan, fid(twin, "l"), fid(twin, "lp"))
    assert not plan_obeys_order(twin, plan, fid(twin, "lp"), fid(twin, "l"))


def test_obeys_order_initial_fact_always(twin):
    plan = [aid(twin, "(make-lp-first)")]
    assert plan_obeys_order(twin, plan, fid(twin, "p1"), fid(twin, "lp"))


def test_obeys_order_never_added_target(twin):
    plan = [aid(twin, "(make-l-first)")]
    assert plan_obeys_order(twin, plan, fid(twin, "p3"), fid(twin, "lp"))
    # neither ever added
    assert plan_obeys_order(twin, [], fid(twin, "p3"), fid(twin, "lp"))


def test_obeys_order_simultaneous_add_does_not_count():
    t = make_task(actions=[("(both)", ["p"], ["x", "y"], [])], init=["p"], goal=["x", "y"])
    assert not plan_obeys_order(t, [0], fid(t, "x"), fid(t, "y"))


def test_fact_name_round_trip(demo_bw):
    for f in demo_bw.facts:
        assert demo_bw.fact_named(f.name).id == f.id
    pred, args = parse_fact_name("(ON c A)")
    assert (pred, args) == ("on", ("c", "a"))
    assert parse_fact_name("arm-empty") == ("arm-empty", ())


def test_fact_is_a_named_tuple_equal_to_its_fields(demo_bw):
    f = Fact(3, "on", ("c", "a"))
    assert (f.id, f.predicate, f.args) == (3, "on", ("c", "a"))
    assert f.name == str(f) == "(on c a)"
    # a named tuple: it equals, and hashes as, the plain tuple of its fields
    assert f == (3, "on", ("c", "a")) and hash(f) == hash((3, "on", ("c", "a")))
    assert isinstance(f, tuple) and f != Fact(4, "on", ("c", "a"))
    on_c_a = demo_bw.fact_named("(on c a)")
    assert type(on_c_a) is Fact and demo_bw.facts[on_c_a.id] is on_c_a
    assert _fact_id(on_c_a) == on_c_a.id == _fact_id(on_c_a.id)
    assert plan_obeys_order(demo_bw, [], on_c_a, on_c_a.id)


def test_action_name_round_trip(demo_bw):
    for a in demo_bw.actions:
        assert demo_bw.action_named(a.name).id == a.id


@st.composite
def micro_tasks(draw):
    n = draw(st.integers(2, 6))
    facts = [f"f{i}" for i in range(n)]
    universe = (1 << n) - 1
    n_actions = draw(st.integers(1, 5))
    actions = []
    for k in range(n_actions):
        pre = draw(st.integers(0, universe))
        add = draw(st.integers(0, universe))
        dele = draw(st.integers(0, universe))
        names = lambda m: [facts[i] for i in range(n) if m >> i & 1]
        actions.append((f"(a{k})", names(pre), names(add), names(dele)))
    init = draw(st.integers(0, universe))
    t = make_task(actions, [facts[i] for i in range(n) if init >> i & 1], [], facts=facts)
    return t


@given(micro_tasks(), st.lists(st.integers(0, 4), max_size=8))
def test_result_composes(task, raw_plan):
    plan = [a % len(task.actions) for a in raw_plan]
    for cut in range(len(plan) + 1):
        head = result_state(task, plan[:cut])
        whole = result_state(task, plan)
        if head is None:
            assert whole is None
        else:
            assert whole == result_state(task, plan[cut:], state=head)


@given(micro_tasks(), st.lists(st.integers(0, 4), max_size=6))
def test_apply_is_deterministic(task, raw_plan):
    plan = [a % len(task.actions) for a in raw_plan]
    assert result_state(task, plan) == result_state(task, plan)
