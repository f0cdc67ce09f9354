"""PDDL front-end: a STRIPS-subset parser and a grounder producing Tasks.

Accepted language: ``(define (domain ...))`` with :requirements limited to
:strips and :typing, an optional flat :types list (no hierarchy), :predicates,
and :action blocks whose preconditions are conjunctions of positive atoms and
whose effects are conjunctions of atoms and (not atom).  Problems carry
:objects, :init, and :goal.  Symbols are case-insensitive and normalized to
lowercase; ";" starts a comment running to end of line.

Atom arguments may be schema variables (?x) or constant names; constants are
resolved against the problem's objects at grounding time, which is what lets
already-grounded tasks round-trip through PDDL.

Grounding is driven by reachability, as in the Datalog-style grounding of
Helmert's "Concise finite-domain representations for PDDL planning tasks"
(AIJ 2009), in miniature.  Each schema's parameters are bound one at a time
over sorted typed pools to pairwise-distinct objects, and a precondition on
a static predicate (one no schema adds, so its true atoms are exactly the
``:init`` ones) is tested as soon as its variables are bound.  The
delete-relaxed fixpoint then runs over the surviving bindings only.  The
names of the pruned actions are not built while grounding; the Task builds
them from the domain, the problem and the kept actions on first read.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import Optional, Sequence

from .core import Action, Fact, PlanningError, Task, format_atom, mask_of


class ParseError(PlanningError):
    def __init__(self, message: str, line: int, column: int):
        super().__init__(f"{line}:{column}: {message}")
        self.line = line
        self.column = column


class GroundingError(PlanningError):
    pass


# ---------------------------------------------------------------------------
# S-expression reader with source positions
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Symbol:
    text: str
    line: int
    column: int


def _tokenize(text: str):
    line, col = 1, 1
    i, n = 0, len(text)
    while i < n:
        c = text[i]
        if c == ";":
            while i < n and text[i] != "\n":
                i += 1
            continue
        if c == "\n":
            line += 1
            col = 1
            i += 1
            continue
        if c in " \t\r":
            col += 1
            i += 1
            continue
        if c in "()":
            yield (c, line, col)
            col += 1
            i += 1
            continue
        start, start_col = i, col
        while i < n and text[i] not in " \t\r\n();":
            i += 1
            col += 1
        yield (text[start:i].lower(), line, start_col)
    yield (None, line, col)


def _read_sexprs(text: str) -> list:
    """Parse into nested lists of Symbols; raises ParseError on bad nesting."""
    stack: list[list] = [[]]
    for tok, line, col in _tokenize(text):
        if tok is None:
            break
        if tok == "(":
            stack.append([])
        elif tok == ")":
            if len(stack) == 1:
                raise ParseError("unbalanced ')'", line, col)
            done = stack.pop()
            stack[-1].append(done)
        else:
            stack[-1].append(Symbol(tok, line, col))
    if len(stack) != 1:
        raise ParseError("unbalanced '('", line, col)
    return stack[0]


def _head(expr) -> str:
    if isinstance(expr, list) and expr and isinstance(expr[0], Symbol):
        return expr[0].text
    return ""


def _pos(expr) -> tuple[int, int]:
    while isinstance(expr, list) and expr:
        expr = expr[0]
    if isinstance(expr, Symbol):
        return expr.line, expr.column
    return 0, 0


def _err(expr, message: str) -> ParseError:
    line, col = _pos(expr)
    return ParseError(message, line, col)


def _typed_list(items: Sequence, what: str) -> list[tuple[str, Optional[str]]]:
    """Parse a PDDL typed list ``a b - t c d`` into (name, type-or-None) pairs.

    Entries must be uniformly typed or uniformly untyped.
    """
    out: list[tuple[str, Optional[str]]] = []
    pending: list[Symbol] = []
    saw_typed = saw_untyped = False
    i = 0
    while i < len(items):
        it = items[i]
        if not isinstance(it, Symbol):
            raise _err(it, f"unexpected list in {what}")
        if it.text == "-":
            if not pending:
                raise _err(it, f"dangling '-' in {what}")
            if i + 1 >= len(items) or not isinstance(items[i + 1], Symbol):
                raise _err(it, f"missing type after '-' in {what}")
            tname = items[i + 1].text
            out.extend((p.text, tname) for p in pending)
            pending = []
            saw_typed = True
            i += 2
            continue
        pending.append(it)
        i += 1
    if pending:
        out.extend((p.text, None) for p in pending)
        saw_untyped = True
    if saw_typed and saw_untyped:
        raise _err(items[0], f"mixed typed and untyped entries in {what}")
    return out


# ---------------------------------------------------------------------------
# ASTs
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class AtomAst:
    predicate: str
    args: tuple[str, ...]  # "?x" variables or constant names


@dataclass(frozen=True)
class SchemaAst:
    name: str
    params: tuple[tuple[str, Optional[str]], ...]  # (?var, type-or-None)
    pre: tuple[AtomAst, ...]
    add: tuple[AtomAst, ...]
    delete: tuple[AtomAst, ...]


@dataclass(frozen=True)
class DomainAst:
    name: str
    types: tuple[str, ...]
    predicates: dict[str, int]  # predicate -> arity
    schemas: tuple[SchemaAst, ...]


@dataclass(frozen=True)
class ProblemAst:
    name: str
    domain: str
    objects: tuple[tuple[str, Optional[str]], ...]
    init: tuple[AtomAst, ...]
    goal: tuple[AtomAst, ...]


_SUPPORTED_REQUIREMENTS = {":strips", ":typing"}


def _parse_atom(expr, predicates: dict[str, int], where: str) -> AtomAst:
    if not isinstance(expr, list) or not expr or not isinstance(expr[0], Symbol):
        raise _err(expr, f"expected an atom in {where}")
    name = expr[0].text
    args = []
    for a in expr[1:]:
        if not isinstance(a, Symbol):
            raise _err(a, f"nested expression inside atom in {where}")
        args.append(a.text)
    if name not in predicates:
        raise _err(expr, f"undeclared predicate {name!r} in {where}")
    if predicates[name] != len(args):
        raise _err(
            expr,
            f"arity mismatch for {name!r} in {where}: "
            f"declared {predicates[name]}, used with {len(args)}",
        )
    return AtomAst(name, tuple(args))


def _parse_conjunction(expr, predicates, where: str, allow_not: bool):
    """Return (positive atoms, negated atoms); accepts a bare atom or (and ...)."""
    pos: list[AtomAst] = []
    neg: list[AtomAst] = []
    items = expr[1:] if _head(expr) == "and" else [expr]
    for item in items:
        if _head(item) == "not":
            if not allow_not:
                raise _err(item, f"negation not allowed in {where}")
            if len(item) != 2:
                raise _err(item, "(not ...) takes exactly one atom")
            neg.append(_parse_atom(item[1], predicates, where))
        else:
            pos.append(_parse_atom(item, predicates, where))
    return tuple(pos), tuple(neg)


def _is_named(body: list, keyword: str) -> bool:
    """Whether ``body`` starts with ``(keyword NAME)``."""
    return (bool(body) and _head(body[0]) == keyword and len(body[0]) == 2
            and isinstance(body[0][1], Symbol))


def parse_domain(text: str) -> DomainAst:
    top = _read_sexprs(text)
    if len(top) != 1 or _head(top[0]) != "define":
        raise ParseError("expected a single (define (domain ...))", 1, 1)
    body = top[0][1:]
    if not _is_named(body, "domain"):
        raise _err(top[0], "missing (domain NAME)")
    name = body[0][1].text

    types: tuple[str, ...] = ()
    predicates: dict[str, int] = {}
    schemas: list[SchemaAst] = []

    for section in body[1:]:
        head = _head(section)
        if head == ":requirements":
            for req in section[1:]:
                if not isinstance(req, Symbol):
                    raise _err(req, "malformed requirement")
                if req.text not in _SUPPORTED_REQUIREMENTS:
                    raise _err(req, f"unknown requirement {req.text!r}")
        elif head == ":types":
            for t in section[1:]:
                if not isinstance(t, Symbol) or t.text == "-":
                    raise _err(t, "only a flat type list is supported")
            types = tuple(t.text for t in section[1:])
        elif head == ":predicates":
            for p in section[1:]:
                if not isinstance(p, list) or not p or not isinstance(p[0], Symbol):
                    raise _err(p, "malformed predicate declaration")
                params = _typed_list(p[1:], f"predicate {p[0].text}")
                predicates[p[0].text] = len(params)
        elif head == ":action":
            schemas.append(_parse_schema(section, predicates, types))
        elif head == "":
            raise _err(section, "malformed domain section")
        else:
            raise _err(section, f"unsupported domain section {head!r}")
    return DomainAst(name, types, predicates, tuple(schemas))


def _parse_schema(section, predicates, types) -> SchemaAst:
    if len(section) < 2 or not isinstance(section[1], Symbol):
        raise _err(section, "missing action name")
    name = section[1].text
    params: tuple[tuple[str, Optional[str]], ...] = ()
    pre: tuple[AtomAst, ...] = ()
    add: tuple[AtomAst, ...] = ()
    delete: tuple[AtomAst, ...] = ()
    i = 2
    while i < len(section):
        key = section[i]
        if not isinstance(key, Symbol) or i + 1 >= len(section):
            raise _err(key, f"malformed clause in action {name}")
        value = section[i + 1]
        if key.text == ":parameters":
            if not isinstance(value, list):
                raise _err(value, f"parameters of action {name} must be a list")
            entries = _typed_list(value, f"action {name} parameters")
            for v, t in entries:
                if not v.startswith("?"):
                    raise _err(value, f"parameter {v!r} must start with '?'")
                if t is not None and t not in types:
                    raise _err(value, f"unknown type {t!r} in action {name}")
            params = tuple(entries)
        elif key.text == ":precondition":
            pre, neg = _parse_conjunction(value, predicates, f"action {name} precondition", False)
            del neg
        elif key.text == ":effect":
            add, delete = _parse_conjunction(value, predicates, f"action {name} effect", True)
        else:
            raise _err(key, f"unsupported clause {key.text!r} in action {name}")
        i += 2
    declared = {v for v, _ in params}
    for atom in (*pre, *add, *delete):
        for arg in atom.args:
            if arg.startswith("?") and arg not in declared:
                raise _err(section, f"unbound variable {arg!r} in action {name}")
    return SchemaAst(name, params, pre, add, delete)


def parse_problem(text: str, domain: DomainAst) -> ProblemAst:
    top = _read_sexprs(text)
    if len(top) != 1 or _head(top[0]) != "define":
        raise ParseError("expected a single (define (problem ...))", 1, 1)
    body = top[0][1:]
    if not _is_named(body, "problem"):
        raise _err(top[0], "missing (problem NAME)")
    name = body[0][1].text

    domain_name = ""
    objects: tuple[tuple[str, Optional[str]], ...] = ()
    init: list[AtomAst] = []
    goal: tuple[AtomAst, ...] = ()

    for section in body[1:]:
        head = _head(section)
        if head == ":domain":
            if len(section) != 2 or not isinstance(section[1], Symbol):
                raise _err(section, "(:domain NAME) takes one name")
            domain_name = section[1].text
        elif head == ":objects":
            objects = tuple(_typed_list(section[1:], "objects"))
            for _, t in objects:
                if t is not None and t not in domain.types:
                    raise _err(section, f"unknown object type {t!r}")
        elif head == ":init":
            init = [_parse_atom(a, domain.predicates, ":init") for a in section[1:]]
        elif head == ":goal":
            if len(section) != 2:
                raise _err(section, ":goal takes one formula")
            goal, neg = _parse_conjunction(section[1], domain.predicates, ":goal", False)
            del neg
        else:
            raise _err(section, f"unsupported problem section {head!r}")

    known = {o for o, _ in objects}
    for atom in (*init, *goal):
        for arg in atom.args:
            if arg.startswith("?"):
                raise _err(top[0], f"variable {arg!r} outside an action")
            if arg not in known:
                raise _err(top[0], f"unknown object {arg!r} in {atom.predicate}")
    return ProblemAst(name, domain_name, objects, tuple(init), goal)


# ---------------------------------------------------------------------------
# Grounding
# ---------------------------------------------------------------------------

def _pools(problem: ProblemAst) -> dict[Optional[str], list[str]]:
    """Sorted objects per declared type; ``None`` (untyped) maps to all."""
    by_type: dict[Optional[str], list[str]] = {}
    for o, t in problem.objects:
        by_type.setdefault(t, []).append(o)
    # untyped parameters range over every object
    by_type[None] = [o for o, _ in problem.objects]
    for pool in by_type.values():
        pool.sort()
    return by_type


def _bindings(schema: SchemaAst, by_type: dict[Optional[str], list[str]],
              static: Optional[dict[str, set]] = None):
    """Type-consistent bindings with pairwise-distinct objects, as object
    tuples in parameter order, in lexicographic order.

    Parameters are bound one at a time.  ``static`` maps each static
    predicate to the argument tuples of its ``:init`` atoms; a precondition
    on one is tested as soon as its last variable is bound, and the partial
    bindings failing it are not extended.
    """
    pools = [by_type.get(t, []) for _, t in schema.params]
    if not all(pools):
        return
    # a repeated parameter name takes the object at its last position, so
    # every position of that name reads it (as a dict from names would)
    slot = {v: i for i, (v, _) in enumerate(schema.params)}
    args = tuple(slot[v] for v, _ in schema.params)
    resolve = args != tuple(range(len(args)))
    tests: list[list] = [[] for _ in range(len(pools) + 1)]  # by bound count
    for atom in schema.pre if static is not None else ():
        if atom.predicate in static:
            refs = tuple(slot[a] if a.startswith("?") else a for a in atom.args)
            depth = 1 + max((r for r in refs if type(r) is int), default=-1)
            tests[depth].append((static[atom.predicate], refs))

    def holds(combo):
        return all(
            tuple(combo[r] if type(r) is int else r for r in refs) in true
            for true, refs in tests[len(combo)]
        )

    # all but the last parameter breadth-first, the last one streamed
    partial = [()] if holds(()) else []
    for depth, pool in enumerate(pools[:-1], 1):
        partial = [c + (o,) for c in partial for o in pool if o not in c]
        if tests[depth]:
            partial = [c for c in partial if holds(c)]
    if not pools:
        yield from partial
        return
    last, checked = pools[-1], bool(tests[-1])
    for c in partial:
        for o in last:
            if o not in c:
                combo = c + (o,)
                if not checked or holds(combo):
                    yield tuple(combo[i] for i in args) if resolve else combo


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


def _pruned_names(domain: DomainAst, problem: ProblemAst, kept: frozenset[str]):
    """The names of every binding ``ground`` enumerates with no static tests
    that is not in ``kept``, in grounding order."""
    by_type = _pools(problem)
    for schema in domain.schemas:
        for combo in _bindings(schema, by_type):
            name = format_atom(schema.name, combo)
            if name not in kept:
                yield name


def ground(domain: DomainAst, problem: ProblemAst, prune: bool = True) -> Task:
    """Instantiate schemas over the problem objects and build a Task.

    With ``prune`` on, actions unreachable in the delete-relaxed fixpoint are
    dropped and the fact universe is the relaxed-reachable facts plus init
    and goal.  A goal fact outside the fixpoint does not fail the grounding;
    the returned task is flagged provably unsolvable instead.

    Pruning starts while bindings are enumerated: a predicate no schema adds
    is static, its true atoms are exactly its ``:init`` atoms, so a binding
    failing a static precondition is never reached and is skipped as soon as
    that precondition's variables are bound.  The fixpoint then runs over
    the survivors only.  The pruned actions' names, most of the bindings on
    untyped domains, are built when ``Task.pruned_actions`` is first read.
    """
    by_type = _pools(problem)
    object_set = {o for o, _ in problem.objects}
    static = None
    if prune:
        added = {a.predicate for s in domain.schemas for a in s.add}
        static = {a.predicate: set() for s in domain.schemas for a in s.pre
                  if a.predicate not in added}
        for atom in problem.init:
            if atom.predicate in static:
                static[atom.predicate].add(atom.args)

    grounded: list[tuple[str, frozenset, frozenset, frozenset]] = []
    for schema in domain.schemas:
        atoms = (*schema.pre, *schema.add, *schema.delete)
        resolved = all(a.startswith("?") or a in object_set for at in atoms for a in at.args)
        # with an unknown constant the bindings go unfiltered, so the first
        # one (if any) raises whether or not a static test would reject it
        for combo in _bindings(schema, by_type, static if resolved else None):
            binding = dict(zip((v for v, _ in schema.params), combo))
            gname = format_atom(schema.name, combo)
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
        pruned = functools.partial(_pruned_names, domain, problem,
                                   frozenset(g[0] for g in kept))
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
    return Task(
        facts,
        actions,
        init_mask,
        goal_mask,
        name=problem.name,
        pruned_actions=pruned,
        provably_unsolvable=unsolvable,
    )


def ground_files(domain_text: str, problem_text: str, prune: bool = True) -> Task:
    d = parse_domain(domain_text)
    p = parse_problem(problem_text, d)
    return ground(d, p, prune=prune)


# ---------------------------------------------------------------------------
# Emitting a grounded task back out as PDDL (sub-task hand-off format)
# ---------------------------------------------------------------------------

def mangle_action_name(name: str) -> str:
    """"(op a b)" -> "op_a_b", a parameterless-action identifier."""
    return name.strip("()").replace(" ", "_")


def grounded_domain_pddl(task: Task, domain_name: str = "subtask") -> str:
    preds: dict[str, int] = {}
    for f in task.facts:
        preds.setdefault(f.predicate, len(f.args))
    lines = [f"(define (domain {domain_name})", "  (:requirements :strips)", "  (:predicates"]
    for p, arity in sorted(preds.items()):
        args = " ".join(f"?x{i}" for i in range(arity))
        lines.append(f"    ({p}{' ' + args if args else ''})")
    lines.append("  )")
    for a in task.actions:
        lines.append(f"  (:action {mangle_action_name(a.name)}")
        lines.append("    :parameters ()")
        pre = " ".join(task.fact_names(a.pre))
        lines.append(f"    :precondition (and {pre})")
        effs = list(task.fact_names(a.add)) + [f"(not {n})" for n in task.fact_names(a.delete)]
        lines.append(f"    :effect (and {' '.join(effs)})")
        lines.append("  )")
    lines.append(")")
    return "\n".join(lines) + "\n"


def grounded_problem_pddl(task: Task, problem_name: str = "subtask-instance",
                          domain_name: str = "subtask") -> str:
    objects = sorted({arg for f in task.facts for arg in f.args})
    lines = [
        f"(define (problem {problem_name})",
        f"  (:domain {domain_name})",
        f"  (:objects {' '.join(objects)})" if objects else "  (:objects)",
        "  (:init",
    ]
    for n in task.fact_names(task.init):
        lines.append(f"    {n}")
    lines.append("  )")
    goal = " ".join(task.fact_names(task.goal))
    lines.append(f"  (:goal (and {goal}))")
    lines.append(")")
    return "\n".join(lines) + "\n"


def parse_plan_text(task: Task, text: str) -> list[int]:
    """Read a plan in the one-action-per-line hand-off format.

    Accepts both the "(op arg ...)" spelling and the mangled parameterless
    spelling "(op_arg_...)" that external planners echo back.
    """
    by_mangled = {mangle_action_name(a.name): a.id for a in task.actions}
    plan = []
    for raw in text.splitlines():
        line = raw.strip().lower()
        if not line or line.startswith(";"):
            continue
        body = line.strip("()").strip()
        if not body:
            continue
        if " " not in body and body in by_mangled:
            plan.append(by_mangled[body])
        else:
            plan.append(task.action_named("(" + " ".join(body.split()) + ")").id)
    return plan
