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
over sorted typed pools to pairwise-distinct objects.  A precondition on a
static predicate (one no schema adds, so its true atoms are exactly the
``:init`` ones) joins: an index of its relation, keyed by the objects
already bound, gives the candidates of its last variable.  The
delete-relaxed fixpoint then runs over the surviving bindings only, with
ground atoms interned as tuples: it is ``core.grow_layers``, the growth the
relaxed planning graph runs, over a consumer index of local atom bits.
The pruned actions are counted, never named: their number is the bindings
of every schema, worked out from the typed pools, less the kept actions.

Work that needs only the domain is done once per domain text.
``parse_domain`` keeps the parses of the last eight texts it read, keyed by
the exact text, and hands the one ``DomainAst`` to every caller of a text; a
text that fails is not kept, so it raises the same error on every call.  A
shared AST is read-only: its fields are tuples, ``predicates`` a read-only
mapping.  It carries its grounding plan, built on first grounding: the
static predicates and, per schema, the atom getters, the fluent
preconditions' getters, the constants to look up among the objects and the
order to bind parameters in.  ``ground`` reads the plan and derives only
the problem's share.

Work that needs only the domain and a problem's objects and static
``:init`` atoms is done once per object set.  The plan holds a memo of it
(``object_sets``), keyed by the typed objects, as a set, and the static
``:init`` atoms: the bindings that pass the static tests, their rows, the
fixpoint's inputs over local atom bits (the consumer index and add lists),
the atom table and the number of bindings with no static tests.  Within an
entry, keyed also by the relaxed-reachable atoms and the goal atoms outside
them (with any init or goal atom the table lacks, on a bit past it), are
the sorted facts, the kept actions, a task holding them and the count of
the pruned actions.  Per problem, ``ground`` checks the init and goal
constants, sets their bits, runs the relaxed fixpoint and derives a task of
its own from the kept one: it shares the facts, actions, indexes, relevance
cones and pruned count, and has its own init, goal, name and verdict, so
only what depends on the actions alone crosses problems; it holds neither
AST.  The memo holds at most ``_MEMO_ACTIONS`` actions (bindings plus kept
actions), dropping the least recently used object sets; it dies with its
domain.  A problem that fails keeps nothing, so it raises the same error on
every call.

The reader makes nested lists of plain strings: it cuts comments, splits
at blanks and parentheses, and lowercases each symbol.  No token keeps its
place.  When an error names one, the text is read again with one regular
expression into tokens that know their offsets, and parsed again to raise
the error with its line and column.  The parser refuses a repeated
section or action clause (only :requirements, :predicates, :action and
:domain may repeat), a second action of one name, a predicate declared
twice, an object declared twice and a parameter named twice, so every
binding of distinct objects names a distinct action.  It also refuses a
predicate or action parameter of a type that :types does not declare.
Atoms and schemas are named tuples.
"""

from __future__ import annotations

import functools
import itertools
import math
import operator
import re
from collections import Counter
from dataclasses import dataclass
from types import MappingProxyType
from typing import Iterator, Mapping, NamedTuple, Optional, Sequence

from .core import (BLANKS, Action, Fact, PlanningError, Task, consumer_masks, flags_of, format_atom,
                   grow_layers, split_blanks)


class ParseError(PlanningError):
    def __init__(self, message: str, line: int, column: int):
        super().__init__(f"{line}:{column}: {message}")
        self.line = line
        self.column = column


class GroundingError(PlanningError):
    pass


# ---------------------------------------------------------------------------
# S-expression reader
# ---------------------------------------------------------------------------

_COMMENT = re.compile(";[^\n]*")
_TOKEN = re.compile(f"[()]|;[^\n]*|[^{BLANKS}();]+")  # parens, comments, symbols


class _Placed(str):
    """A token that knows where it starts in its text.  The reader makes
    these only when it reads a text again to place an error."""

    def __new__(cls, text: str, source: str, offset: int):
        token = super().__new__(cls, text)
        token.source, token.offset = source, offset
        return token

    def position(self) -> tuple[int, int]:
        return _line_col(self.source, self.offset)


class _Unplaced(Exception):
    """An error named a token read without its place (see ``_parse``)."""


def _line_col(text: str, offset: int) -> tuple[int, int]:
    return text.count("\n", 0, offset) + 1, offset - text.rfind("\n", 0, offset)


def _end_position(text: str) -> tuple[int, int]:
    """Where the text ends; a comment on the last line does not count
    towards its column (the reader has always reported it so)."""
    last = text[text.rfind("\n") + 1:]
    comment = last.find(";")
    return text.count("\n") + 1, (comment if comment >= 0 else len(last)) + 1


def _tokens(text: str, placed: bool):
    """The parentheses and lowercased symbols of ``text``: plain strings
    split at blanks and parentheses once comments are cut, or, ``placed``,
    ``_Placed`` tokens found with ``_TOKEN``."""
    if placed:
        return [_Placed(m.group().lower(), text, m.start())
                for m in _TOKEN.finditer(text) if m.group()[0] != ";"]
    text = _COMMENT.sub("", text) if ";" in text else text
    text = text.replace("\t", " ").replace("\r", " ").replace("\n", " ")
    # lowered whole, as if token by token: only a capital sigma lowers by
    # its neighbours, and a blank or a parenthesis bounds them as a token's
    # end does
    return filter(None, text.replace("(", " ( ").replace(")", " ) ").lower().split(" "))


def _read_sexprs(text: str, placed: bool = False) -> list:
    """Parse into nested lists of symbols (see ``_tokens``); raises
    ParseError on bad nesting, or ``_Unplaced`` at an unbalanced ')' read
    without places."""
    stack: list[list] = [[]]
    top = stack[0]
    for tok in _tokens(text, placed):
        if tok == "(":
            top = []
            stack.append(top)
        elif tok == ")":
            if len(stack) == 1:
                raise _err(tok, "unbalanced ')'")
            done = stack.pop()
            top = stack[-1]
            top.append(done)
        else:
            top.append(tok)
    if len(stack) != 1:
        raise ParseError("unbalanced '('", *_end_position(text))
    return stack[0]


def _parse(parse, text: str, *args):
    """``parse`` run on the trees of ``text``.  An error that names a token
    reads the text again with places, so that the same error raises as a
    ParseError with its line and column."""
    try:
        return parse(_read_sexprs(text), *args)
    except _Unplaced:
        return parse(_read_sexprs(text, placed=True), *args)


def _head(expr) -> str:
    if isinstance(expr, list) and expr and isinstance(expr[0], str):
        return expr[0]
    return ""


def _err(expr, message: str) -> Exception:
    """The ParseError at ``expr``, a token or a list placed at its first
    token (line 0, column 0 if it has none); ``_Unplaced`` for a token read
    without its place."""
    while isinstance(expr, list) and expr:
        expr = expr[0]
    if isinstance(expr, list):
        return ParseError(message, 0, 0)
    if type(expr) is str:
        return _Unplaced()
    return ParseError(message, *expr.position())


def _typed_list(items: Sequence, what: str) -> list[tuple[str, Optional[str]]]:
    """Parse a PDDL typed list ``a b - t c d`` into (name, type-or-None) pairs.

    Entries must be uniformly typed or uniformly untyped.
    """
    out: list[tuple[str, Optional[str]]] = []
    pending: list[str] = []
    rest = iter(items)
    for it in rest:
        if isinstance(it, list):
            raise _err(it, f"unexpected list in {what}")
        if it == "-":
            if not pending:
                raise _err(it, f"dangling '-' in {what}")
            tname = next(rest, None)
            if tname is None or isinstance(tname, list):
                raise _err(it, f"missing type after '-' in {what}")
            out.extend((p, tname) for p in pending)
            pending = []
        else:
            pending.append(it)
    if pending and out:
        raise _err(items[0], f"mixed typed and untyped entries in {what}")
    out.extend((p, None) for p in pending)
    return out


# ---------------------------------------------------------------------------
# ASTs
# ---------------------------------------------------------------------------

class AtomAst(NamedTuple):
    predicate: str
    args: tuple[str, ...]  # "?x" variables or constant names


class SchemaAst(NamedTuple):
    name: str
    params: tuple[tuple[str, Optional[str]], ...]  # (?var, type-or-None)
    pre: tuple[AtomAst, ...]
    add: tuple[AtomAst, ...]
    delete: tuple[AtomAst, ...]


@dataclass(frozen=True)
class DomainAst:
    """A domain, read-only: ``parse_domain`` hands one out to every caller
    of its text."""

    name: str
    types: tuple[str, ...]
    predicates: Mapping[str, int]  # predicate -> arity, read-only
    schemas: tuple[SchemaAst, ...]

    def __post_init__(self):
        object.__setattr__(self, "predicates", MappingProxyType(dict(self.predicates)))

    @functools.cached_property
    def plan(self) -> _DomainPlan:
        """What ``ground`` derives from the domain alone, built on first
        read."""
        added = {a.predicate for s in self.schemas for a in s.add}
        static = frozenset(a.predicate for s in self.schemas for a in s.pre
                           if a.predicate not in added)
        return _DomainPlan(static, tuple(_schema_plan(s, static) for s in self.schemas),
                           _ObjectSets())


@dataclass(frozen=True)
class ProblemAst:
    name: str
    domain: str
    objects: tuple[tuple[str, Optional[str]], ...]
    init: tuple[AtomAst, ...]
    goal: tuple[AtomAst, ...]


_SUPPORTED_REQUIREMENTS = {":strips", ":typing"}
# sections and action clauses that may appear once
_ONCE = {":types", ":objects", ":init", ":goal", ":parameters", ":precondition", ":effect"}


def _distinct(entries, what: str, where: str = "") -> None:
    """Refuse a name that the (name, type) ``entries`` hold twice, at its
    second place."""
    seen: set[str] = set()
    for name, _ in entries:
        if name in seen:
            raise _err(name, f"{what} {name!r} declared twice{where}")
        seen.add(name)


def _known_types(entries, types: tuple[str, ...], expr, where: str) -> None:
    """Refuse, at ``expr``, a type of the (name, type) ``entries`` that
    ``types`` does not declare."""
    for _, t in entries:
        if t is not None and t not in types:
            raise _err(expr, f"unknown type {t!r} in {where}")


def _once(key: str, seen: set, expr, where: str) -> None:
    """Refuse ``key``, at ``expr``, if ``seen`` holds it; note it there if
    it may appear only once."""
    if key in seen:
        raise _err(expr, f"repeated {key} in {where}")
    if key in _ONCE:
        seen.add(key)


def _parse_atom(expr, predicates: dict[str, int], where: str) -> AtomAst:
    if not isinstance(expr, list) or not expr or isinstance(expr[0], list):
        raise _err(expr, f"expected an atom in {where}")
    name = expr[0]
    args = expr[1:]
    for a in args:
        if isinstance(a, list):
            raise _err(a, f"nested expression inside atom in {where}")
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


def _define(top: list, kind: str) -> tuple[str, list]:
    """The name and the sections of ``(define (KIND NAME) ...)``."""
    if len(top) != 1 or _head(top[0]) != "define":
        raise ParseError(f"expected a single (define ({kind} ...))", 1, 1)
    body = top[0][1:]
    if not (body and _head(body[0]) == kind and len(body[0]) == 2
            and isinstance(body[0][1], str)):
        raise _err(top[0], f"missing ({kind} NAME)")
    return body[0][1], body[1:]


# the most domain texts whose parses ``parse_domain`` keeps
_MEMO_TEXTS = 8
# the most grounded actions a domain's object-set memo holds: each object
# set's surviving bindings plus the kept actions of each of its reachable
# sets (see ``ground``)
_MEMO_ACTIONS = 4096


@functools.lru_cache(maxsize=_MEMO_TEXTS)
def parse_domain(text: str) -> DomainAst:
    """The domain ``text`` defines.  The parses of the last ``_MEMO_TEXTS``
    texts read are kept, keyed by the exact text, and handed out again; a
    text that fails is not kept.  ``parse_domain.cache_clear()`` empties
    the memo."""
    return _parse(_parse_domain, text)


def _parse_domain(top: list) -> DomainAst:
    name, sections = _define(top, "domain")
    types: tuple[str, ...] = ()
    predicates: dict[str, int] = {}
    schemas: list[SchemaAst] = []
    seen: set[str] = set()
    for section in sections:
        head = _head(section)
        _once(head, seen, section, "domain")
        if head == ":requirements":
            for req in section[1:]:
                if isinstance(req, list):
                    raise _err(req, "malformed requirement")
                if req not in _SUPPORTED_REQUIREMENTS:
                    raise _err(req, f"unknown requirement {req!r}")
        elif head == ":types":
            for t in section[1:]:
                if isinstance(t, list) or t == "-":
                    raise _err(t, "only a flat type list is supported")
            types = tuple(section[1:])
        elif head == ":predicates":
            for p in section[1:]:
                if not isinstance(p, list) or not p or isinstance(p[0], list):
                    raise _err(p, "malformed predicate declaration")
                params = _typed_list(p[1:], f"predicate {p[0]}")
                _known_types(params, types, p, f"predicate {p[0]}")
                if p[0] in predicates:
                    raise _err(p, f"predicate {p[0]!r} declared twice")
                predicates[p[0]] = len(params)
        elif head == ":action":
            schema = _parse_schema(section, predicates, types)
            if any(s.name == schema.name for s in schemas):
                raise _err(section[1], f"action {schema.name!r} declared twice")
            schemas.append(schema)
        elif head == "":
            raise _err(section, "malformed domain section")
        else:
            raise _err(section, f"unsupported domain section {head!r}")
    return DomainAst(name, types, predicates, tuple(schemas))


def _parse_schema(section, predicates, types) -> SchemaAst:
    if len(section) < 2 or isinstance(section[1], list):
        raise _err(section, "missing action name")
    name = section[1]
    params: tuple[tuple[str, Optional[str]], ...] = ()
    pre: tuple[AtomAst, ...] = ()
    add: tuple[AtomAst, ...] = ()
    delete: tuple[AtomAst, ...] = ()
    seen: set[str] = set()
    for i in range(2, len(section), 2):
        key = section[i]
        if isinstance(key, list) or i + 1 >= len(section):
            raise _err(key, f"malformed clause in action {name}")
        value = section[i + 1]
        _once(key, seen, key, f"action {name}")
        if key == ":parameters":
            if not isinstance(value, list):
                raise _err(value, f"parameters of action {name} must be a list")
            entries = _typed_list(value, f"action {name} parameters")
            _distinct(entries, "parameter", f" in action {name}")
            for v, _ in entries:
                if not v.startswith("?"):
                    raise _err(value, f"parameter {v!r} must start with '?'")
            _known_types(entries, types, value, f"action {name}")
            params = tuple(entries)
        elif key == ":precondition":
            pre = _parse_conjunction(value, predicates, f"action {name} precondition", False)[0]
        elif key == ":effect":
            add, delete = _parse_conjunction(value, predicates, f"action {name} effect", True)
        else:
            raise _err(key, f"unsupported clause {key!r} in action {name}")
    declared = {v for v, _ in params}
    for atom in (*pre, *add, *delete):
        for arg in atom.args:
            if arg.startswith("?") and arg not in declared:
                raise _err(section, f"unbound variable {arg!r} in action {name}")
    return SchemaAst(name, params, pre, add, delete)


def parse_problem(text: str, domain: DomainAst) -> ProblemAst:
    return _parse(_parse_problem, text, domain)


def _parse_problem(top: list, domain: DomainAst) -> ProblemAst:
    name, sections = _define(top, "problem")
    domain_name = ""
    objects: tuple[tuple[str, Optional[str]], ...] = ()
    init: list[AtomAst] = []
    goal: tuple[AtomAst, ...] = ()
    seen: set[str] = set()
    for section in sections:
        head = _head(section)
        _once(head, seen, section, "problem")
        if head == ":domain":
            if len(section) != 2 or isinstance(section[1], list):
                raise _err(section, "(:domain NAME) takes one name")
            domain_name = section[1]
            if domain_name != domain.name:
                raise _err(section, f"problem is for domain {domain_name!r}, not {domain.name!r}")
        elif head == ":objects":
            objects = tuple(_typed_list(section[1:], "objects"))
            _distinct(objects, "object")
            for _, t in objects:
                if t is not None and t not in domain.types:
                    raise _err(section, f"unknown object type {t!r}")
        elif head == ":init":
            init = [_parse_atom(a, domain.predicates, ":init") for a in section[1:]]
        elif head == ":goal":
            if len(section) != 2:
                raise _err(section, ":goal takes one formula")
            goal = _parse_conjunction(section[1], domain.predicates, ":goal", False)[0]
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


def _join_index(true: set, refs: tuple, new: int, pool: list[str]) -> dict[tuple, list[str]]:
    """Index a static relation for an atom binding slot ``new``: the values
    of the atom's other arguments map to the objects of ``pool``, in pool
    order, that complete a true atom at ``new``'s argument."""
    at = refs.index(new)
    rests: dict[str, list[tuple]] = {}
    for args in true:
        rests.setdefault(args[at], []).append(args[:at] + args[at + 1:])
    index: dict[tuple, list[str]] = {}
    for o in pool:
        for rest in rests.get(o, ()):
            index.setdefault(rest, []).append(o)
    return index


def _values_of(refs: tuple):
    """A function from a partial binding to the tuple of the values of
    ``refs``: the object at a slot, a constant as it is."""
    if all(type(r) is int for r in refs):
        if len(refs) > 1:
            return operator.itemgetter(*refs)
        if refs:
            return lambda combo, r=refs[0]: (combo[r],)
    return lambda combo: tuple(combo[r] if type(r) is int else r for r in refs)


def _join_order(n: int, refs_list: list[tuple]) -> list[int]:
    """The order to bind ``n`` parameter slots in, given the slot/constant
    refs of the static preconditions: next, the slot that an atom holding
    it once, with its other variables bound, keys on the most bound
    variables; when no atom keys a slot on a bound one, the lowest unbound
    slot.  Ties go to the lower slot, so a schema whose atoms key nothing
    on a bound variable keeps its order."""
    multi = [refs for refs in refs_list if sum(type(r) is int for r in refs) > 1]
    if not multi:
        return list(range(n))
    order: list[int] = []
    while len(order) < n:
        best = (0, -min(j for j in range(n) if j not in order))  # (bound variables, -slot)
        for refs in multi:
            free = [r for r in refs if type(r) is int and r not in order]
            if len(free) == 1 and refs.count(free[0]) == 1:
                best = max(best, (sum(type(r) is int for r in refs) - 1, -free[0]))
        order.append(-best[1])
    return order


def _num_bindings(schema: SchemaAst, by_type: dict[Optional[str], list[str]]) -> int:
    """The number of type-consistent bindings of ``schema`` with
    pairwise-distinct objects.  Objects are distinct, and a schema's
    parameters are all untyped (one pool) or all typed (disjoint pools), so
    it is a product of falling factorials over its types' pools."""
    return math.prod(math.perm(len(by_type.get(t, ())), k)
                     for t, k in Counter(t for _, t in schema.params).items())


def _bindings(schema: SchemaAst, by_type: dict[Optional[str], list[str]],
              plan: _SchemaPlan, true: dict[str, set]) -> Iterator[tuple[str, ...]]:
    """Type-consistent bindings with pairwise-distinct objects that pass
    the schema's static preconditions, as object tuples in parameter order,
    in lexicographic order.

    ``true`` maps each static predicate to the argument tuples of its
    ``:init`` atoms; the schema's preconditions on them are applied while
    parameters are bound (``_bind``), in the ``plan``'s order.  Bindings
    found out of parameter order are sorted.
    """
    pools = [by_type.get(t, []) for _, t in schema.params]
    if not all(pools):
        return iter(())
    atoms = [(true[predicate], refs) for predicate, refs in plan.statics]
    if plan.order is None:
        return _bind(pools, atoms)
    return iter(sorted(map(plan.unorder, _bind([pools[j] for j in plan.order], atoms))))


def _bind(pools: list[list[str]], atoms: list[tuple[set, tuple]]):
    """The pairwise-distinct picks from ``pools``, one object each, in
    lexicographic order of the pools, that satisfy ``atoms``: (true argument
    tuples, refs) pairs, a ref being a pool's position or a constant.

    Positions are bound one at a time, and an atom is applied as soon as its
    last position is bound.  One holding that position once is a join: the
    true atoms agreeing with the objects already bound give the position's
    candidates.  Of several joins on one position the one with the most
    bound arguments generates; the others, and atoms holding the position
    twice or no position at all, filter.
    """
    tests: list[list] = [[] for _ in range(len(pools) + 1)]  # by bound count
    for true, refs in atoms:
        depth = 1 + max((r for r in refs if type(r) is int), default=-1)
        tests[depth].append((true, refs))
    # per position: the join giving its candidates, as (index, key reader), or None
    joins: list[Optional[tuple]] = [None] * len(pools)
    for j, pool in enumerate(pools):
        here = tests[j + 1]
        joinable = [k for k, (_, refs) in enumerate(here) if refs.count(j) == 1]
        if joinable:
            true, refs = here.pop(max(joinable, key=lambda k: len(here[k][1])))
            at = refs.index(j)
            joins[j] = (_join_index(true, refs, j, pool), _values_of(refs[:at] + refs[at + 1:]))
    tests = [[(true, _values_of(refs)) for true, refs in here] for here in tests]

    def holds(combo):
        for true, read in tests[len(combo)]:
            if read(combo) not in true:
                return False
        return True

    def candidates(combo, j):
        if joins[j] is None:
            return pools[j]
        index, read = joins[j]
        return index.get(read(combo), ())

    # all but the last position breadth-first, the last one streamed
    partial = [()] if holds(()) else []
    for j in range(len(pools) - 1):
        partial = [c + (o,) for c in partial for o in candidates(c, j) if o not in c]
        if tests[j + 1]:
            partial = [c for c in partial if holds(c)]
    if not pools:
        yield from partial
        return
    last, checked = len(pools) - 1, bool(tests[-1])
    for c in partial:
        for o in candidates(c, last):
            if o not in c:
                combo = c + (o,)
                if not checked or holds(combo):
                    yield combo


def _check_constants(atoms: Sequence[AtomAst], objects: set[str]) -> None:
    for atom in atoms:
        for a in atom.args:
            if not a.startswith("?") and a not in objects:
                raise GroundingError(f"unknown constant {a!r} in {atom.predicate}")


class _SchemaPlan(NamedTuple):
    """What ``ground`` reads of one schema, derived from the domain alone.
    A row is a binding with the schema's constant and predicate names
    appended; a getter maps a row to a ground atom as a ``(predicate,
    *args)`` tuple."""

    names: tuple[str, ...]  # appended to a binding, making a row
    pre: tuple  # a getter per atom of each list
    add: tuple
    delete: tuple
    fluent: tuple  # the pre getters of atoms on fluent predicates
    constants: tuple[AtomAst, ...]  # the atoms holding a constant
    statics: tuple[tuple[str, tuple], ...]  # static pre atoms: predicate, refs in binding order
    order: Optional[tuple[int, ...]]  # slots in binding order (``_join_order``); None: as declared
    unorder: Optional[operator.itemgetter]  # a binding made in ``order`` to parameter order


class _DomainPlan(NamedTuple):
    static: frozenset[str]  # predicates of preconditions, added by no schema
    schemas: tuple[_SchemaPlan, ...]
    object_sets: _ObjectSets  # what ``ground`` keeps per object set


def _schema_plan(schema: SchemaAst, static: frozenset[str]) -> _SchemaPlan:
    # comprehensions, not generators, over arguments: this runs for every
    # domain read afresh
    slot = {v: i for i, (v, _) in enumerate(schema.params)}
    names: dict[str, int] = {}
    constants: list[AtomAst] = []

    def name_at(name: str) -> int:
        return len(slot) + names.setdefault(name, len(names))

    def getter(atom: AtomAst):
        if not atom.args:
            return lambda row, key=(atom.predicate,): key
        refs = [slot[a] if a.startswith("?") else name_at(a) for a in atom.args]
        if max(refs) >= len(slot):
            constants.append(atom)
        return operator.itemgetter(name_at(atom.predicate), *refs)

    # one getter per distinct atom: an atom is often both required and deleted
    parts = schema.pre, schema.add, schema.delete
    made = {atom: getter(atom) for atom in dict.fromkeys(schema.pre + schema.add + schema.delete)}
    pre, add, delete = (tuple(map(made.__getitem__, part)) for part in parts)
    statics = [(atom.predicate, tuple([slot[a] if a.startswith("?") else a for a in atom.args]))
               for atom in schema.pre if atom.predicate in static]
    order = unorder = None
    fluent = pre
    if statics:
        fluent = tuple([get for get, atom in zip(pre, schema.pre) if atom.predicate not in static])
        order = _join_order(len(slot), [refs for _, refs in statics])
        if order == list(range(len(slot))):
            order = None
        else:
            # slot order[k] is bound k-th
            at = {j: k for k, j in enumerate(order)}
            statics = [(p, tuple([at[r] if type(r) is int else r for r in refs]))
                       for p, refs in statics]
            order, unorder = tuple(order), operator.itemgetter(*[at[j] for j in range(len(slot))])
    return _SchemaPlan(tuple(names), pre, add, delete, fluent, tuple(constants), tuple(statics),
                       order, unorder)


class _AtomBits(dict):
    """Ground atoms, as ``(predicate, *args)`` tuples, to local bits
    assigned in the order the atoms are first looked up."""

    def __missing__(self, atom: tuple) -> int:
        self[atom] = bit = 1 << len(self)
        return bit


class _PrunedActions:
    """The number of actions ``ground`` pruned, which ``len`` reads: the
    bindings it enumerates with no static tests and does not keep."""

    __slots__ = ("count",)

    def __init__(self, count: int):
        self.count = count

    def __len__(self) -> int:
        return self.count


class _ObjectSet:
    """What ``ground`` derives from a problem's typed objects and static
    ``:init`` atoms: per binding that passes the static tests, its schema
    index and row; the last four inputs of ``core.grow_layers``: every
    binding, every atom, per atom the bindings with it as a precondition,
    and per binding its add list, over local bits, where static
    preconditions are left out (they hold in init, or the binding would
    not have passed); the local bit of each atom the bindings hold and of
    each static ``:init`` atom; the number of bindings with no static
    tests; and, per reachable set, what ``ground`` built for it."""

    __slots__ = ("rows", "growth", "atoms", "bindings", "reached", "size")

    def __init__(self, rows: list[tuple[int, tuple]], growth: tuple,
                 atoms: dict[tuple, int], bindings: int):
        self.rows, self.growth, self.atoms, self.bindings = rows, growth, atoms, bindings
        self.reached: dict[tuple, _Reached] = {}
        self.size = len(rows)  # plus the kept actions of each reachable set


class _Reached(NamedTuple):
    fact_bit: dict[tuple, int]  # each fact's atom to its bit
    task: Task  # the facts and kept actions, posed from nothing to nothing
    pruned: _PrunedActions  # the object set's bindings less the kept actions


class _ObjectSets(dict):
    """A domain's object-set keys to their ``_ObjectSet``s, least recently
    used first, whose sizes sum to at most ``_MEMO_ACTIONS``."""

    size = 0

    def keep(self, key: tuple, entry: _ObjectSet, grown: int) -> None:
        """Hold ``entry``, ``grown`` larger than when last held (all of its
        size if it is new), as the most recently used; then drop the least
        recently used entries while the sizes pass the bound.  An entry
        alone past the bound is not held."""
        self.pop(key, None)
        self.size += grown
        if entry.size > _MEMO_ACTIONS:
            self.size -= entry.size
            return
        self[key] = entry
        while self.size > _MEMO_ACTIONS:
            self.size -= self.pop(next(iter(self))).size

    def clear(self) -> None:
        super().clear()
        self.size = 0


def _object_set(domain: DomainAst, problem: ProblemAst, static: list[AtomAst]) -> _ObjectSet:
    """The ``_ObjectSet`` of ``problem``'s objects and its ``static``
    ``:init`` atoms."""
    plan = domain.plan
    by_type = _pools(problem)
    object_set = {o for o, _ in problem.objects}
    true: dict[str, set] = {p: set() for p in plan.static}
    for atom in static:
        true[atom.predicate].add(atom.args)
    atoms = _AtomBits()
    rows: list[tuple[int, tuple]] = []
    pres: list[int] = []
    adds: list[int] = []
    total = 0
    for s, (schema, sp) in enumerate(zip(domain.schemas, plan.schemas)):
        count = _num_bindings(schema, by_type)
        total += count
        try:
            _check_constants(sp.constants, object_set)
        except GroundingError:
            # raised whether or not a static test would reject the binding
            if count:
                raise
            continue
        names, fluent, add_get = sp.names, sp.fluent, sp.add
        for combo in _bindings(schema, by_type, sp, true):
            row = combo + names
            rows.append((s, row))
            pre = add = 0
            for get in fluent:
                pre |= atoms[get(row)]
            for get in add_get:
                add |= atoms[get(row)]
            pres.append(pre)
            adds.append(add)
    growth = ((1 << len(rows)) - 1, (1 << len(atoms)) - 1, consumer_masks(pres, len(atoms)),
              tuple(adds))
    for atom in static:  # a bit each, so that only odd atoms go past the table
        atoms[(atom.predicate, *atom.args)]
    return _ObjectSet(rows, growth, atoms, total)


def _reached(domain: DomainAst, entry: _ObjectSet, reached: int, kept: int, goal: int,
             extra: dict[tuple, int]) -> _Reached:
    """The facts and kept actions of ``entry`` when ``reached`` holds the
    relaxed-reachable local bits, ``kept`` the bindings that fire and
    ``goal`` the goal's bits; ``extra`` holds the problem's atoms past
    ``entry``'s, with their bits."""
    keep = reached | goal
    universe = [atom for atom, bit in itertools.chain(entry.atoms.items(), extra.items())
                if bit & keep]
    fact_bit: dict[tuple, int] = {}
    facts = []
    for fid, (_, atom) in enumerate(sorted(("(" + " ".join(a) + ")", a) for a in universe)):
        fact_bit[atom] = 1 << fid
        facts.append(Fact(fid, atom[0], atom[1:]))

    def mask(gets, row) -> int:
        m = 0
        for get in gets:
            m |= fact_bit.get(get(row), 0)  # 0: deletes of never-true facts are inert
        return m

    schemas, plans = domain.schemas, domain.plan.schemas
    actions = []
    for s, row in itertools.compress(entry.rows, flags_of(kept)):
        schema, sp = schemas[s], plans[s]
        combo = row[:len(schema.params)]
        actions.append(Action(len(actions), format_atom(schema.name, combo),
                              mask(sp.pre, row), mask(sp.add, row), mask(sp.delete, row)))
    return _Reached(fact_bit, Task(facts, actions, 0, 0),
                    _PrunedActions(entry.bindings - len(actions)))


def ground(domain: DomainAst, problem: ProblemAst) -> Task:
    """Instantiate schemas over the problem objects and build a Task.

    Actions unreachable in the delete-relaxed fixpoint are dropped and the
    fact universe is the relaxed-reachable facts plus init and goal.  A goal
    fact outside the fixpoint does not fail the grounding; the returned task
    is flagged provably unsolvable instead.

    Pruning starts while bindings are enumerated: a predicate no schema adds
    is static, its true atoms are exactly its ``:init`` atoms, so a binding
    failing a static precondition is never reached.  Such a precondition
    supplies its last variable's candidates from an index of its relation,
    or filters as soon as its variables are bound (``_bindings``).  Ground
    atoms are interned as ``(predicate, *args)`` tuples with local bits,
    and the fixpoint runs over the survivors' bitmasks; names are built
    only for the facts and actions the Task keeps.  The pruned actions,
    most of the bindings on untyped domains, are only counted:
    ``len(task.pruned_actions)``.  What depends on the domain alone is read
    from ``domain.plan``, built on the domain's first grounding.

    What depends on the object set (``_ObjectSet``) and, within it, on the
    reachable set (``_Reached``) is built once and kept in
    ``domain.plan.object_sets`` (see the module docstring); each problem
    gets a task of its own, derived from the kept one.
    """
    plan = domain.plan
    static = [a for a in problem.init if a.predicate in plan.static]
    key = frozenset(problem.objects), frozenset(static)
    entry = plan.object_sets.get(key)
    grown = 0
    if entry is None:
        entry = _object_set(domain, problem, static)
        grown = entry.size
    _check_constants((*problem.init, *problem.goal), {o for o, _ in problem.objects})
    init_atoms = [(a.predicate, *a.args) for a in problem.init]
    goal_atoms = [(a.predicate, *a.args) for a in problem.goal]

    table = entry.atoms
    extra: dict[tuple, int] = {}  # atoms past the table, to bits past its own

    def bit(atom: tuple) -> int:
        b = table.get(atom) or extra.get(atom)
        if b is None:
            b = extra[atom] = 1 << (len(table) + len(extra))
        return b

    init = goal = 0
    for atom in init_atoms:
        init |= bit(atom)
    for atom in goal_atoms:
        goal |= bit(atom)
    layers, fired = [init], []
    grow_layers(layers, fired, -1, *entry.growth)
    reached = layers[-1]
    unreached = goal & ~reached
    reach_key = reached, unreached, tuple(extra)
    found = entry.reached.get(reach_key)
    if found is None:
        kept = functools.reduce(operator.or_, fired, 0)
        found = entry.reached[reach_key] = _reached(domain, entry, reached, kept, goal, extra)
        entry.size += len(found.task.actions)
        grown += len(found.task.actions)
    plan.object_sets.keep(key, entry, grown)
    fact_bit = found.fact_bit
    return found.task.derive(
        sum(fact_bit[atom] for atom in set(init_atoms)),
        sum(fact_bit[atom] for atom in set(goal_atoms)),
        problem.name,
        pruned_actions=found.pruned,
        provably_unsolvable=unreached != 0,
    )


def ground_files(domain_text: str, problem_text: str) -> Task:
    d = parse_domain(domain_text)
    p = parse_problem(problem_text, d)
    return ground(d, p)


# ---------------------------------------------------------------------------
# Emitting a grounded task back out as PDDL (sub-task hand-off format)
# ---------------------------------------------------------------------------

def mangle_action_name(name: str) -> str:
    """"(op a b)" -> "op_a_b", a parameterless-action identifier."""
    return name.strip("()").replace(" ", "_")


_DOMAIN_NAME, _PROBLEM_NAME = "subtask", "subtask-instance"


def _mangled_ids(task: Task) -> dict[str, int]:
    """Each action's mangled name to its id.  Two actions whose names mangle
    to one (``(move x y_z)`` and ``(move x_y z)``) are refused: the
    hand-off could not tell them apart."""
    ids: dict[str, int] = {}
    for a in task.actions:
        mangled = mangle_action_name(a.name)
        other = ids.setdefault(mangled, a.id)
        if other != a.id:
            raise PlanningError(f"actions {task.actions[other].name} and {a.name} "
                                f"both mangle to {mangled!r}")
    return ids


def grounded_domain_pddl(task: Task) -> str:
    preds: dict[str, int] = {}
    for f in task.facts:
        preds.setdefault(f.predicate, len(f.args))
    lines = [f"(define (domain {_DOMAIN_NAME})", "  (:requirements :strips)", "  (:predicates"]
    for p, arity in sorted(preds.items()):
        args = " ".join(f"?x{i}" for i in range(arity))
        lines.append(f"    ({p}{' ' + args if args else ''})")
    lines.append("  )")
    for mangled, aid in _mangled_ids(task).items():
        a = task.actions[aid]
        lines.append(f"  (:action {mangled}")
        lines.append("    :parameters ()")
        pre = " ".join(task.fact_names(a.pre))
        lines.append(f"    :precondition (and {pre})")
        effs = list(task.fact_names(a.add)) + [f"(not {n})" for n in task.fact_names(a.delete)]
        lines.append(f"    :effect (and {' '.join(effs)})")
        lines.append("  )")
    lines.append(")")
    return "\n".join(lines) + "\n"


def grounded_problem_pddl(task: Task) -> str:
    objects = sorted({arg for f in task.facts for arg in f.args})
    lines = [
        f"(define (problem {_PROBLEM_NAME})",
        f"  (:domain {_DOMAIN_NAME})",
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
    by_mangled = _mangled_ids(task)
    plan = []
    # lines end at LF (CR is a blank): str.splitlines would also end one
    # at a \x0b that a symbol may hold
    for raw in text.split("\n"):
        line = raw.strip(BLANKS).lower()
        if not line or line.startswith(";"):
            continue
        parts = split_blanks(line.strip("()"))
        if not parts:
            continue
        if len(parts) == 1 and parts[0] in by_mangled:
            plan.append(by_mangled[parts[0]])
        else:
            plan.append(task.action_named(line).id)
    return plan
