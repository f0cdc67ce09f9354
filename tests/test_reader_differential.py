"""Differential tests for the PDDL reader.

The reference below is a per-character tokenizer whose symbols carry their
line and column.  ``lmplan.pddl`` reads plain strings, and reads a text
again into tokens that know their offsets only when an error names one.
The reference's trees must equal both: its texts the plain read's, its
lines and columns the placed read's.  The parser over either reader must
give the same ASTs and the same ``ParseError`` text, line and column
included.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings

from lmplan import pddl
from lmplan.bench import DOMAIN_TEXTS, gen_blocksworld, gen_logistics
from lmplan.instances import (
    BLOCKSWORLD_ARM_DOMAIN,
    BLOCKSWORLD_DEMO_PROBLEM,
    LOGISTICS_DOMAIN,
    LOGISTICS_TWO_PLANES_PROBLEM,
    ROADMAP_DOMAIN,
    ROADMAP_PROBLEM,
)
from lmplan.pddl import ParseError
from test_pddl import mutated_pairs


# ---------------------------------------------------------------------------
# Reference
# ---------------------------------------------------------------------------

class Symbol(str):
    """A symbol's lowercased text, with its line and column."""

    def __new__(cls, text: str, line: int, column: int):
        symbol = super().__new__(cls, text)
        symbol.line, symbol.column = line, column
        return symbol

    def position(self) -> tuple[int, int]:  # what the parser asks a placed token
        return self.line, self.column


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


# ---------------------------------------------------------------------------
# Differential tests
# ---------------------------------------------------------------------------

def tree(read, text):
    """The nested (text, line, column) tree ``read`` makes of ``text``, or
    the ParseError text it raised."""
    def walk(x):
        return [walk(y) for y in x] if isinstance(x, list) else (str(x), *x.position())
    try:
        return walk(read(text))
    except ParseError as e:
        return str(e)


def placed_read(text):
    """``lmplan.pddl``'s placed read of ``text``, once its plain read is
    checked against it: the same texts, as plain strings, or the same
    failure (at an unbalanced ')' the plain read asks for the placed one)."""
    try:
        placed = pddl._read_sexprs(text, placed=True)
    except ParseError as e:
        with pytest.raises((pddl._Unplaced, ParseError)) as plain:
            pddl._read_sexprs(text)
        assert plain.type is pddl._Unplaced or str(plain.value) == str(e)
        raise
    plain = pddl._read_sexprs(text)
    assert plain == placed  # lists compare their tokens as strings
    assert all(type(x) is str for x in leaves(plain))
    return placed


def leaves(x):
    if isinstance(x, list):
        for y in x:
            yield from leaves(y)
    else:
        yield x


def parsed(domain_text, problem_text):
    """The domain and problem ASTs, or the ParseError text of each; the
    problem is read against the built-in domain when the domain fails."""
    try:
        domain = pddl.parse_domain(domain_text)
        out = [domain]
    except ParseError as e:
        domain = pddl.parse_domain(BLOCKSWORLD_ARM_DOMAIN)
        out = [str(e)]
    try:
        out.append(pddl.parse_problem(problem_text, domain))
    except ParseError as e:
        out.append(str(e))
    return out


def parsed_by_reference(domain_text, problem_text):
    """``parsed`` with the reference reader, whose symbols all know their
    place, so no error makes the parser read a text again.  The domain
    memo is emptied before, so that the reference reader reads every text
    rather than the memo handing back ``parsed``'s domain, and after, so
    that its trees are not handed out later."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(pddl, "_read_sexprs", _read_sexprs)
        pddl.parse_domain.cache_clear()
        try:
            return parsed(domain_text, problem_text)
        finally:
            pddl.parse_domain.cache_clear()


TEXTS = [
    *DOMAIN_TEXTS.values(), BLOCKSWORLD_DEMO_PROBLEM, ROADMAP_DOMAIN, ROADMAP_PROBLEM,
    LOGISTICS_TWO_PLANES_PROBLEM, gen_blocksworld(5, "arm", 1), gen_logistics(2, 3, 2, 4, seed=1),
    # positions around comments, tabs, carriage returns and case folding
    "(a ; open\n", "(a\n  (b) ; no newline at the end", "\t(x\r\n y)) ; c\n", "(x\r\n y\rz\t(w))", ")",
    "; only a comment", "", "(A İx ΑΣ (Σ)\x0bb)", "(p ;(\n q;)\n)", "((a) (b)\n\n(",
    # a capital sigma lowers by its neighbours, which a token's end cuts off
    "(ΑΣ ΣΑ\taΣ(Σa)Σ'\nΑΣ;Α\n'Σ)",
]


@pytest.mark.parametrize("text", TEXTS)
def test_reader_matches_reference(text):
    assert tree(placed_read, text) == tree(_read_sexprs, text)


BUILT_IN_PAIRS = [
    (BLOCKSWORLD_ARM_DOMAIN, BLOCKSWORLD_DEMO_PROBLEM),
    (ROADMAP_DOMAIN, ROADMAP_PROBLEM),
    (LOGISTICS_DOMAIN, LOGISTICS_TWO_PLANES_PROBLEM),
    (LOGISTICS_DOMAIN, gen_logistics(3, 3, 1, 6, seed=1)),
]


@pytest.mark.parametrize("texts", BUILT_IN_PAIRS)
def test_parser_matches_reference_reader_on_built_in_texts(texts):
    assert parsed(*texts) == parsed_by_reference(*texts)


@settings(max_examples=400)
@given(mutated_pairs())
def test_parser_matches_reference_reader_on_mutated_texts(texts):
    assert [tree(placed_read, t) for t in texts] == [tree(_read_sexprs, t) for t in texts]
    assert parsed(*texts) == parsed_by_reference(*texts)
