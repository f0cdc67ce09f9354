"""Count the code lines of each module of lmplan: lines that are neither
blank, nor only a comment, nor part of a docstring.

    python3 tools/code_lines.py [ROOT]

ROOT is a checkout root (default: this checkout).  Prints one line per
module of ROOT/src/lmplan, in name order, then the total.  A docstring is
the first statement of a module, class or function when that statement is
an expression holding a string, found with ``ast``; a line that holds other
code besides a docstring or a comment still counts.
"""

from __future__ import annotations

import argparse
import ast
import io
import sys
import tokenize
from pathlib import Path

# tokens that hold no code: a line made only of these does not count
_NOT_CODE = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
             tokenize.DEDENT, tokenize.ENCODING, tokenize.ENDMARKER}


def docstring_spans(tree: ast.AST) -> list[tuple[tuple[int, int], tuple[int, int]]]:
    """(start, end) (line, column) positions of every docstring in ``tree``."""
    spans = []
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef,
                             ast.AsyncFunctionDef)) and node.body:
            first = node.body[0]
            if isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant) \
                    and isinstance(first.value.value, str):
                spans.append(((first.lineno, first.col_offset),
                              (first.end_lineno, first.end_col_offset)))
    return spans


def code_lines(source: str) -> int:
    """The number of code lines of the Python ``source``."""
    spans = docstring_spans(ast.parse(source))
    rows = set()
    for tok in tokenize.generate_tokens(io.StringIO(source).readline):
        if tok.type in _NOT_CODE or any(start <= tok.start < end for start, end in spans):
            continue
        rows.update(range(tok.start[0], tok.end[0] + 1))
    return len(rows)


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("root", nargs="?", type=Path, default=Path(__file__).resolve().parents[1])
    args = parser.parse_args(argv)
    modules = sorted((args.root / "src" / "lmplan").glob("*.py"))
    if not modules:
        parser.error(f"no modules under {args.root / 'src' / 'lmplan'}")
    total = 0
    for path in modules:
        count = code_lines(path.read_text(encoding="utf-8"))
        total += count
        print(f"{path.name} {count}")
    print(f"total {total}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
