#!/usr/bin/env python3
"""Count the lines and the code lines of a checkout's library modules.

    python tools/code_lines.py CHECKOUT [--against PARENT]

For each ``src/tailsim/*.py`` of CHECKOUT this prints its total lines and
its code lines. A code line holds a token that is not a comment and not
part of a docstring, the first string statement of a module, class or
function; blank, comment and docstring lines are not code. A deleted
comment or docstring then shrinks the total but not the code count.

With ``--against PARENT`` each line gives both sides, PARENT first, and
the change from PARENT to CHECKOUT; a module on one side only counts 0
lines on the other. A last line gives the totals.
"""

from __future__ import annotations

import argparse
import ast
import io
import sys
import tokenize
from pathlib import Path

# Tokens that hold no code of their own: layout and comments.
_LAYOUT = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
           tokenize.DEDENT, tokenize.ENCODING, tokenize.ENDMARKER}


def docstring_spans(tree: ast.AST) -> list[tuple[tuple, tuple]]:
    """(start, end) positions, as (row, col), of every docstring."""
    spans = []
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef,
                             ast.AsyncFunctionDef)) and node.body:
            first = node.body[0]
            if (isinstance(first, ast.Expr)
                    and isinstance(first.value, ast.Constant)
                    and isinstance(first.value.value, str)):
                spans.append(((first.lineno, first.col_offset),
                              (first.end_lineno, first.end_col_offset)))
    return spans


def count(text: str) -> tuple[int, int]:
    """Total lines and code lines of a module's source text."""
    spans = docstring_spans(ast.parse(text))
    code: set[int] = set()
    for tok in tokenize.generate_tokens(io.StringIO(text).readline):
        if tok.type in _LAYOUT:
            continue
        if any(lo <= tok.start and tok.end <= hi for lo, hi in spans):
            continue
        code.update(range(tok.start[0], tok.end[0] + 1))
    return len(text.splitlines()), len(code)


def counts(checkout: Path) -> dict[str, tuple[int, int]]:
    """(lines, code lines) of each library module, by file name."""
    package = checkout / "src" / "tailsim"
    if not package.is_dir():
        raise SystemExit(f"error: {checkout}: no src/tailsim")
    return {path.name: count(path.read_text())
            for path in sorted(package.glob("*.py"))}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("checkout", type=Path)
    parser.add_argument("--against", type=Path, default=None,
                        metavar="PARENT")
    args = parser.parse_args(argv)
    change = counts(args.checkout)
    if args.against is None:
        rows = {**change, "total": tuple(map(sum, zip(*change.values())))}
        for name, (lines, code) in rows.items():
            print(f"{name}: lines {lines}, code {code}")
        return 0
    parent = counts(args.against)
    names = sorted(set(parent) | set(change))
    pairs = {name: (parent.get(name, (0, 0)), change.get(name, (0, 0)))
             for name in names}
    pairs["total"] = tuple(tuple(map(sum, zip(*side)))
                           for side in zip(*pairs.values()))
    for name, ((p_lines, p_code), (c_lines, c_code)) in pairs.items():
        print(f"{name}: lines {p_lines} -> {c_lines} "
              f"({c_lines - p_lines:+d}), code {p_code} -> {c_code} "
              f"({c_code - p_code:+d})")
    return 0


if __name__ == "__main__":
    sys.exit(main())
