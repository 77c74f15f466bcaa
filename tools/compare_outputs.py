#!/usr/bin/env python3
"""Compare two tailsim output roots file by file.

Run from the repository root:  python tools/compare_outputs.py A B [--rel TOL]

Both trees are walked and every file is compared. A ``manifest.json`` is
compared without its ``wall_clock_s`` and ``out_dir``, which differ between
any two runs; every other file must be byte-identical. A CSV or JSON file
that differs is compared cell by cell: a CSV cell is named by its row and
column, a JSON value by its key path. Each differing cell is printed with
both values and, when both are numbers, its relative change |b - a| / |a|.
Any other differing file, and a file found in only one root, is printed on
one line. A closing summary counts the identical files and gives, for
each field (CSV column or JSON key path) that changed, its largest relative
change. Exits 0 when every file is identical, 1 otherwise.

With ``--rel TOL`` a CSV or JSON file that differs only in numeric cells,
each by a relative change of at most TOL, passes too, and the summary
counts such files. Every other cell must still match exactly: strings
(among them the classification's category, rule and trace, and each
saturation's ``binding``), booleans, empty cells and missing keys.
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import re
import sys
from pathlib import Path

MANIFEST = "manifest.json"
# The manifest keys that differ between any two runs; not compared.
RUN_KEYS = ("wall_clock_s", "out_dir")


def _files(root: Path) -> set[Path]:
    return {p.relative_to(root) for p in root.rglob("*") if p.is_file()}


def _number(value):
    """value as a float when it is a number or a numeric CSV cell, else
    None."""
    if isinstance(value, bool):
        return None
    try:
        return float(value)
    except (TypeError, ValueError):
        return None


def _flatten(obj, where: str = ""):
    """(key path, value) of every leaf of a JSON value."""
    if isinstance(obj, dict):
        for k in sorted(obj):
            yield from _flatten(obj[k], f"{where}.{k}")
    elif isinstance(obj, list):
        for i, v in enumerate(obj):
            yield from _flatten(v, f"{where}[{i}]")
    else:
        yield where, obj


def _cells(path: Path) -> dict[str, object]:
    """Each cell of a CSV file, named "row <r> <column>", or each leaf of a
    JSON file, named by its key path (a manifest's RUN_KEYS left out)."""
    if path.suffix == ".json":
        obj = json.loads(path.read_text())
        if path.name == MANIFEST:
            obj = {k: v for k, v in obj.items() if k not in RUN_KEYS}
        return dict(_flatten(obj))
    with open(path, newline="") as f:
        rows = list(csv.reader(f))
    header = rows[0] if rows else []
    return {f"row {r} {header[c] if c < len(header) else c}": cell
            for r, row in enumerate(rows[1:], 1)
            for c, cell in enumerate(row)}


def _field(cell: str) -> str:
    """The field a cell belongs to: its CSV column or its JSON key path
    with the list positions left out."""
    return re.sub(r"^row \d+ ", "", re.sub(r"\[\d+\]", "[]", cell))


def relative_change(a, b) -> float | None:
    """|b - a| / |a| of two numbers (inf when a is zero or only one is
    NaN), None when either is not a number."""
    x, y = _number(a), _number(b)
    if x is None or y is None:
        return None
    if x == y or (math.isnan(x) and math.isnan(y)):
        return 0.0
    if math.isnan(x) or math.isnan(y) or x == 0.0:
        return math.inf
    return abs(y - x) / abs(x)


def compare(a_root: Path, b_root: Path, out=sys.stdout,
            tol: float | None = None) -> int:
    """Print the differences between two output roots; the number of
    files that are not byte-identical or not in both, less those that
    differ only in numeric cells within relative change tol when tol is
    given."""
    a_files, b_files = _files(a_root), _files(b_root)
    differing = 0
    identical = 0
    tolerated = 0
    largest: dict[tuple[str, str], float] = {}
    for rel in sorted(a_files ^ b_files):
        side = "A" if rel in a_files else "B"
        print(f"{rel}: only in {side}", file=out)
        differing += 1
    for rel in sorted(a_files & b_files):
        a, b = a_root / rel, b_root / rel
        if (_cells(a) == _cells(b) if rel.name == MANIFEST
                else a.read_bytes() == b.read_bytes()):
            identical += 1
            continue
        differing += 1
        if a.suffix not in (".csv", ".json"):
            print(f"{rel}: differs", file=out)
            continue
        ca, cb = _cells(a), _cells(b)
        within = tol is not None
        for cell in sorted(ca.keys() | cb.keys()):
            x, y = ca.get(cell, "<missing>"), cb.get(cell, "<missing>")
            if x == y:
                continue
            change = relative_change(x, y)
            within = within and change is not None and change <= tol
            note = "" if change is None else f" (rel {change:.3g})"
            print(f"{rel}: {cell}: {x!r} -> {y!r}{note}", file=out)
            if change is not None:
                key = (str(rel), _field(cell))
                largest[key] = max(largest.get(key, 0.0), change)
        tolerated += within
    print(f"{identical} of {len(a_files | b_files)} files identical "
          f"({MANIFEST} without {' and '.join(RUN_KEYS)}), "
          f"{differing} differ", file=out)
    if tol is not None:
        print(f"{tolerated} differ only in numbers within rel {tol:g}",
              file=out)
    for (rel, field), change in sorted(largest.items()):
        print(f"largest change: {rel} {field}: rel {change:.3g}", file=out)
    return differing - tolerated


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(
        prog="compare_outputs.py",
        description="Compare two tailsim output roots file by file.")
    parser.add_argument("a", type=Path)
    parser.add_argument("b", type=Path)
    parser.add_argument("--rel", type=float, metavar="TOL",
                        help="also pass files whose numeric cells differ "
                             "by at most this relative change")
    args = parser.parse_args(argv)
    return 1 if compare(args.a, args.b, tol=args.rel) else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
