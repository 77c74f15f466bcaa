"""Checks on the files a tailsim command writes.

At a workload's shipped seed the outputs are compared with the results
stored under ``reference/<workload>/``: numbers to a tight relative
tolerance, everything else (strings, booleans, classification, ``binding``)
exactly. Byte identity is reported on its own. ``manifest.json`` is never
compared, since it carries ``wall_clock_s`` and ``out_dir``.

At any other seed only what holds for every seed is checked: the file set,
the point count, the expected category or constraint labels, and that p95
is a number on every point that is not saturated.
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
from pathlib import Path

# Loose enough for sums taken in another order (differences near 1e-13 s on
# millisecond latencies), tight enough that any change to the model shows.
REL_TOL = 1e-8
ABS_TOL = 1e-12


def _num(cell: str) -> float | None:
    try:
        return float(cell)
    except ValueError:
        return None


def _close(a: float, b: float) -> bool:
    if math.isnan(a) or math.isnan(b):
        return math.isnan(a) and math.isnan(b)
    return math.isclose(a, b, rel_tol=REL_TOL, abs_tol=ABS_TOL)


def _read_csv(path: Path) -> list[list[str]]:
    with open(path, newline="") as f:
        return list(csv.reader(f))


def compare_csv(ref: Path, out: Path) -> list[str]:
    a, b = _read_csv(ref), _read_csv(out)
    if len(a) != len(b):
        return [f"{out.name}: {len(b)} rows, reference has {len(a)}"]
    diffs = []
    for r, (ra, rb) in enumerate(zip(a, b)):
        if len(ra) != len(rb):
            diffs.append(f"{out.name} row {r}: {len(rb)} cells, "
                         f"reference has {len(ra)}")
            continue
        for c, (x, y) in enumerate(zip(ra, rb)):
            nx, ny = _num(x), _num(y)
            same = (x == y if nx is None or ny is None or r == 0
                    else _close(nx, ny))
            if not same:
                diffs.append(f"{out.name} row {r} col {c}: {y!r}, "
                             f"reference {x!r}")
    return diffs


def compare_json(ref, out, where: str = "") -> list[str]:
    if isinstance(ref, dict) and isinstance(out, dict):
        if ref.keys() != out.keys():
            return [f"{where}: keys {sorted(out)}, reference {sorted(ref)}"]
        return [d for k in ref for d in compare_json(ref[k], out[k],
                                                     f"{where}.{k}")]
    if isinstance(ref, list) and isinstance(out, list):
        if len(ref) != len(out):
            return [f"{where}: {len(out)} items, reference {len(ref)}"]
        return [d for i, (x, y) in enumerate(zip(ref, out))
                for d in compare_json(x, y, f"{where}[{i}]")]
    numeric = (isinstance(ref, (int, float)) and isinstance(out, (int, float))
               and not isinstance(ref, bool) and not isinstance(out, bool))
    if numeric and _close(float(ref), float(out)):
        return []
    if not numeric and type(ref) is type(out) and ref == out:
        return []
    return [f"{where}: {out!r}, reference {ref!r}"]


def compare_to_reference(ref_dir: Path, out_dir: Path) -> tuple[list[str], bool]:
    """Differences beyond tolerance, and whether every file is byte-identical."""
    diffs: list[str] = []
    identical = True
    for ref in sorted(ref_dir.iterdir()):
        out = out_dir / ref.name
        if not out.is_file():
            diffs.append(f"{ref.name}: missing")
            identical = False
            continue
        identical &= ref.read_bytes() == out.read_bytes()
        if ref.suffix == ".csv":
            diffs += compare_csv(ref, out)
        else:
            diffs += compare_json(json.loads(ref.read_text()),
                                  json.loads(out.read_text()), ref.name)
    return diffs, identical


def check_invariants(ref_dir: Path, out_dir: Path, n_points: int,
                     category: str | None,
                     labels: tuple[str, ...] | None) -> list[str]:
    """Properties that hold at every seed."""
    problems = []
    for ref in sorted(ref_dir.iterdir()):
        out = out_dir / ref.name
        if not out.is_file():
            problems.append(f"{ref.name}: missing")
            continue
        if ref.suffix != ".csv":
            continue
        rows = _read_csv(out)
        if not rows or rows[0] != _read_csv(ref)[0]:
            problems.append(f"{out.name}: header {rows[:1]}")
            continue
        if len(rows) - 1 != n_points:
            problems.append(f"{out.name}: {len(rows) - 1} points, "
                            f"expected {n_points}")
        col = {name: i for i, name in enumerate(rows[0])}
        for r, row in enumerate(rows[1:], 1):
            p95 = _num(row[col["p95"]])
            if row[col["saturated"]] == "0" and (p95 is None
                                                  or math.isnan(p95)):
                problems.append(f"{out.name} row {r}: p95 {row[col['p95']]!r}"
                                " on an unsaturated point")
    if category is not None and (out_dir / "features.json").is_file():
        got = json.loads((out_dir / "features.json").read_text())["category"]
        if got != category:
            problems.append(f"features.json: category {got!r}, "
                            f"expected {category!r}")
    if labels is not None and (out_dir / "summary.json").is_file():
        summary = json.loads((out_dir / "summary.json").read_text())
        got = tuple(e["label"] for e in summary["entries"])
        if got != labels:
            problems.append(f"summary.json: entries {got}, expected {labels}")
    return problems


def digests(out_dir: Path) -> dict[str, str]:
    """sha256 of every output file except the manifest."""
    return {p.name: hashlib.sha256(p.read_bytes()).hexdigest()
            for p in sorted(out_dir.iterdir())
            if p.is_file() and p.name != "manifest.json"}


def combined_digest(file_digests: dict[str, str]) -> str:
    h = hashlib.sha256()
    for name, d in sorted(file_digests.items()):
        h.update(f"{name} {d}\n".encode())
    return h.hexdigest()
