#!/usr/bin/env python3
"""Run the benchmark in two checkouts, in alternating pairs.

    python tools/bench_pairs.py PARENT CHANGE --workload W --pairs N
                                [--seed S] [--seconds S] [--trace 0|1]
                                --out FILE

PARENT and CHANGE are source checkouts. Each pair runs
``perfbench/run.py`` once in each, from the checkout's root; the even
pairs run PARENT first and the odd pairs CHANGE first, so a drift of the
host's speed falls on both sides alike. Each run's ``env`` line, its
``run i:`` lines (each command run's unscaled wall and CPU seconds and
host slowness) and its last line, the JSON result, are kept. The pairs
are added to FILE as one set (a set of the same workload, seed, seconds
and trace replaces an earlier one), so one file can hold a PR's sets for
every workload.
Each set records, under ``sources``, which code each side ran: the
checkout's commit (``git rev-parse HEAD``) when it has a ``.git``,
otherwise a sha256 over its ``src/`` files (see ``source_id``), since a
``git archive`` copy has no commit to name.

For each metric the summary prints each side's median and quartiles, the
pairs the change wins (lower or higher is better as ``BENCHMARK.json`` in
CHANGE says; "?" for a metric it does not list) and whether the medians
differ by more than the parent's interquartile range. Beside the scaled
``wall_s`` and ``cpu_s`` it prints the unscaled ``wall_s.raw`` and
``cpu_s.raw`` and the ``host_slowness`` they were divided by, each a
benchmark run's median over its command runs, so that a change which
moves the host-speed probe shows. Exits 1 when a run failed or reported
incorrect outputs, 0 otherwise.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import re
import statistics
import subprocess
import sys
from pathlib import Path

SIDES = ("parent", "change")
# A command run's line in perfbench/run.py's output.
RUN_LINE = re.compile(r"run \d+: wall (\S+) s, cpu (\S+) s, .*"
                      r"host slowness (\S+),")


def source_id(checkout: Path) -> str:
    """"commit <sha>" for a git checkout, else "src-sha256 <hex>": the
    sha256 of ``sha256sum``'s lines for the files under ``src/`` outside
    ``__pycache__``, sorted by path; in the checkout's root that is

        find src -type f -not -path '*/__pycache__/*' | LC_ALL=C sort \\
            | xargs sha256sum | sha256sum
    """
    if (checkout / ".git").exists():
        proc = subprocess.run(["git", "-C", str(checkout), "rev-parse",
                               "HEAD"], capture_output=True, text=True)
        if proc.returncode == 0:
            return "commit " + proc.stdout.strip()
    files = sorted(p.relative_to(checkout).as_posix()
                   for p in (checkout / "src").rglob("*")
                   if p.is_file() and "__pycache__" not in p.parts)
    lines = "".join(
        f"{hashlib.sha256((checkout / f).read_bytes()).hexdigest()}  {f}\n"
        for f in files)
    return "src-sha256 " + hashlib.sha256(lines.encode()).hexdigest()


def run_once(checkout: Path, args: argparse.Namespace) -> dict:
    """One benchmark run in checkout: its env line and JSON result, or the
    error that kept it from giving one."""
    cmd = [sys.executable, "perfbench/run.py", "--workload", args.workload,
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    if args.seed is not None:
        cmd += ["--seed", str(args.seed)]
    proc = subprocess.run(cmd, cwd=checkout, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    env = next((json.loads(l[4:]) for l in lines if l.startswith("env ")),
               None)
    runs = [l for l in lines if RUN_LINE.match(l)]
    try:
        result = json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError):
        result = None
    if proc.returncode != 0 or not isinstance(result, dict):
        tail = (proc.stderr.strip().splitlines() or ["no output"])[-1]
        return {"env": env, "runs": runs, "result": None,
                "error": f"exit {proc.returncode}: {tail}"}
    return {"env": env, "runs": runs, "result": result}


def brief(run: dict) -> str:
    if run["result"] is None:
        return run["error"]
    wall = run["result"]["metrics"].get("wall_s")
    return f"wall_s {wall['value']:.4g}" if wall else "done"


def directions(checkout: Path) -> dict[str, str]:
    """"lower" or "higher" per metric, from the checkout's BENCHMARK.json."""
    path = checkout / "BENCHMARK.json"
    if not path.is_file():
        return {}
    bench = json.loads(path.read_text())
    return {m["name"]: m["better"]
            for m in bench.get("end_to_end", []) + bench.get("per_layer", [])}


def quartiles(xs: list[float]) -> tuple[float, float, float]:
    if len(xs) == 1:
        return xs[0], xs[0], xs[0]
    q1, q2, q3 = statistics.quantiles(xs, n=4, method="inclusive")
    return q1, q2, q3


def figures(run: dict) -> dict[str, dict]:
    """A run's metrics, with the medians of its command runs' unscaled
    wall and CPU seconds and host slowness when it kept run lines."""
    out = dict(run["result"]["metrics"])
    rows = [RUN_LINE.match(l).groups() for l in run["runs"]]
    if rows:
        for name, unit, column in (("wall_s.raw", "s", 0),
                                   ("cpu_s.raw", "s", 1),
                                   ("host_slowness", "", 2)):
            out[name] = {"value": statistics.median(
                float(row[column]) for row in rows), "unit": unit}
    return out


def summarize(pairs: list[dict], better: dict[str, str]) -> list[str]:
    """One line per metric that every run of both sides reported."""
    if not pairs or any(p[s]["result"] is None for p in pairs
                        for s in SIDES):
        return []
    results = [{side: figures(p[side]) for side in SIDES} for p in pairs]
    names = set.intersection(*(set(r[s]) for r in results for s in SIDES))
    lines = []
    for name in sorted(names):
        value = {s: [r[s][name]["value"] for r in results] for s in SIDES}
        (a1, a2, a3), (b1, b2, b3) = (quartiles(value[s]) for s in SIDES)
        way = better.get(name.removesuffix(".raw"))
        if way is None:
            wins = "?"
        else:
            wins = sum((b < a) if way == "lower" else (b > a)
                       for a, b in zip(value["parent"], value["change"]))
        gap = "yes" if abs(b2 - a2) > a3 - a1 else "no"
        unit = results[0]["change"][name].get("unit", "")
        lines.append(
            f"{name} [{unit}]: parent {a2:.6g} [{a1:.6g}, {a3:.6g}], change "
            f"{b2:.6g} [{b1:.6g}, {b3:.6g}], change wins {wins}/"
            f"{len(results)}, |median gap| > parent IQR: {gap}")
    return lines


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("parent", type=Path)
    parser.add_argument("change", type=Path)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--pairs", type=int, required=True)
    parser.add_argument("--seed", type=int, default=None)
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", type=Path, required=True)
    args = parser.parse_args(argv)
    if args.pairs < 1:
        parser.error("--pairs: must be >= 1")
    for checkout in (args.parent, args.change):
        if not (checkout / "perfbench" / "run.py").is_file():
            parser.error(f"{checkout}: no perfbench/run.py")

    checkouts = {"parent": args.parent, "change": args.change}
    sources = {side: source_id(checkouts[side]) for side in SIDES}
    pairs = []
    for i in range(args.pairs):
        first = SIDES[i % 2]
        pair = {"first": first}
        for side in (first, SIDES[1 - i % 2]):
            pair[side] = run_once(checkouts[side], args)
        pairs.append(pair)
        print(f"pair {i}: " + ", ".join(f"{s} {brief(pair[s])}"
                                        for s in SIDES), flush=True)

    key = {"workload": args.workload, "seed": args.seed,
           "seconds": args.seconds, "trace": args.trace}
    sets = (json.loads(args.out.read_text())["sets"]
            if args.out.is_file() else [])
    sets = [s for s in sets if {k: s[k] for k in key} != key]
    sets.append({**key, "sources": sources, "pairs": pairs})
    args.out.write_text(json.dumps({"sets": sets}, indent=1) + "\n")

    for line in summarize(pairs, directions(args.change)):
        print(line)
    bad = sum(1 for p in pairs for s in SIDES
              if p[s]["result"] is None or not p[s]["result"]["correct"]
              or p[s]["result"]["failed"])
    print(f"runs failed or incorrect: {bad} of {2 * len(pairs)}")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
