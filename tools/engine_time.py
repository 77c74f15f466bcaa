#!/usr/bin/env python3
"""Time the engine in-process on a shipped spec's sweep points.

    python tools/engine_time.py CHECKOUT --spec NAME [--rounds N]
                                [--against PARENT] [--n-clients N]
                                [--rtt S]

CHECKOUT is a source checkout. In a subprocess with the checkout's
``src`` on the import path, the open-loop spec NAME (a shipped spec of
that checkout) is swept on each topology: every load point's schedule and
seeds are built as ``experiments.run_point`` builds them, and only
``engine.simulate_open_loop`` is timed. Each round runs every
topology's points; per topology this prints the engine path (each path
with its point count, as in "constant_rate 11+event 1", when the points
ran on more than one), the median over the rounds of the engine seconds
with the requests the one-worker constant-rate path walked one at a time
(``Trace.meta["walked"]``), requests/s and events/s at that median, and a
sha256 over every trace array of every point (the request columns, both
segment arrays and each core's busy intervals). Equal digests from two
checkouts show that their engines gave the same bits. ``--n-clients`` and
``--rtt`` replace the spec's client count and round trip at every point,
on both sides with ``--against``: with one client, or a round trip longer
than a few service times, a client's previous completion can set when
its next request starts.

With ``--against PARENT``, the subprocess also imports the checkout
PARENT's ``tailsim`` as a second package, and each side builds its own
spec and schedules. The two engines are timed point by point in one
process, alternating which runs first, so a drift of the host's speed
falls on both alike. Per topology this prints the path, both medians
with each side's walked requests, the change's time over the parent's in
each round, both event counts and whether the two sides' digests are
equal. Both checkouts must share ``simulate_open_loop``'s signature;
where it differs, compare the digests of two plain runs, each checkout
with its own tool.
"""

from __future__ import annotations

import argparse
import os
import subprocess
import sys
from pathlib import Path

TOPOLOGIES = ("ONE_ST", "TWO_ST", "TWO_SMT")


def load_package(src: Path, name: str):
    """Import the ``tailsim`` package under src as the package `name`."""
    import importlib.util

    init = src / "tailsim" / "__init__.py"
    spec = importlib.util.spec_from_file_location(
        name, init, submodule_search_locations=[str(init.parent)])
    module = importlib.util.module_from_spec(spec)
    sys.modules[name] = module
    spec.loader.exec_module(module)
    return module


def sweep(name: str, package: str = "tailsim", overrides=None):
    """(points, run) for the spec NAME with the package's engine:
    run(topology name, point) times simulate_open_loop on the point and
    returns (seconds, trace). overrides replaces fields of the spec's
    scenario (``n_clients``, ``rtt``) at every point."""
    import importlib
    import time
    from dataclasses import replace

    engine, experiments, loadgen, model = (
        importlib.import_module(f"{package}.{m}")
        for m in ("engine", "experiments", "loadgen", "model"))
    spec = experiments.load_experiment_spec(
        experiments.shipped_spec_path(name))
    if not isinstance(spec.scenario.mode, model.OpenLoop):
        sys.exit(f"{name}: not an open-loop spec")
    config = spec.config
    jobs = []
    for i, q in enumerate(experiments.geometric_points(*spec.qps_range,
                                                       spec.n_points)):
        seed = experiments.point_seed(config.seed, i)
        schedule = loadgen.build_schedule(config.arrival, q,
                                          spec.scenario.duration,
                                          experiments.point_seed(seed, 1))
        jobs.append((q, schedule, experiments.point_seed(seed, 2)))

    def run(topology: str, point: int):
        q, schedule, seed = jobs[point]
        scenario = replace(spec.scenario, topology=model.Topology[topology],
                           mode=model.OpenLoop(q), **(overrides or {}))
        t0 = time.perf_counter()
        trace = engine.simulate_open_loop(spec.profile, scenario,
                                          spec.limits, config.platform,
                                          schedule, seed)
        return time.perf_counter() - t0, trace

    return len(jobs), run


class Tally:
    """Requests, events, walked requests, engine paths and a sha256 over
    the traces of one topology's points."""

    def __init__(self) -> None:
        import hashlib
        from collections import Counter

        self.requests = self.events = self.walked = 0
        self.paths = Counter()
        self.digest = hashlib.sha256()

    def add(self, trace) -> None:
        self.requests += len(trace)
        self.events += trace.meta.get("events", 0)
        self.walked += trace.meta.get("walked", 0)
        self.paths[trace.meta["engine"]] += 1
        for column in (trace.client, trace.scheduled, trace.issue,
                       trace.service_start, trace.completion, trace.timely,
                       trace.latency, trace.mem_segments,
                       trace.disk_segments, *trace.cpu_busy):
            self.digest.update(column.tobytes())

    def path(self) -> str:
        paths = self.paths
        return ("+".join(f"{p} {paths[p]}" for p in sorted(paths))
                if len(paths) > 1 else next(iter(paths)))


def report(name: str, rounds: int, overrides=None) -> None:
    """Print one line per topology; runs with the checkout's tailsim."""
    import statistics

    points, run = sweep(name, overrides=overrides)
    seconds = {t: [] for t in TOPOLOGIES}
    tally = {t: Tally() for t in TOPOLOGIES}
    for r in range(rounds):
        for topology in TOPOLOGIES:
            spent = 0.0
            for i in range(points):
                s, trace = run(topology, i)
                spent += s
                if r == 0:
                    tally[topology].add(trace)
                del trace
            seconds[topology].append(spent)
    for topology in TOPOLOGIES:
        t = tally[topology]
        s = statistics.median(seconds[topology])
        rate = f"{t.events / s:.0f} events/s" if t.events else "no events"
        print(f"{topology} {t.path()}: {s:.4f} s ({t.walked} walked), "
              f"{t.requests} requests, "
              f"{t.requests / s:.0f} req/s, {t.events} events, {rate}, "
              f"sha256 {t.digest.hexdigest()}", flush=True)


def report_against(name: str, rounds: int, parent_src: str,
                   overrides=None) -> None:
    """Print one line per topology comparing the parent's engine (the
    package under parent_src) with the checkout's, point by point."""
    import statistics

    load_package(Path(parent_src), "parent_tailsim")
    sides = (sweep(name, "parent_tailsim", overrides),
             sweep(name, overrides=overrides))  # parent, change
    if sides[0][0] != sides[1][0]:
        sys.exit(f"{name}: the two checkouts sweep different points")
    points = sides[1][0]
    seconds = {t: ([], []) for t in TOPOLOGIES}
    tally = {t: (Tally(), Tally()) for t in TOPOLOGIES}
    for r in range(rounds):
        for topology in TOPOLOGIES:
            spent = [0.0, 0.0]
            for i in range(points):
                for side in ((0, 1) if (r + i) % 2 == 0 else (1, 0)):
                    s, trace = sides[side][1](topology, i)
                    spent[side] += s
                    if r == 0:
                        tally[topology][side].add(trace)
                    del trace
            for side in (0, 1):
                seconds[topology][side].append(spent[side])
    for topology in TOPOLOGIES:
        parent, change = tally[topology]
        sp, sc = seconds[topology]
        path = parent.path()
        if change.path() != path:
            path += f" -> {change.path()}"
        ratios = " ".join(f"{c / p:.3f}" for p, c in zip(sp, sc))
        same = parent.digest.digest() == change.digest.digest()
        print(f"{topology} {path}: parent {statistics.median(sp):.4f} s "
              f"({parent.walked} walked), "
              f"change {statistics.median(sc):.4f} s "
              f"({change.walked} walked), "
              f"change/parent per round {ratios}, "
              f"events {parent.events} -> {change.events}, "
              f"digests {'equal' if same else 'differ'}", flush=True)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("checkout", type=Path)
    parser.add_argument("--spec", required=True)
    parser.add_argument("--rounds", type=int, default=3)
    parser.add_argument("--against", type=Path, metavar="PARENT")
    parser.add_argument("--n-clients", type=int, metavar="N")
    parser.add_argument("--rtt", type=float, metavar="S")
    args = parser.parse_args(argv)
    if args.rounds < 1:
        parser.error("--rounds: must be >= 1")
    if args.n_clients is not None and args.n_clients < 1:
        parser.error("--n-clients: must be >= 1")
    if args.rtt is not None and not args.rtt >= 0.0:
        parser.error("--rtt: must be >= 0")
    overrides = {key: value for key, value in (("n_clients", args.n_clients),
                                               ("rtt", args.rtt))
                 if value is not None}
    src = args.checkout.resolve() / "src"
    if not (src / "tailsim").is_dir():
        parser.error(f"{args.checkout}: no src/tailsim")
    call = f"report({args.spec!r}, {args.rounds}, {overrides!r})"
    if args.against is not None:
        parent_src = args.against.resolve() / "src"
        if not (parent_src / "tailsim").is_dir():
            parser.error(f"--against {args.against}: no src/tailsim")
        call = (f"report_against({args.spec!r}, {args.rounds}, "
                f"{str(parent_src)!r}, {overrides!r})")
    code = (f"import sys; sys.path.insert(1, {str(Path(__file__).parent)!r})"
            f"; import engine_time; engine_time.{call}")
    env = dict(os.environ, PYTHONPATH=str(src))
    return subprocess.run([sys.executable, "-c", code], env=env,
                          cwd=args.checkout).returncode


if __name__ == "__main__":
    sys.exit(main())
