#!/usr/bin/env python3
"""Time the engine in-process on a shipped spec's sweep points.

    python tools/engine_time.py CHECKOUT --spec NAME [--rounds N]

CHECKOUT is a source checkout. In a subprocess with the checkout's
``src`` on the import path, the open-loop spec NAME (a shipped spec of
that checkout) is swept on each topology: every load point's schedule and
client assignment are built as ``experiments.run_point`` builds them, and
only ``engine.simulate_open_loop`` is timed. Each round runs every
topology's points; per topology this prints the engine path (each path
with its point count, as in "constant_rate 11+event 1", when the points
ran on more than one), the median over the rounds of the engine seconds,
requests/s and events/s at that median, and a sha256 over every trace
array of every point (the request columns, both segment arrays and each
core's busy intervals). Equal digests from two checkouts show that their
engines gave the same bits.
"""

from __future__ import annotations

import argparse
import os
import subprocess
import sys
from pathlib import Path


def report(name: str, rounds: int) -> None:
    """Print one line per topology; runs with the checkout's tailsim."""
    import hashlib
    import statistics
    import time
    from collections import Counter
    from dataclasses import replace

    from tailsim.engine import simulate_open_loop
    from tailsim.experiments import (geometric_points, load_experiment_spec,
                                     point_seed, shipped_spec_path)
    from tailsim.loadgen import assign_clients, build_schedule
    from tailsim.model import OpenLoop, Topology

    spec = load_experiment_spec(shipped_spec_path(name))
    if not isinstance(spec.scenario.mode, OpenLoop):
        sys.exit(f"{name}: not an open-loop spec")
    config = spec.config
    jobs = []
    for i, q in enumerate(geometric_points(*spec.qps_range, spec.n_points)):
        seed = point_seed(config.seed, i)
        schedule = build_schedule(config.arrival, q, spec.scenario.duration,
                                  point_seed(seed, 1))
        jobs.append((q, schedule,
                     assign_clients(schedule, spec.scenario.n_clients),
                     point_seed(seed, 2)))
    topologies = (Topology.ONE_ST, Topology.TWO_ST, Topology.TWO_SMT)
    seconds = {t: [] for t in topologies}
    first = {}
    for _ in range(rounds):
        for topology in topologies:
            spent, requests, events, paths = 0.0, 0, 0, Counter()
            digest = hashlib.sha256()
            for q, schedule, assignment, seed in jobs:
                scenario = replace(spec.scenario, topology=topology,
                                   mode=OpenLoop(q))
                t0 = time.perf_counter()
                trace = simulate_open_loop(spec.profile, scenario,
                                           spec.limits, config.platform,
                                           schedule, assignment, seed)
                spent += time.perf_counter() - t0
                requests += len(trace)
                events += trace.meta.get("events", 0)
                paths[trace.meta["engine"]] += 1
                for column in (trace.client, trace.scheduled, trace.issue,
                               trace.service_start, trace.completion,
                               trace.timely, trace.latency,
                               trace.mem_segments, trace.disk_segments,
                               *trace.cpu_busy):
                    digest.update(column.tobytes())
            seconds[topology].append(spent)
            path = ("+".join(f"{p} {paths[p]}" for p in sorted(paths))
                    if len(paths) > 1 else next(iter(paths)))
            first.setdefault(topology, (path, requests, events,
                                        digest.hexdigest()))
    for topology in topologies:
        path, requests, events, digest = first[topology]
        s = statistics.median(seconds[topology])
        rate = f"{events / s:.0f} events/s" if events else "no events"
        print(f"{topology.name} {path}: {s:.4f} s, {requests} requests, "
              f"{requests / s:.0f} req/s, {events} events, {rate}, "
              f"sha256 {digest}", flush=True)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("checkout", type=Path)
    parser.add_argument("--spec", required=True)
    parser.add_argument("--rounds", type=int, default=3)
    args = parser.parse_args(argv)
    if args.rounds < 1:
        parser.error("--rounds: must be >= 1")
    src = args.checkout.resolve() / "src"
    if not (src / "tailsim").is_dir():
        parser.error(f"{args.checkout}: no src/tailsim")
    code = (f"import sys; sys.path.insert(1, {str(Path(__file__).parent)!r})"
            f"; import engine_time; engine_time.report({args.spec!r}, "
            f"{args.rounds})")
    env = dict(os.environ, PYTHONPATH=str(src))
    return subprocess.run([sys.executable, "-c", code], env=env,
                          cwd=args.checkout).returncode


if __name__ == "__main__":
    sys.exit(main())
