#!/usr/bin/env python3
"""Time the benchmark's set-up process and each command's teardown.

    python tools/exit_time.py CHECKOUT [--against PARENT] [--rounds N]

CHECKOUT is a source checkout. For each workload of
``perfbench/run.py`` (this tool's own copy), with the checkout's ``src``
on the import path, from the checkout's root and on the CPUs the
benchmark pins the workload to, this runs

- the benchmark's set-up process (``perfbench/run.py``'s
  ``setup_argv``: start the interpreter, import tailsim, load the spec)
  and times it from spawn to exit, as ``setup_s`` is timed;
- the workload's command at the spec's seed, through ``tailsim.cli.main``
  as ``python -m tailsim`` calls it, and times its teardown: from the
  moment ``main`` returns to the process's exit as this tool sees it,
  both read on the system-wide monotonic clock.

Each round runs every workload once; one untimed set-up process first
fills the bytecode cache, as the benchmark's does. It prints one line per
workload with the medians in ms over the rounds. With ``--against
PARENT``, each round runs both checkouts, the parent first in even rounds
and the change first in odd ones, so a drift of the host's speed falls on
both alike, and each line gives both medians. The traced benchmark run's
``trace.outside_s`` cannot tell these apart: it adds interpreter start,
import and exit, from one run. Exits 1 when a process failed.
"""

from __future__ import annotations

import argparse
import importlib.util
import os
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent.parent / "perfbench"
# The command's process: main's return is stamped as the last stdout line.
COMMAND = """\
import sys, time
from tailsim.cli import main
code = main({argv!r})
print(time.monotonic())
sys.exit(code)
"""


def benchmark():
    """perfbench/run.py as a module, for its workloads and set-up argv."""
    sys.path.insert(0, str(BENCH))  # for the modules run.py imports
    spec = importlib.util.spec_from_file_location("perfbench_run",
                                                  BENCH / "run.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses look their module up
    spec.loader.exec_module(module)
    return module


def spawn(argv: list[str], checkout: Path, cpus: list[int]):
    """Run argv from the checkout's root on the given CPUs; the monotonic
    times of the spawn and of the exit, and the standard output."""
    t0 = time.monotonic()
    proc = subprocess.Popen(
        argv, cwd=checkout, env=dict(os.environ,
                                     PYTHONPATH=str(checkout / "src")),
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
        preexec_fn=lambda: os.sched_setaffinity(0, cpus))
    out, err = proc.communicate()
    t1 = time.monotonic()
    if proc.returncode != 0:
        tail = (err.strip().splitlines() or ["no output"])[-1]
        raise RuntimeError(f"{checkout}: exit {proc.returncode}: {tail}")
    return t0, t1, out


def measure(bench, checkout: Path, w, cpus: list[int],
            tmp: Path) -> tuple[float, float]:
    """(set-up, teardown) seconds of one run of workload w."""
    t0, t1, _ = spawn(bench.setup_argv(bench.SPECS / w.spec), checkout,
                      cpus)
    argv = ["--out", str(tmp), "--parallelism", str(w.parallelism),
            w.command, str(bench.SPECS / w.spec)]
    _, end, out = spawn([sys.executable, "-c", COMMAND.format(argv=argv)],
                        checkout, cpus)
    return t1 - t0, end - float(out.splitlines()[-1])


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("checkout", type=Path)
    parser.add_argument("--against", type=Path, metavar="PARENT")
    parser.add_argument("--rounds", type=int, default=7)
    args = parser.parse_args(argv)
    if args.rounds < 1:
        parser.error("--rounds: must be >= 1")
    sides = {"change": args.checkout.resolve()}
    if args.against is not None:
        sides = {"parent": args.against.resolve(), **sides}
    for checkout in sides.values():
        if not (checkout / "src" / "tailsim").is_dir():
            parser.error(f"{checkout}: no src/tailsim")

    bench = benchmark()
    available = sorted(os.sched_getaffinity(0))
    names = list(sides)
    runs = {(name, side): [] for name in bench.WORKLOADS for side in names}
    try:
        with tempfile.TemporaryDirectory() as tmp:
            first = next(iter(bench.WORKLOADS.values()))
            for checkout in sides.values():
                spawn(bench.setup_argv(bench.SPECS / first.spec), checkout,
                      available[:1])
            for r in range(args.rounds):
                for name, w in bench.WORKLOADS.items():
                    for side in names[::-1] if r % 2 else names:
                        runs[name, side].append(measure(
                            bench, sides[side], w,
                            available[:w.parallelism],
                            Path(tmp) / f"{side}-{name}-{r}"))
    except RuntimeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    def ms(name: str, part: int) -> str:
        medians = {side: 1e3 * statistics.median(r[part]
                                                for r in runs[name, side])
                   for side in names}
        if len(names) == 1:
            return f"{medians['change']:.1f} ms"
        return ", ".join(f"{side} {m:.1f} ms" for side, m in medians.items())

    for name in bench.WORKLOADS:
        print(f"{name}: set-up {ms(name, 0)}; teardown {ms(name, 1)}",
              flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
