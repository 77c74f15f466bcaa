"""Host-speed probe: how fast one CPU runs a fixed piece of Python work.

On a shared host the speed of a CPU drifts by tens of percent over seconds
to minutes, and every program on that CPU slows together. The probe runs
on the CPU the measured command is pinned to, at the lowest priority, so it
takes about 1-2% of that CPU. It times each chunk of work in its own CPU
time, which only counts while it runs, and so reads the speed the command
is getting at that moment. The driver divides the command's times by
the probe's slowness over the same interval (``Probes.factor``).

    python3 perfbench/hostspeed.py CPU OUT_JSON

runs until SIGTERM and then writes ``[[end, cpu_seconds], ...]`` with
``perf_counter`` end times.
"""

from __future__ import annotations

import json
import os
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

CHUNK = 10_000  # loop iterations per sample
MIN_SAMPLES = 5  # fewest samples a slowness figure rests on
# CPU seconds of one chunk on the host the figures are scaled to.
REFERENCE_CHUNK_S = 7.0e-4


def _chunk() -> None:
    s = 0
    for i in range(CHUNK):
        s += i * i


def probe(cpu: int, out_path: str) -> None:
    os.sched_setaffinity(0, {cpu})
    os.nice(19)
    stop = False

    def on_term(signum, frame):
        nonlocal stop
        stop = True

    signal.signal(signal.SIGTERM, on_term)
    print("ready", flush=True)
    samples = []
    while not stop:
        c0 = time.thread_time()
        _chunk()
        samples.append((time.perf_counter(), time.thread_time() - c0))
    with open(out_path, "w") as f:
        json.dump(samples, f)


class Probes:
    """One probe process per CPU for the life of a ``with`` block."""

    def __init__(self, cpus: list[int], tmp: Path) -> None:
        self.files = [tmp / f"hostspeed-{c}.json" for c in cpus]
        self.cpus = cpus
        self.samples: list[tuple[float, float]] = []

    def __enter__(self) -> "Probes":
        self.procs = [subprocess.Popen([sys.executable, __file__, str(c),
                                        str(f)], stdout=subprocess.PIPE)
                      for c, f in zip(self.cpus, self.files)]
        for p in self.procs:  # started and at the lowest priority
            p.stdout.readline()
            p.stdout.close()
        return self

    def __exit__(self, *exc) -> None:
        for p in self.procs:
            p.send_signal(signal.SIGTERM)
        for p in self.procs:
            p.wait()
        if exc[0] is None:
            self.samples = sorted(tuple(s) for f in self.files
                                  for s in json.loads(f.read_text()))

    def factor(self, start: float, end: float) -> float:
        """Host slowness over [start, end]: the median chunk time of the
        samples that ended in it, or of the MIN_SAMPLES nearest its middle
        when fewer ended in it, over the reference chunk time."""
        inside = [c for t, c in self.samples if start <= t <= end]
        if len(inside) < MIN_SAMPLES:
            mid = (start + end) / 2
            inside = [c for _, c in sorted(
                self.samples, key=lambda s: abs(s[0] - mid))[:MIN_SAMPLES]]
        return statistics.median(inside) / REFERENCE_CHUNK_S


if __name__ == "__main__":
    probe(int(sys.argv[1]), sys.argv[2])
