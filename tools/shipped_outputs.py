#!/usr/bin/env python3
"""Write the outputs of every shipped spec of a checkout into one root.

    python tools/shipped_outputs.py CHECKOUT OUT

CHECKOUT is a source checkout. For each spec under its
``src/tailsim/specs/`` this runs ``sweep``, ``characterize`` and
``classify``, and ``partition`` too for a spec that names ``ways_list``
or ``bw_limits``, with the checkout's own ``src`` on the import path.
Each command writes to ``OUT/<command>-<spec>``. One command runs at a
time, each in its own process. Exit 3 (an unreachable QoS target) still
writes the outputs and counts as run. Exits 1 when a command failed, 0
otherwise.

Two checkouts' outputs then compare with ``tools/compare_outputs.py``:

    python tools/shipped_outputs.py PARENT out-parent
    python tools/shipped_outputs.py CHANGE out-change
    python tools/compare_outputs.py out-parent out-change
"""

from __future__ import annotations

import os
import subprocess
import sys
import time
from pathlib import Path

COMMANDS = ("sweep", "characterize", "classify")
PARTITION_KEYS = ("ways_list", "bw_limits")
RAN = (0, 3)  # exit codes of a command that wrote its outputs


def jobs(checkout: Path) -> list[tuple[str, Path]]:
    """(command, spec path) for every run of the checkout's shipped
    specs, in spec name order."""
    out = []
    for spec in sorted((checkout / "src" / "tailsim" / "specs").glob(
            "*.spec")):
        out += [(command, spec) for command in COMMANDS]
        keys = {line.split(":", 1)[0].strip()
                for line in spec.read_text().splitlines()}
        if not keys.isdisjoint(PARTITION_KEYS):
            out.append(("partition", spec))
    return out


def main(argv: list[str]) -> int:
    if len(argv) != 2:
        print("usage: shipped_outputs.py CHECKOUT OUT", file=sys.stderr)
        return 2
    checkout, out = Path(argv[0]).resolve(), Path(argv[1]).resolve()
    todo = jobs(checkout)
    if not todo:
        print(f"{checkout}: no shipped specs", file=sys.stderr)
        return 2
    env = dict(os.environ, PYTHONPATH=str(checkout / "src"),
               TAILSIM_OUT=str(out))
    failed = 0
    for command, spec in todo:
        t0 = time.perf_counter()
        proc = subprocess.run([sys.executable, "-m", "tailsim", command,
                               str(spec)], env=env, capture_output=True,
                              text=True)
        note = f"exit {proc.returncode}, {time.perf_counter() - t0:.1f} s"
        if proc.returncode not in RAN:
            failed += 1
            tail = (proc.stderr.strip().splitlines() or ["no output"])[-1]
            note += f": {tail}"
        print(f"{command} {spec.stem}: {note}", flush=True)
    print(f"{len(todo) - failed} of {len(todo)} commands ran -> {out}")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
