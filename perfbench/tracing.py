"""Span tracing of the tailsim CLI from outside the package.

Run as a script, this module wraps every public function of the layer
modules, runs ``tailsim.cli.main`` with the remaining arguments in this
process, and writes the recorded spans to a JSON file:

    python3 perfbench/tracing.py SPANS_JSON -- [tailsim arguments]

A span is ``{"id", "name", "parent", "start", "end", "attrs"}`` with
``perf_counter`` seconds. The CLI and ``experiments`` bind names with
``from .x import y``, so a wrapper is installed under every name, in every
tailsim module, that refers to the original function; otherwise a call
through such a binding would record nothing.

Imported as a module it supplies the arithmetic on recorded spans
(``self_times``, ``layer_self_times``) that the benchmark driver uses.
"""

from __future__ import annotations

import functools
import inspect
import json
import sys
import time
from collections import defaultdict

LAYERS = ("loadgen", "engine", "metrics", "experiments", "taxonomy",
          "svgplot", "cli")


def _engine_attrs(bound: dict, trace) -> dict:
    return {"topology": bound["scenario"].topology.value,
            "requests": len(trace),
            "late": int((~trace.timely).sum()),
            "censored": int(trace.censored_count)}


# Counts recorded at the layer boundaries, from a call's bound arguments and
# its result. They are taken after the span has ended.
ATTRS = {
    "engine.simulate_open_loop": _engine_attrs,
    "engine.simulate_closed_loop": _engine_attrs,
    "loadgen.build_schedule": lambda bound, sched: {"requests": len(sched)},
    "metrics.summarize": lambda bound, _: {"requests": len(bound["trace"])},
}


class Tracer:
    """Collects spans in memory; one open-span stack (the CLI runs in a
    single thread when invoked with ``--parallelism 1``)."""

    def __init__(self) -> None:
        self.spans: list[dict] = []
        self._stack: list[int] = []

    def wrap(self, name: str, fn):
        attrs = ATTRS.get(name)
        sig = inspect.signature(fn) if attrs else None

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = {"id": len(self.spans), "name": name,
                    "parent": self._stack[-1] if self._stack else None,
                    "start": 0.0, "end": 0.0, "attrs": {}}
            self.spans.append(span)
            self._stack.append(span["id"])
            span["start"] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span["end"] = time.perf_counter()
                self._stack.pop()
            if attrs:
                bound = sig.bind(*args, **kwargs).arguments
                span["attrs"] = attrs(bound, result)
            return result

        return wrapper

    def install(self) -> None:
        """Wrap the public functions of each layer and rebind every name
        in the tailsim modules that refers to one of them."""
        import importlib
        import tailsim
        modules = {m: importlib.import_module(f"tailsim.{m}")
                   for m in LAYERS}
        wrapped = {}
        for layer, mod in modules.items():
            for attr, obj in vars(mod).items():
                if (inspect.isfunction(obj) and not attr.startswith("_")
                        and obj.__module__ == mod.__name__):
                    wrapped[obj] = self.wrap(f"{layer}.{attr}", obj)
        targets = [tailsim, *modules.values()]
        for mod in targets:
            for attr, obj in list(vars(mod).items()):
                if inspect.isfunction(obj) and obj in wrapped:
                    setattr(mod, attr, wrapped[obj])


def self_times(spans: list[dict]) -> dict[int, float]:
    """Each span's duration less the part of it its child spans cover."""
    children: dict[int, list[dict]] = defaultdict(list)
    for s in spans:
        if s["parent"] is not None:
            children[s["parent"]].append(s)
    out = {}
    for s in spans:
        covered = 0.0
        reach = s["start"]
        for c in sorted(children[s["id"]], key=lambda c: c["start"]):
            lo = max(c["start"], reach)
            hi = min(c["end"], s["end"])
            if hi > lo:
                covered += hi - lo
                reach = hi
        out[s["id"]] = (s["end"] - s["start"]) - covered
    return out


def layer_self_times(spans: list[dict]) -> dict[str, float]:
    """Self time summed per layer; nested spans of one layer add up to the
    time that layer ran, with calls into other layers left out."""
    own = self_times(spans)
    out: dict[str, float] = defaultdict(float)
    for s in spans:
        out[s["name"].split(".", 1)[0]] += own[s["id"]]
    return dict(out)


def main(argv: list[str]) -> int:
    if len(argv) < 2 or argv[1] != "--":
        print("usage: tracing.py SPANS_JSON -- [tailsim arguments]",
              file=sys.stderr)
        return 2
    out_path, cli_args = argv[0], argv[2:]
    tracer = Tracer()
    tracer.install()
    from tailsim import cli
    try:
        return cli.main(cli_args)
    finally:
        with open(out_path, "w") as f:
            json.dump(tracer.spans, f)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
