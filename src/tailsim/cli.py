"""Command-line front end.

Commands: sweep, characterize, partition, classify, calibrate, replay.
A run's inputs travel as one ``ExperimentSpec``, built from either of two
sources: ``_flag_input`` loads the spec file and applies the flags, and
``_replay_input`` builds the spec a manifest holds, in memory. Each spec
command computes its results and returns them as files by name (CSV/JSON,
SVG panels); ``_dispatch`` writes them, then a manifest that embeds the
spec as it ran (seed, points and warmup resolved), the profile text and
the platform text, so `replay` reproduces the outputs byte for byte, and
the manifest but for its run time and directory, writing nothing else.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
import time
from collections import Counter
from dataclasses import replace
from pathlib import Path
from typing import NamedTuple

import numpy as np

from . import __version__
from .experiments import (ExperimentSpec, ExperimentError, SweepResult,
                          calibrate_profile, compare_scenarios,
                          load_experiment_spec, spec_from_fields, study)
from .metrics import (SWEEP_CSV_COLUMNS, MetricsError, default_warmup,
                      summary_csv_row)
from .model import (ClosedLoop, FileFormatError, ModelError, PlatformConfig,
                    Topology, kv_text, load_platform, parse_kv_text,
                    platform_from_text, platform_to_text,
                    profile_from_mapping, profile_to_text)
from .svgplot import line_plot
from .taxonomy import classify, extract_features

EXIT_OK = 0
EXIT_VALIDATION = 2
EXIT_UNREACHABLE = 3
# The errors bad input raises; main reports them with EXIT_VALIDATION.
VALIDATION_ERRORS = (FileFormatError, ModelError, ExperimentError,
                     MetricsError, FileNotFoundError)

OUT_ROOT_ENV = "TAILSIM_OUT"


class Result(NamedTuple):
    """What a spec command returns: its output files' text by name in
    write order, the manifest's ``status``, the line printed on success,
    and whether the QoS target was left unresolved (exit 3)."""
    files: dict[str, str]
    status: dict
    note: str
    unresolved: bool = False


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="tailsim",
        description="Tail-latency workload simulator and experiment runner")
    parser.add_argument("--seed", type=int, default=None,
                        help="override the spec's base seed")
    parser.add_argument("--out", type=Path, default=None,
                        help="output directory (default: $%s/<command>-<spec>)"
                        % OUT_ROOT_ENV)
    parser.add_argument("--points", type=int, default=None,
                        help="override the spec's sweep point count")
    parser.add_argument("--warmup", type=float, default=None,
                        help="override the measurement warmup seconds")
    parser.add_argument("--parallelism", type=int, default=1,
                        help="worker processes for sweep points")
    parser.add_argument("--platform", type=Path, default=None,
                        help="platform config file (defaults shipped)")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (_, hlp) in _COMMANDS.items():
        p = sub.add_parser(name, help=hlp)
        p.add_argument("spec", type=Path, help="experiment spec file")
    p = sub.add_parser("replay", help="re-run a manifest and reproduce its "
                                      "outputs")
    p.add_argument("manifest", type=Path)
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        if args.parallelism < 1:
            raise ExperimentError("--parallelism: must be at least 1")
        inputs = (_replay_input(args) if args.command == "replay"
                  else _flag_input(args))
        return _dispatch(*inputs, args.parallelism)
    except VALIDATION_ERRORS as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION


def _flag_input(args) -> tuple[str, ExperimentSpec, Path]:
    """A spec command's run: its command, the spec file with --seed,
    --points, --warmup and --platform applied, and its output directory."""
    if args.seed is not None and args.seed < 0:
        raise ExperimentError("--seed: must be a non-negative integer")
    platform = (load_platform(args.platform) if args.platform
                else PlatformConfig())
    spec = load_experiment_spec(args.spec, platform=platform,
                                seed_override=args.seed)
    if args.points is not None:
        if args.points < 2:
            raise ExperimentError("--points: must be at least 2")
        spec = replace(spec, n_points=args.points)
    if args.warmup is not None:
        duration = spec.scenario.duration
        if not 0.0 <= args.warmup < duration:
            raise ExperimentError(
                f"--warmup: must lie in [0, duration) = [0, {duration:g}) s")
        spec = replace(spec, config=replace(spec.config, warmup=args.warmup))
    out_dir = args.out
    if out_dir is None:
        root = Path(os.environ.get(OUT_ROOT_ENV, "tailsim-out"))
        out_dir = root / f"{args.command}-{spec.name}"
    return args.command, spec, out_dir


def _dispatch(command: str, spec: ExperimentSpec, out_dir: Path,
              parallelism: int) -> int:
    """Run a spec command, then write its files and the manifest: the one
    place that writes a result bundle."""
    if parallelism > 1:
        spec = replace(spec, config=replace(spec.config,
                                            parallelism=parallelism))
    t0 = time.perf_counter()
    result = _COMMANDS[command][0](spec)
    out_dir.mkdir(parents=True, exist_ok=True)
    for name, text in result.files.items():
        (out_dir / name).write_text(text)
    warmup = spec.config.warmup
    manifest = {
        "command": command,
        "spec_name": spec.name,
        # The spec as it ran: the values flags may set written in.
        "spec_content": kv_text({
            **spec.raw, "seed": spec.config.seed, "points": spec.n_points,
            "warmup": (default_warmup(spec.scenario.duration)
                       if warmup is None else warmup)}),
        "profile_content": profile_to_text(spec.profile),
        "platform_content": platform_to_text(spec.config.platform),
        "out_dir": str(out_dir),
        "outputs": list(result.files),
        "status": result.status,
        "versions": {"tailsim": __version__,
                     "python": sys.version.split()[0],
                     "numpy": np.__version__},
        "wall_clock_s": time.perf_counter() - t0,
    }
    (out_dir / "manifest.json").write_text(_json(manifest))
    if result.unresolved:
        print("UNREACHABLE: CPU utilization never reached 20% before "
              "saturation; set lqos_override in the spec", file=sys.stderr)
        return EXIT_UNREACHABLE
    print(f"{result.note} -> {out_dir}")
    return EXIT_OK


# ---------------------------------------------------------------------------
# Manifest

def _json(payload) -> str:
    """JSON text of a payload, with NaN and infinities as null."""
    return json.dumps(_sanitize(payload), indent=2, sort_keys=True,
                      allow_nan=False) + "\n"


def _sanitize(obj):
    if isinstance(obj, float):
        return None if (math.isnan(obj) or math.isinf(obj)) else obj
    if isinstance(obj, dict):
        return {k: _sanitize(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_sanitize(v) for v in obj]
    return obj


def _is_str(v) -> bool:
    return isinstance(v, str)


def _replay_input(args) -> tuple[str, ExperimentSpec, Path]:
    """The run a manifest records: its command, the spec built from its
    spec, profile and platform text, and the replay's output directory.
    Nothing is written here."""
    # The manifest sets every input of the run; a flag that would set one
    # too is refused, not dropped.
    for flag in ("seed", "points", "warmup", "platform"):
        if getattr(args, flag) is not None:
            raise ExperimentError(
                f"--{flag}: replay takes it from the manifest")
    path = Path(args.manifest)
    try:
        manifest = json.loads(path.read_text())
    except json.JSONDecodeError as exc:
        raise FileFormatError(f"{path}: not a JSON manifest ({exc})") from None
    # The keys replay reads: key -> (check, what it must be).
    keys = {"command": (lambda v: _is_str(v) and v in _COMMANDS,
                        "one of " + ", ".join(_COMMANDS)),
            **dict.fromkeys(("spec_name", "spec_content", "profile_content",
                             "platform_content"), (_is_str, "a string"))}
    if args.out is None:
        keys["out_dir"] = (lambda v: _is_str(v) and "\0" not in v,
                           "a string without NUL")
    for key in keys:
        if not (isinstance(manifest, dict) and key in manifest):
            raise FileFormatError(f"{path}: manifest lacks key {key!r}")
    # Manifests once held these beside spec_content; such a manifest is
    # refused rather than read with the key ignored.
    for key in ("seed", "points", "warmup"):
        if key in manifest:
            raise FileFormatError(
                f"{path}: manifest key {key!r}: an older manifest format "
                "(spec_content now holds seed, points and warmup); rerun "
                "the spec")
    for key, (ok, want) in keys.items():
        if not ok(manifest[key]):
            raise FileFormatError(
                f"{path}: manifest key {key!r}: must be {want}")
    spec_src, profile_src = f"{path}: spec_content", f"{path}: profile_content"
    spec = spec_from_fields(
        parse_kv_text(manifest["spec_content"], spec_src), spec_src,
        manifest["spec_name"],
        lambda _: profile_from_mapping(
            parse_kv_text(manifest["profile_content"], profile_src),
            profile_src),
        platform_from_text(manifest["platform_content"],
                           f"{path}: platform_content"))
    out_dir = (args.out if args.out is not None
               else Path(manifest["out_dir"] + "-replay"))
    return manifest["command"], spec, out_dir


# ---------------------------------------------------------------------------
# Output helpers

def _sweep_csv(sweep: SweepResult) -> str:
    lines = [",".join(SWEEP_CSV_COLUMNS)]
    for p in sweep.points:
        lines.append(summary_csv_row(p.qps, p.summary))
    return "\n".join(lines) + "\n"


def _qos_dict(qos) -> dict | None:
    if qos is None:  # a closed-loop sweep has no latency QoS
        return None
    return {
        "lqos_s": qos.lqos,
        "basis_qps": qos.basis_qps,
        "basis_service_time_s": qos.basis_service_time,
        "qos_multiplier": qos.qos_multiplier,
        "unreachable": qos.unreachable,
        "manual_override_s": qos.manual_override,
        "override_reason": qos.override_reason,
    }


def _sat_dict(sat) -> dict:
    return {"qps": sat.qps, "qualified": sat.qualified,
            "binding": sat.binding}


def _sweep_status(sweep: SweepResult) -> dict:
    """Load points of a sweep, how many ran on each engine path, the
    events the event engine took over its points (the issues and the
    phase ends that can change a rate or end a request) and, when there
    are any, the requests the one-worker constant-rate path walked one at
    a time, where a client's previous completion could set a start or a
    block did not settle (``engine._one_worker``)."""
    status = {"points": len(sweep.points),
              "engine": dict(Counter(p.meta["engine"] for p in sweep.points)),
              "events": sum(p.meta.get("events", 0) for p in sweep.points)}
    walked = sum(p.meta.get("walked", 0) for p in sweep.points)
    if walked:
        status["walked"] = walked
    return status


def _point_rows(sweep: SweepResult) -> list[dict]:
    return [{"qps": p.qps, "gate_ok": p.gate_ok,
             "saturated": p.summary.saturated} for p in sweep.points]


# Metric panels by key: (summary attribute, label, scale to the label's
# unit); characterize plots all six in this order.
_PANELS = {
    "p95": ("p95", "95th percentile latency (ms)", 1000.0),
    "util": ("cpu_utilization", "CPU utilization", 1.0),
    "net_tx": ("net_tx_bw", "network transmit bandwidth (MB/s)", 1.0),
    "disk": ("disk_bw", "disk bandwidth (MB/s)", 1.0),
    "mem": ("mem_bw", "main memory bandwidth (MB/s)", 1.0),
    "llc": ("llc_occupancy", "LLC occupancy (MB)", 1.0),
}


def _sweep_files(spec: ExperimentSpec, sweeps: dict[str, SweepResult],
                 csv_prefix: str, keys, lqos: float | None = None
                 ) -> dict[str, str]:
    """One CSV per sweep (``<csv_prefix><label>.csv``), then one panel
    per key with one series per sweep, labelled as in ``sweeps``; the p95
    panel draws the LQoS line when lqos is given."""
    files = {f"{csv_prefix}{label.lower()}.csv": _sweep_csv(sw)
             for label, sw in sweeps.items()}
    closed = isinstance(spec.scenario.mode, ClosedLoop)
    for key in keys:
        attr, ylabel, scale = _PANELS[key]
        series = [(label, [p.qps for p in sw.points],
                   [getattr(p.summary, attr) * scale for p in sw.points])
                  for label, sw in sweeps.items()]
        p95 = key == "p95"
        files[f"plot_{key}.svg"] = line_plot(
            f"{spec.profile.name}: {ylabel}", "sessions" if closed else "QPS",
            "transfer+response time (ms)" if closed and p95 else ylabel,
            series, hline=lqos * 1000.0 if p95 and lqos is not None else None,
            hline_label="LQoS", log_x=not closed)
    return files


# ---------------------------------------------------------------------------
# Commands

def cmd_sweep(spec: ExperimentSpec) -> Result:
    [e] = study(spec.profile, [(spec.scenario, spec.limits)], spec.qps_range,
                spec.n_points, spec.config, spec.lqos_override,
                spec.override_reason)
    sweep, qos = e.sweep, e.qos
    resolved = qos is None or qos.resolved
    summary = {
        "workload": spec.profile.name,
        "topology": spec.scenario.topology.value,
        "mode": ("closed_loop" if isinstance(spec.scenario.mode, ClosedLoop)
                 else "open_loop"),
        "qps_range": list(spec.qps_range),
        "points": _point_rows(sweep),
        "qos": _qos_dict(qos),
        # No saturation is reported under an unresolved QoS target.
        "saturation": _sat_dict(e.saturation) if resolved else None,
    }
    status = {"sweep": {**_sweep_status(sweep),
                        "gated": sum(p.gate_ok for p in sweep.points)}}
    return Result({"sweep.csv": _sweep_csv(sweep),
                   "summary.json": _json(summary)}, status,
                  f"sweep {spec.name}: {len(sweep.points)} points",
                  not resolved)


def cmd_characterize(spec: ExperimentSpec) -> Result:
    """Three-topology characterization bundle: per-topology sweep CSVs, the
    six metric panels, the QoS/saturation table and classification."""
    comp = compare_scenarios(spec.profile, spec.limits, spec.qps_range,
                             spec.n_points, spec.scenario, spec.config,
                             lqos_override=spec.lqos_override)
    qos = comp.entries[Topology.ONE_ST].qos
    resolved = qos is None or qos.resolved
    result = classify(extract_features(comp.entries[Topology.ONE_ST]),
                      spec.thresholds)
    files = _sweep_files(spec, {t.value: e.sweep
                                for t, e in comp.entries.items()},
                         "sweep_", _PANELS,
                         qos.lqos if qos is not None and resolved else None)
    summary = {
        "workload": spec.profile.name,
        "mode": ("closed_loop" if isinstance(spec.scenario.mode, ClosedLoop)
                 else "open_loop"),
        "qos": {t.value: _qos_dict(e.qos) for t, e in comp.entries.items()},
        "saturation": {t.value: _sat_dict(e.saturation)
                       for t, e in comp.entries.items()},
        "qps_at_20_util": {t.value: v for t, v in comp.qps_at_20.items()},
        "qps_at_50_util": {t.value: v for t, v in comp.qps_at_50.items()},
        "ratios": comp.ratios,
        "classification": result.to_dict(),
    }
    files["summary.json"] = _json(summary)
    files["features.json"] = _json(result.to_dict())
    status = {t.value: _sweep_status(e.sweep)
              for t, e in comp.entries.items()}
    return Result(files, status,
                  f"characterize {spec.name}: {result.category.value}",
                  not resolved)


def cmd_partition(spec: ExperimentSpec) -> Result:
    """Cache-way and memory-bandwidth constraint study."""
    if not spec.ways_list and not spec.bw_limits:
        raise FileFormatError(
            f"{spec.name}: partition study needs ways_list and/or bw_limits")
    # CAT levels, then MBA levels, in one study, so one job list; each
    # level is (spec key, label, value on its axis, limits). An integral
    # bandwidth is labelled without its ".0".
    levels = ([("ways_list", f"cat_w{w}", w, replace(spec.limits, llc_ways=w))
               for w in spec.ways_list]
              + [("bw_limits", "mba_unlimited" if b is None else
                  f"mba_{int(b) if b.is_integer() else b}", b,
                  replace(spec.limits, mem_bw_limit=b))
                 for b in spec.bw_limits])
    labels = [label for _, label, _, _ in levels]
    for key, label, _, _ in levels:
        if labels.count(label) > 1:
            raise FileFormatError(
                f"{spec.name}: {key}: two levels share the label {label!r}")
    entries = study(spec.profile,
                    [(spec.scenario, limits) for *_, limits in levels],
                    spec.qps_range, spec.n_points, spec.config,
                    spec.lqos_override, spec.override_reason)
    keys = ["p95", "llc", "mem"] + (["util"] if spec.bw_limits else [])
    files = _sweep_files(spec, {label: e.sweep
                                for label, e in zip(labels, entries)},
                         "", keys)
    way_cap = spec.config.platform.llc_way_capacity
    files["summary.json"] = _json({
        "workload": spec.profile.name,
        "entries": [{
            "label": label,
            "constraint": None if value is None else float(value),
            "llc_capacity_mb": (value * way_cap if label.startswith("cat_")
                                else None),
            "qos": _qos_dict(e.qos),
            "saturation": _sat_dict(e.saturation),
        } for (_, label, value, _), e in zip(levels, entries)],
    })
    status = {"entries": len(entries),
              "sweeps": {label: _sweep_status(e.sweep)
                         for label, e in zip(labels, entries)}}
    return Result(files, status, f"partition {spec.name}: {len(entries)} "
                                 "constraint levels")


def cmd_classify(spec: ExperimentSpec) -> Result:
    """Single-thread characterization followed by taxonomy classification."""
    scen = replace(spec.scenario, topology=Topology.ONE_ST)
    [e] = study(spec.profile, [(scen, spec.limits)], spec.qps_range,
                spec.n_points, spec.config, spec.lqos_override,
                spec.override_reason)
    result = classify(extract_features(e), spec.thresholds)
    return Result({"sweep.csv": _sweep_csv(e.sweep),
                   "classification.json": _json(result.to_dict())},
                  {"category": result.category.value,
                   "sweep": _sweep_status(e.sweep)},
                  f"classify {spec.name}: {result.category.value} "
                  f"(rule: {result.rule})")


def cmd_calibrate(spec: ExperimentSpec) -> Result:
    if not spec.targets:
        raise FileFormatError(
            f"{spec.name}: calibrate needs target_* keys in the spec")
    calibrated, report = calibrate_profile(
        spec.profile, spec.targets, spec.scenario, spec.qps_range,
        spec.n_points, spec.config, lqos_override=spec.lqos_override)
    payload = {
        "targets": spec.targets,
        "achieved": report.achieved,
        "residuals": report.residuals,
        "iterations": report.iterations,
        "notes": list(report.notes),
    }
    return Result({"calibrated.profile": profile_to_text(calibrated),
                   "calibration.json": _json(payload)},
                  {"worst_residual": report.worst_residual},
                  f"calibrate {spec.name}: worst residual "
                  f"{report.worst_residual:+.1%}")


# The spec commands: name -> (handler, help).
_COMMANDS = {
    "sweep": (cmd_sweep, "run one load sweep from a spec file"),
    "characterize": (cmd_characterize, "full three-topology characterization"),
    "partition": (cmd_partition, "LLC-way / memory-bandwidth study"),
    "classify": (cmd_classify, "classify a workload from its spec"),
    "calibrate": (cmd_calibrate, "fit profile knobs to spec targets"),
}


if __name__ == "__main__":
    sys.exit(main())
