"""Command-line front end.

Commands: sweep, characterize, partition, classify, calibrate, replay.
Each run writes its results (CSV/JSON, SVG panels) plus a manifest that
embeds the resolved spec and profile text, so `replay` can reproduce the
exact same outputs byte for byte.
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

import numpy as np

from . import __version__
from .experiments import (ExperimentSpec, ExperimentError, SweepResult,
                          CalibrationError, calibrate_profile,
                          compare_scenarios, constraint_study, derive_lqos,
                          load_experiment_spec, qos_saturation, qps_sweep)
from .metrics import SWEEP_CSV_COLUMNS, default_warmup, summary_csv_row
from .model import (ClosedLoop, FileFormatError, ModelError, PlatformConfig,
                    Topology, load_platform, platform_to_text,
                    profile_to_text, save_profile)
from .svgplot import line_plot
from .taxonomy import Thresholds, classify, extract_features

EXIT_OK = 0
EXIT_VALIDATION = 2
EXIT_UNREACHABLE = 3

OUT_ROOT_ENV = "TAILSIM_OUT"


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

    for name, hlp in (("sweep", "run one load sweep from a spec file"),
                      ("characterize", "full three-topology characterization"),
                      ("partition", "LLC-way / memory-bandwidth study"),
                      ("classify", "classify a workload from its spec"),
                      ("calibrate", "fit profile knobs to spec targets")):
        p = sub.add_parser(name, help=hlp)
        p.add_argument("spec", type=Path, help="experiment spec file")

    p = sub.add_parser("replay", help="re-run a manifest and reproduce its "
                                      "outputs")
    p.add_argument("manifest", type=Path)
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        if args.command == "replay":
            return _cmd_replay(args)
        return _dispatch(args, args.spec)
    except (FileFormatError, ModelError, ExperimentError,
            FileNotFoundError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION


def _dispatch(args, spec_path: Path) -> int:
    if args.parallelism < 1:
        raise ExperimentError("--parallelism: must be at least 1")
    if args.seed is not None and args.seed < 0:
        raise ExperimentError("--seed: must be a non-negative integer")
    platform = (load_platform(args.platform) if args.platform
                else PlatformConfig())
    spec = load_experiment_spec(spec_path, platform=platform,
                                seed_override=args.seed)
    if args.points is not None:
        spec = replace(spec, n_points=args.points)
    if args.warmup is not None:
        duration = spec.scenario.duration
        if not 0.0 <= args.warmup < duration:
            raise ExperimentError(
                f"--warmup: must lie in [0, duration) = [0, {duration:g}) s")
        spec = replace(spec, config=replace(spec.config, warmup=args.warmup))
    if args.parallelism > 1:
        spec = replace(spec, config=replace(spec.config,
                                            parallelism=args.parallelism))
    out_dir = _resolve_out(args, spec.name)
    handler = {
        "sweep": cmd_sweep,
        "characterize": cmd_characterize,
        "partition": cmd_partition,
        "classify": cmd_classify,
        "calibrate": cmd_calibrate,
    }[args.command]
    return handler(spec, out_dir)


def _resolve_out(args, spec_name: str) -> Path:
    if args.out is not None:
        return args.out
    root = Path(os.environ.get(OUT_ROOT_ENV, "tailsim-out"))
    return root / f"{args.command}-{spec_name}"


# ---------------------------------------------------------------------------
# Manifest

def _write_json(path: Path, payload) -> None:
    path.write_text(json.dumps(payload, indent=2, sort_keys=True,
                               allow_nan=False) + "\n")


def _sanitize(obj):
    if isinstance(obj, float):
        return None if (math.isnan(obj) or math.isinf(obj)) else obj
    if isinstance(obj, dict):
        return {k: _sanitize(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_sanitize(v) for v in obj]
    return obj


def _write_manifest(out_dir: Path, command: str, spec: ExperimentSpec,
                    outputs: list[str], status: dict,
                    wall_clock: float) -> None:
    manifest = {
        "command": command,
        "spec_name": spec.name,
        "spec_content": _spec_text(spec),
        "profile_content": profile_to_text(spec.profile),
        "platform_content": platform_to_text(spec.config.platform),
        "seed": spec.config.seed,
        "points": spec.n_points,
        "warmup": (spec.config.warmup if spec.config.warmup is not None
                   else default_warmup(spec.scenario.duration)),
        "out_dir": str(out_dir),
        "outputs": outputs,
        "status": _sanitize(status),
        "versions": {"tailsim": __version__,
                     "python": sys.version.split()[0],
                     "numpy": np.__version__},
        "wall_clock_s": wall_clock,
    }
    _write_json(out_dir / "manifest.json", manifest)


def _spec_text(spec: ExperimentSpec) -> str:
    return "\n".join(f"{k}: {v}" for k, v in spec.raw.items()) + "\n"


_REPLAY_KEYS = ("command", "spec_content", "profile_content", "seed",
                "points")


def _cmd_replay(args) -> int:
    path = Path(args.manifest)
    try:
        manifest = json.loads(path.read_text())
    except json.JSONDecodeError as exc:
        raise FileFormatError(f"{path}: not a JSON manifest ({exc})") from None
    needed = _REPLAY_KEYS + (() if args.out is not None else ("out_dir",))
    for key in needed:
        if not isinstance(manifest, dict) or key not in manifest:
            raise FileFormatError(f"{path}: manifest lacks key {key!r}")
    out_dir = (args.out if args.out is not None
               else Path(manifest["out_dir"] + "-replay"))
    out_dir.mkdir(parents=True, exist_ok=True)
    spec_path = out_dir / "replayed.spec"
    profile_path = out_dir / "replayed.profile"
    profile_path.write_text(manifest["profile_content"])
    spec_lines = []
    for line in manifest["spec_content"].splitlines():
        if line.strip().startswith("profile:"):
            spec_lines.append(f"profile: {profile_path.name}")
        else:
            spec_lines.append(line)
    spec_path.write_text("\n".join(spec_lines) + "\n")
    platform_path = None
    if manifest.get("platform_content") is not None:
        platform_path = out_dir / "replayed.platform"
        platform_path.write_text(manifest["platform_content"])
    ns = argparse.Namespace(
        command=manifest["command"], spec=spec_path, out=out_dir,
        seed=manifest["seed"], points=manifest["points"],
        warmup=manifest.get("warmup"), parallelism=1, platform=platform_path)
    return _dispatch(ns, spec_path)


# ---------------------------------------------------------------------------
# Output helpers

def _write_sweep_csv(path: Path, sweep: SweepResult) -> None:
    lines = [",".join(SWEEP_CSV_COLUMNS)]
    for p in sweep.points:
        lines.append(summary_csv_row(p.qps, p.summary))
    path.write_text("\n".join(lines) + "\n")


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
    """Load points of a sweep and how many ran on each engine path."""
    return {"points": len(sweep.points),
            "engine": dict(Counter(p.engine for p in sweep.points))}


def _point_rows(sweep: SweepResult) -> list[dict]:
    return [{"qps": p.qps, "gate_ok": p.gate_ok,
             "saturated": p.summary.saturated} for p in sweep.points]


# ---------------------------------------------------------------------------
# Commands

def cmd_sweep(spec: ExperimentSpec, out_dir: Path) -> int:
    t0 = time.time()
    sweep = qps_sweep(spec.profile, spec.scenario, spec.limits,
                      spec.qps_range, spec.n_points, spec.config)
    closed = isinstance(spec.scenario.mode, ClosedLoop)
    qos = derive_lqos(sweep, spec.profile.qos_multiplier,
                      manual_override=spec.lqos_override,
                      override_reason=spec.override_reason)
    sat = qos_saturation(sweep, qos)

    out_dir.mkdir(parents=True, exist_ok=True)
    _write_sweep_csv(out_dir / "sweep.csv", sweep)
    summary = {
        "workload": spec.profile.name,
        "topology": spec.scenario.topology.value,
        "mode": "closed_loop" if closed else "open_loop",
        "qps_range": list(spec.qps_range),
        "points": _point_rows(sweep),
        "qos": _qos_dict(qos),
        # No saturation is reported under an unresolved QoS target.
        "saturation": (_sat_dict(sat) if qos is None or qos.resolved
                       else None),
    }
    _write_json(out_dir / "summary.json", _sanitize(summary))
    outputs = ["sweep.csv", "summary.json"]
    status = {"sweep": {**_sweep_status(sweep),
                        "gated": sum(p.gate_ok for p in sweep.points)}}
    _write_manifest(out_dir, "sweep", spec, outputs, status,
                    time.time() - t0)
    if qos is not None and not qos.resolved:
        print("UNREACHABLE: CPU utilization never reached 20% before "
              "saturation; set lqos_override in the spec", file=sys.stderr)
        return EXIT_UNREACHABLE
    print(f"sweep {spec.name}: {len(sweep.points)} points -> {out_dir}")
    return EXIT_OK


_PANELS = (
    ("p95", "p95", "95th percentile latency (ms)", 1000.0),
    ("util", "cpu_utilization", "CPU utilization", 1.0),
    ("net_tx", "net_tx_bw", "network transmit bandwidth (MB/s)", 1.0),
    ("disk", "disk_bw", "disk bandwidth (MB/s)", 1.0),
    ("mem", "mem_bw", "main memory bandwidth (MB/s)", 1.0),
    ("llc", "llc_occupancy", "LLC occupancy (MB)", 1.0),
)


def cmd_characterize(spec: ExperimentSpec, out_dir: Path) -> int:
    """Three-topology characterization bundle: per-topology sweep CSVs, the
    QoS/saturation table, classification, and the six metric panels."""
    t0 = time.time()
    closed = isinstance(spec.scenario.mode, ClosedLoop)
    comp = compare_scenarios(spec.profile, spec.limits, spec.qps_range,
                             spec.n_points, spec.scenario, spec.config,
                             lqos_override=spec.lqos_override)
    one_st = comp.sweeps[Topology.ONE_ST]
    qos = comp.qos[Topology.ONE_ST]
    features = extract_features(one_st, qos)
    result = classify(features, Thresholds.from_mapping(spec.thresholds))

    out_dir.mkdir(parents=True, exist_ok=True)
    outputs: list[str] = []
    for topo, sweep in comp.sweeps.items():
        fname = f"sweep_{topo.value.lower()}.csv"
        _write_sweep_csv(out_dir / fname, sweep)
        outputs.append(fname)

    x_label = "sessions" if closed else "QPS"
    lat_label = ("transfer+response time (ms)" if closed
                 else "95th percentile latency (ms)")
    for key, attr, ylabel, scale in _PANELS:
        series = []
        for topo, sweep in comp.sweeps.items():
            xs = [p.qps for p in sweep.points]
            ys = [getattr(p.summary, attr) * scale for p in sweep.points]
            series.append((topo.value, xs, ys))
        hline = None
        hlabel = ""
        if key == "p95" and qos is not None and qos.resolved:
            hline = qos.lqos * 1000.0
            hlabel = "LQoS"
        fname = f"plot_{key}.svg"
        line_plot(out_dir / fname,
                  f"{spec.profile.name}: {ylabel}",
                  x_label, lat_label if key == "p95" else ylabel,
                  series, hline=hline, hline_label=hlabel, log_x=not closed)
        outputs.append(fname)

    summary = {
        "workload": spec.profile.name,
        "mode": "closed_loop" if closed else "open_loop",
        "qos": {t.value: _qos_dict(q) for t, q in comp.qos.items()},
        "saturation": {t.value: _sat_dict(s)
                       for t, s in comp.saturation.items()},
        "qps_at_20_util": {t.value: v for t, v in comp.qps_at_20.items()},
        "qps_at_50_util": {t.value: v for t, v in comp.qps_at_50.items()},
        "ratios": comp.ratios,
        "classification": result.to_dict(),
    }
    _write_json(out_dir / "summary.json", _sanitize(summary))
    outputs.append("summary.json")
    _write_json(out_dir / "features.json", _sanitize(result.to_dict()))
    outputs.append("features.json")
    status = {t.value: _sweep_status(s) for t, s in comp.sweeps.items()}
    _write_manifest(out_dir, "characterize", spec, outputs, status,
                    time.time() - t0)
    if not closed and not qos.resolved:
        print("UNREACHABLE: CPU utilization never reached 20%; set "
              "lqos_override in the spec", file=sys.stderr)
        return EXIT_UNREACHABLE
    print(f"characterize {spec.name}: {result.category.value} -> {out_dir}")
    return EXIT_OK


def cmd_partition(spec: ExperimentSpec, out_dir: Path) -> int:
    """Cache-way and memory-bandwidth constraint study."""
    t0 = time.time()
    if not spec.ways_list and not spec.bw_limits:
        raise FileFormatError(
            f"{spec.name}: partition study needs ways_list and/or bw_limits")

    def study(axis: str, values) -> list:
        levels = [replace(spec.limits, **{axis: v}) for v in values]
        return constraint_study(spec.profile, spec.scenario, levels,
                                spec.qps_range, spec.n_points, spec.config,
                                axis=axis, lqos_override=spec.lqos_override,
                                override_reason=spec.override_reason)

    entries = [(f"cat_w{int(e.constraint)}", e)
               for e in study("llc_ways", spec.ways_list)]
    entries += [("mba_unlimited" if math.isinf(e.constraint)
                 else f"mba_{int(e.constraint)}", e)
                for e in study("mem_bw_limit", spec.bw_limits)]

    out_dir.mkdir(parents=True, exist_ok=True)
    outputs = []
    for label, e in entries:
        fname = f"{label}.csv"
        _write_sweep_csv(out_dir / fname, e.sweep)
        outputs.append(fname)

    closed = isinstance(spec.scenario.mode, ClosedLoop)
    x_label = "sessions" if closed else "QPS"
    panels = [("p95", "p95", "95th percentile latency (ms)", 1000.0),
              ("llc", "llc_occupancy", "LLC occupancy (MB)", 1.0),
              ("mem", "mem_bw", "main memory bandwidth (MB/s)", 1.0)]
    if spec.bw_limits:
        panels.append(("util", "cpu_utilization", "CPU utilization", 1.0))
    for key, attr, ylabel, scale in panels:
        series = []
        for label, e in entries:
            xs = [p.qps for p in e.sweep.points]
            ys = [getattr(p.summary, attr) * scale for p in e.sweep.points]
            series.append((label, xs, ys))
        fname = f"plot_{key}.svg"
        line_plot(out_dir / fname, f"{spec.profile.name}: {ylabel}",
                  x_label, ylabel, series, log_x=not closed)
        outputs.append(fname)

    way_cap = spec.config.platform.llc_way_capacity
    summary = {
        "workload": spec.profile.name,
        "entries": [{
            "label": label,
            "constraint": (None if math.isinf(e.constraint)
                           else e.constraint),
            "llc_capacity_mb": (e.constraint * way_cap
                                if label.startswith("cat_") else None),
            "qos": _qos_dict(e.qos),
            "saturation": _sat_dict(e.saturation),
        } for label, e in entries],
    }
    _write_json(out_dir / "summary.json", _sanitize(summary))
    outputs.append("summary.json")
    status = {"entries": len(entries),
              "sweeps": {label: _sweep_status(e.sweep)
                         for label, e in entries}}
    _write_manifest(out_dir, "partition", spec, outputs, status,
                    time.time() - t0)
    print(f"partition {spec.name}: {len(entries)} constraint levels "
          f"-> {out_dir}")
    return EXIT_OK


def cmd_classify(spec: ExperimentSpec, out_dir: Path) -> int:
    """Single-thread characterization followed by taxonomy classification."""
    t0 = time.time()
    scen = replace(spec.scenario, topology=Topology.ONE_ST)
    sweep = qps_sweep(spec.profile, scen, spec.limits, spec.qps_range,
                      spec.n_points, spec.config)
    qos = derive_lqos(sweep, spec.profile.qos_multiplier,
                      manual_override=spec.lqos_override,
                      override_reason=spec.override_reason)
    features = extract_features(sweep, qos)
    result = classify(features, Thresholds.from_mapping(spec.thresholds))
    out_dir.mkdir(parents=True, exist_ok=True)
    _write_sweep_csv(out_dir / "sweep.csv", sweep)
    _write_json(out_dir / "classification.json", _sanitize(result.to_dict()))
    _write_manifest(out_dir, "classify", spec,
                    ["sweep.csv", "classification.json"],
                    {"category": result.category.value,
                     "sweep": _sweep_status(sweep)}, time.time() - t0)
    print(f"classify {spec.name}: {result.category.value} "
          f"(rule: {result.rule}) -> {out_dir}")
    return EXIT_OK


def cmd_calibrate(spec: ExperimentSpec, out_dir: Path) -> int:
    t0 = time.time()
    if not spec.targets:
        raise FileFormatError(
            f"{spec.name}: calibrate needs target_* keys in the spec")
    try:
        calibrated, report = calibrate_profile(
            spec.profile, spec.targets, spec.scenario, spec.qps_range,
            spec.n_points, spec.config, lqos_override=spec.lqos_override)
    except CalibrationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    out_dir.mkdir(parents=True, exist_ok=True)
    save_profile(calibrated, out_dir / "calibrated.profile")
    payload = {
        "targets": spec.targets,
        "achieved": report.achieved,
        "residuals": report.residuals,
        "iterations": report.iterations,
        "notes": list(report.notes),
    }
    _write_json(out_dir / "calibration.json", _sanitize(payload))
    _write_manifest(out_dir, "calibrate", spec,
                    ["calibrated.profile", "calibration.json"],
                    {"worst_residual": report.worst_residual},
                    time.time() - t0)
    print(f"calibrate {spec.name}: worst residual "
          f"{report.worst_residual:+.1%} -> {out_dir}")
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
