#!/usr/bin/env python3
"""Fit the shipped workload profiles to their target headline numbers.

For each workload this tool pins the structural demand parameters, then
searches the arrival burstiness (zipf support) and the service-time
coefficient of variation until the single-thread characterization lands on
the target supported load at the target QoS latency. Results are written to
src/tailsim/profiles/*.profile and src/tailsim/specs/*.spec.

Run from the repository root:  python tools/tune_profiles.py [workload ...]
"""

from __future__ import annotations

import math
import sys
import time
from dataclasses import replace
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from tailsim.loadgen import ArrivalModel
from tailsim.experiments import (RunConfig, calibrate_profile, pin_cpu_work,
                                 study)
from tailsim.model import (MB, OpenLoop, PlatformConfig,
                           ResourceLimits, ScenarioConfig, ServiceDist,
                           Topology, WorkloadProfile, kv_text, miss_ratio,
                           save_profile)

PLATFORM = PlatformConfig()
LIMITS = ResourceLimits.unconstrained(PLATFORM)
SUPPORT_LADDER = [3, 5, 8, 12, 20, 30, 50, 80, 120, 200, 300, 500, 1000]

PROFILE_DIR = ROOT / "src" / "tailsim" / "profiles"
SPEC_DIR = ROOT / "src" / "tailsim" / "specs"

# Structural parameters per workload. Unless a workload fixes cpu_work,
# pin_cpu_work derives it from lqos: the isolated mean service time
# lqos / 5 less the memory and disk phase times.
WORKLOADS = {
    "img-dnn": dict(
        lqos=3.6e-3, sat=640.0, qps_range=(100.0, 2000.0), clients=12,
        duration=25.0, rtt=1e-4, seed=101,
        mem_bytes_full=0.45 * MB, mem_stream_rate=9000.0,
        miss_min=0.028, miss_max=0.5806, miss_shape=1.538,
        footprint=10.0, disk_bytes=0.0, net_tx=10000.0, net_rx=2000.0,
        sigma=0.75),
    "masstree": dict(
        lqos=1.4e-3, sat=1000.0, qps_range=(250.0, 2500.0), clients=12,
        duration=25.0, rtt=2e-5, seed=102,
        mem_bytes_full=0.10 * MB, mem_stream_rate=9000.0,
        miss_min=0.05, miss_max=0.30, miss_shape=1.5,
        footprint=7.0, disk_bytes=0.0, net_tx=8000.0, net_rx=1500.0,
        sigma=0.95),
    "moses": dict(
        lqos=7.1e-3, sat=30.0, qps_range=(10.0, 500.0), clients=6,
        duration=120.0, rtt=1e-4, seed=103,
        mem_bytes_full=0.50 * MB, mem_stream_rate=9000.0,
        miss_min=0.10, miss_max=0.35, miss_shape=1.5,
        footprint=8.0, disk_bytes=80000.0, net_tx=3000.0, net_rx=3000.0,
        sigma=0.70),
    "shore": dict(
        lqos=25e-3, lqos_override=True, sat=100.0,
        qps_range=(10.0, 300.0), clients=12,
        duration=120.0, rtt=1e-4, seed=104,
        mem_bytes_full=0.10 * MB, mem_stream_rate=9000.0,
        miss_min=0.10, miss_max=0.30, miss_shape=1.5,
        footprint=5.0, disk_bytes=34000.0, net_tx=2000.0, net_rx=2000.0,
        sigma=0.70, cpu_work=0.8e-3, cv_fixed=0.3),
    "silo": dict(
        lqos=0.5e-3, sat=1000.0, qps_range=(250.0, 6000.0), clients=18,
        duration=20.0, rtt=2e-5, seed=105,
        mem_bytes_full=0.07 * MB, mem_stream_rate=9000.0,
        miss_min=0.06, miss_max=0.30, miss_shape=1.5,
        footprint=7.0, disk_bytes=0.0, net_tx=1500.0, net_rx=1000.0,
        sigma=0.60, smt_ratio=1.23),
    "specjbb": dict(
        lqos=0.7e-3, sat=1500.0, qps_range=(250.0, 7000.0), clients=18,
        duration=20.0, rtt=2e-5, seed=106,
        mem_bytes_full=0.13 * MB, mem_stream_rate=9000.0,
        miss_min=0.06, miss_max=0.45, miss_shape=1.5,
        footprint=9.0, disk_bytes=0.0, net_tx=2000.0, net_rx=1500.0,
        sigma=0.65),
    # clients: with strictly serial clients (busy until completion plus a
    # round trip) fewer than six cannot keep 97.5% of these multi-second
    # requests timely at the target load, and the timeliness gate would
    # bind before the latency gate.
    "sphinx": dict(
        lqos=4275.4e-3, sat=0.7, qps_range=(0.2, 2.0), clients=6,
        duration=2400.0, rtt=1e-4, seed=107,
        mem_bytes_full=857.0 * MB, mem_stream_rate=9000.0,
        miss_min=0.15, miss_max=0.50, miss_shape=1.2,
        footprint=11.0, disk_bytes=0.0, net_tx=2000.0, net_rx=50000.0,
        sigma=0.70, cv_fixed=0.9265625, support_fixed=3),
    "xapian": dict(
        lqos=6.2e-3, sat=350.0, qps_range=(100.0, 1100.0), clients=4,
        duration=40.0, rtt=1e-4, seed=108,
        mem_bytes_full=0.15 * MB, mem_stream_rate=9000.0,
        miss_min=0.08, miss_max=0.40, miss_shape=1.5,
        footprint=8.0, disk_bytes=1800.0, net_tx=4000.0, net_rx=1500.0,
        sigma=0.95),
}

MEDIA = dict(
    sessions=(1, 24), think=1.0, duration=120.0, rtt=1e-4, seed=109,
    cpu_work=42.5e-3, mem_bytes=20.0 * MB, mem_stream_rate=9000.0,
    miss_flat=0.08, footprint=6.0, disk_bytes=50000.0,
    net_tx=24.0 * MB, net_rx=20000.0, sigma=0.85)


def build_profile(name: str, w: dict, cv: float) -> WorkloadProfile:
    accesses = w["mem_bytes_full"] / (w["miss_min"] * PLATFORM.cache_line)
    dist = (ServiceDist("deterministic") if cv < 0.02
            else ServiceDist("lognormal", cv))
    prof = WorkloadProfile(
        name=name, cpu_work=w.get("cpu_work", 0.0), mem_accesses=accesses,
        miss_min=w["miss_min"], miss_max=w["miss_max"],
        miss_shape=w["miss_shape"], mem_stream_rate=w["mem_stream_rate"],
        footprint=w["footprint"], disk_bytes=w["disk_bytes"],
        net_tx_bytes=w["net_tx"], net_rx_bytes=w["net_rx"],
        smt_efficiency=w["sigma"], service_dist=dist)
    if "cpu_work" in w:
        return prof
    return replace(prof, cpu_work=pin_cpu_work(prof, w["lqos"], PLATFORM))


def scenario_for(w: dict) -> ScenarioConfig:
    return ScenarioConfig(Topology.ONE_ST, n_clients=w["clients"],
                          mode=OpenLoop(w["qps_range"][0]),
                          duration=w["duration"], rtt=w["rtt"])


def config_for(w: dict, support: int) -> RunConfig:
    return RunConfig(platform=PLATFORM,
                     arrival=ArrivalModel("zipf", 1.0, support),
                     seed=w["seed"])


def measure_sat(profile, w, support, limits=LIMITS, duration_scale=1.0):
    scen = scenario_for(w)
    if duration_scale != 1.0:
        scen = replace(scen, duration=w["duration"] * duration_scale)
    cfg = config_for(w, support)
    override = w["lqos"] if w.get("lqos_override") else None
    [e] = study(profile, [(scen, limits)], w["qps_range"], 12, cfg, override)
    return e.saturation.qps, e.qos, e.sweep


def pick_support(profile, w, target, limits, margin) -> int:
    """Largest (burstiest) zipf support whose half-length saturation under
    limits still reaches margin * target; a margin above 1 leaves room for
    the service variability searched next."""
    chosen = SUPPORT_LADDER[0]
    for support in SUPPORT_LADDER:
        sat, _, _ = measure_sat(profile, w, support, limits=limits,
                                duration_scale=0.5)
        print(f"    support {support:5d}: sat {sat:9.3f} (target {target})")
        if sat >= margin * target:
            chosen = support
        else:
            break
    return chosen


def bisect_cv(w, support, target, cv_hi=4.0, iters=8) -> tuple[float, float]:
    lo, hi = 0.0, cv_hi
    sat_lo, _, _ = measure_sat(build_profile("tmp", w, 0.0), w, support)
    if sat_lo < target:
        print(f"    cv=0 already below target ({sat_lo:.3f} < {target}); "
              "keeping deterministic")
        return 0.0, sat_lo
    best_cv, best_sat = 0.0, sat_lo
    for _ in range(iters):
        mid = 0.5 * (lo + hi)
        sat, _, _ = measure_sat(build_profile("tmp", w, mid), w, support)
        print(f"    cv {mid:5.3f}: sat {sat:9.3f}")
        if abs(sat - target) < abs(best_sat - target):
            best_cv, best_sat = mid, sat
        if sat > target:
            lo = mid
        else:
            hi = mid
        if abs(sat - target) / target < 0.02:
            break
    return best_cv, best_sat


def tune_generic(name: str) -> WorkloadProfile:
    w = WORKLOADS[name]
    target = w["sat"]
    if w.get("support_fixed"):
        support = w["support_fixed"]
    else:
        print(f"[{name}] choosing arrival burstiness")
        det = build_profile(name, w, 0.0)
        support = pick_support(det, w, target, LIMITS, 1.04)
    print(f"  support = {support}")
    if w.get("cv_fixed") is not None:
        cv = w["cv_fixed"]
        sat, _, _ = measure_sat(build_profile(name, w, cv), w, support)
    else:
        cv, sat = bisect_cv(w, support, target)
    print(f"  cv = {cv:.4f} -> sat {sat:.3f} (target {target})")
    w["support"] = support
    w["cv"] = cv
    return build_profile(name, w, cv)


def tune_shore() -> WorkloadProfile:
    """Shore's service is dominated by small random disk reads; the spec
    ships an effective disk bandwidth, searched so the 25 ms override is
    crossed at the target load."""
    name = "shore"
    w = WORKLOADS[name]
    target = w["sat"]
    cv = w["cv_fixed"]
    lo, hi = 2.0, 60.0  # MB/s effective disk bandwidth
    prof = build_profile(name, w, cv)
    # Pick support with a mid-range disk limit first.
    print(f"[{name}] choosing arrival burstiness (disk limit 8 MB/s)")
    support = pick_support(prof, w, target,
                           replace(LIMITS, disk_bw_limit=8.0), 0.9)
    print(f"  support = {support}")
    best = None
    for _ in range(10):
        mid = 0.5 * (lo + hi)
        limits = replace(LIMITS, disk_bw_limit=mid)
        sat, qos, _ = measure_sat(prof, w, support, limits=limits)
        print(f"    disk limit {mid:6.2f} MB/s: sat {sat:9.3f} "
              f"unreachable={qos.unreachable}")
        if best is None or abs(sat - target) < abs(best[1] - target):
            best = (mid, sat)
        # A faster effective disk shortens service, pushing saturation up.
        if sat > target:
            hi = mid
        else:
            lo = mid
        if abs(sat - target) / target < 0.02:
            break
    w["disk_limit"] = best[0]
    w["support"] = support
    w["cv"] = cv
    print(f"  disk limit = {best[0]:.2f} MB/s -> sat {best[1]:.3f}")
    return prof


def tune_img_dnn_cat(profile: WorkloadProfile) -> WorkloadProfile:
    """Refine the miss curve so constrained-way saturation matches the
    600 -> 400 -> 300 pattern at 5 and 2 ways."""
    w = WORKLOADS["img-dnn"]
    support = w["support"]

    def sat_at(prof, ways):
        limits = replace(LIMITS, llc_ways=ways)
        sat, _, _ = measure_sat(prof, w, support, limits=limits)
        return sat

    prof = profile
    s2 = sat_at(prof, 2)
    for round_ in range(3):
        # Adjust miss_max: more traffic at 2 ways lowers saturation.
        scale = s2 / 300.0
        if abs(scale - 1.0) > 0.04:
            mm = prof.miss_max
            # service time at 2 ways scales ~ inversely with saturation
            lim2 = replace(LIMITS, llc_ways=2)
            s_tot = prof.isolated_service_time(lim2, PLATFORM)
            want_s = s_tot * scale
            delta = want_s - s_tot
            extra_bytes = delta * prof.mem_stream_rate * MB
            m2 = miss_ratio(prof, 2, PLATFORM.llc_total_ways)
            m2_new = m2 + extra_bytes / (prof.mem_accesses *
                                         PLATFORM.cache_line)
            span = ((PLATFORM.llc_total_ways - 2) /
                    (PLATFORM.llc_total_ways - 1)) ** prof.miss_shape
            mm_new = prof.miss_min + (m2_new - prof.miss_min) / span
            mm_new = min(max(mm_new, prof.miss_min + 0.01), 1.0)
            prof = replace(prof, miss_max=mm_new)
            print(f"  [cat round {round_}] sat(2w)={s2:.1f} -> miss_max "
                  f"{mm:.4f} -> {mm_new:.4f}")
        s5 = sat_at(prof, 5)
        scale5 = s5 / 400.0
        if abs(scale5 - 1.0) > 0.04:
            lim5 = replace(LIMITS, llc_ways=5)
            s_tot5 = prof.isolated_service_time(lim5, PLATFORM)
            want_s5 = s_tot5 * scale5
            extra5 = (want_s5 - s_tot5) * prof.mem_stream_rate * MB
            m5 = miss_ratio(prof, 5, PLATFORM.llc_total_ways)
            m5_new = m5 + extra5 / (prof.mem_accesses * PLATFORM.cache_line)
            m5_new = min(max(m5_new, prof.miss_min + 1e-4),
                         prof.miss_max - 1e-4)
            # Solve shape k from the 5-way target, keeping miss_max.
            span5 = (m5_new - prof.miss_min) / (prof.miss_max - prof.miss_min)
            frac = ((PLATFORM.llc_total_ways - 5) /
                    (PLATFORM.llc_total_ways - 1))
            if 0 < span5 < 1:
                k_new = math.log(span5) / math.log(frac)
                k_new = min(max(k_new, 0.3), 6.0)
                print(f"  [cat round {round_}] sat(5w)={s5:.1f} -> shape "
                      f"{prof.miss_shape:.3f} -> {k_new:.3f}")
                prof = replace(prof, miss_shape=k_new)
        s11, s8, s5, s2 = (sat_at(prof, ways) for ways in (11, 8, 5, 2))
        print(f"  [cat round {round_}] sat 11/8/5/2 = {s11:.0f}/{s8:.0f}/"
              f"{s5:.0f}/{s2:.0f}")
        if abs(s2 - 300) / 300 < 0.06 and abs(s5 - 400) / 400 < 0.06:
            break
    return prof


def tune_silo_sigma(profile: WorkloadProfile) -> WorkloadProfile:
    w = WORKLOADS["silo"]
    prof, report = calibrate_profile(
        profile, {"smt_ratio_20": w["smt_ratio"]}, scenario_for(w),
        w["qps_range"], 10, config_for(w, w["support"]))
    print(f"  sigma = {prof.smt_efficiency:.4f} "
          f"(ratio {report.achieved['smt_ratio_20']})")
    return prof


def build_media() -> WorkloadProfile:
    m = MEDIA
    accesses = m["mem_bytes"] / (m["miss_flat"] * PLATFORM.cache_line)
    return WorkloadProfile(
        name="media-streaming", cpu_work=m["cpu_work"],
        mem_accesses=accesses, miss_min=m["miss_flat"],
        miss_max=m["miss_flat"], miss_shape=1.0,
        mem_stream_rate=m["mem_stream_rate"], footprint=m["footprint"],
        disk_bytes=m["disk_bytes"], net_tx_bytes=m["net_tx"],
        net_rx_bytes=m["net_rx"], smt_efficiency=m["sigma"],
        service_dist=ServiceDist("lognormal", 0.3))


def write_spec(name: str, w: dict) -> dict:
    """Write the workload's spec file; returns the fields it wrote."""
    fields = {
        "name": name, "profile": f"{name}.profile", "topology": "ONE_ST",
        "mode": "open_loop", "qps_min": w["qps_range"][0],
        "qps_max": w["qps_range"][1], "points": 12,
        "duration": w["duration"], "n_clients": w["clients"],
        "arrival": "zipf", "zipf_alpha": 1.0, "zipf_support": w["support"],
        "seed": w["seed"], "rtt": w["rtt"],
    }
    if w.get("disk_limit"):
        fields["disk_bw_limit"] = w["disk_limit"]
    if w.get("lqos_override"):
        fields["lqos_override"] = w["lqos"]
        fields["override_reason"] = (
            "utilization stays below 20% up to saturation; target set just "
            "before the latency knee")
    SPEC_DIR.joinpath(f"{name}.spec").write_text(kv_text(fields))
    return fields


def write_media_spec() -> dict:
    """Write media-streaming's spec file; returns the fields it wrote."""
    m = MEDIA
    fields = {
        "name": "media-streaming", "profile": "media-streaming.profile",
        "topology": "ONE_ST", "mode": "closed_loop",
        "sessions_min": m["sessions"][0], "sessions_max": m["sessions"][1],
        "think_time": m["think"],
        "points": 10, "duration": m["duration"], "seed": m["seed"],
        "rtt": m["rtt"],
    }
    SPEC_DIR.joinpath("media-streaming.spec").write_text(kv_text(fields))
    return fields


def main(argv: list[str]) -> None:
    only = set(argv) or None
    PROFILE_DIR.mkdir(parents=True, exist_ok=True)
    SPEC_DIR.mkdir(parents=True, exist_ok=True)
    t0 = time.time()

    for name in WORKLOADS:
        if only and name not in only:
            continue
        start = time.time()
        if name == "shore":
            prof = tune_shore()
        else:
            prof = tune_generic(name)
        if name == "img-dnn":
            prof = tune_img_dnn_cat(prof)
        if name == "silo" and WORKLOADS[name].get("smt_ratio"):
            prof = tune_silo_sigma(prof)
        save_profile(prof, PROFILE_DIR / f"{name}.profile")
        write_spec(name, WORKLOADS[name])
        print(f"[{name}] done in {time.time()-start:.0f}s\n")

    if only is None or "media-streaming" in only:
        prof = build_media()
        save_profile(prof, PROFILE_DIR / "media-streaming.profile")
        write_media_spec()
        print("[media-streaming] written (analytic construction)")

    print(f"total {time.time()-t0:.0f}s")


if __name__ == "__main__":
    main(sys.argv[1:])
