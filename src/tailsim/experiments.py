"""Experimental procedures: QPS sweeps, QoS-target derivation, saturation
search, the study procedure that chains the three (one run for a load
sweep, one per topology, one per LLC-way or memory-bandwidth level),
scenario comparison and profile calibration.

A sweep simulates geometrically spaced load points and summarizes each one;
everything downstream (QoS targets, saturation, feature extraction) reads
off the sweep through linear interpolation between adjacent points.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import Callable

import numpy as np

from .loadgen import ArrivalModel, build_schedule
from .engine import Trace, simulate_closed_loop, simulate_open_loop
from .metrics import MetricsSummary, default_warmup, in_window, summarize
from .model import (_SPEC_KEYS, ClosedLoop, FileFormatError, OpenLoop,
                    PlatformConfig, ResourceLimits, ScenarioConfig, Topology,
                    WorkloadProfile, load_profile, miss_ratio, parse_kv_text,
                    parse_number, read_fields, shipped_profile_path,
                    validate_profile)

TIMELY_GATE = 0.975  # minimum timely-requests ratio for a valid load point


class ExperimentError(ValueError):
    """Raised for invalid experiment configuration or unusable sweeps."""


@dataclass(frozen=True)
class SweepPoint:
    qps: float  # offered load; session count for closed-loop sweeps
    summary: MetricsSummary
    seed: int
    meta: dict  # the run's Trace.meta: its engine path and counts

    @property
    def gate_ok(self) -> bool:
        return self.summary.timely_ratio >= TIMELY_GATE


@dataclass(frozen=True)
class SweepResult:
    scenario: ScenarioConfig
    limits: ResourceLimits
    points: tuple[SweepPoint, ...]
    warmup: float


@dataclass(frozen=True)
class QosTarget:
    """Latency QoS target: qos_multiplier times the mean service time at the
    20%-CPU-utilization load point, or a manual override when utilization
    never gets there before the server saturates."""

    lqos: float | None
    basis_qps: float | None
    basis_service_time: float | None
    qos_multiplier: float
    unreachable: bool = False
    manual_override: float | None = None
    override_reason: str | None = None

    @property
    def resolved(self) -> bool:
        return self.lqos is not None


@dataclass(frozen=True)
class SaturationResult:
    """Largest load meeting the QoS latency, timeliness, and stability gates
    simultaneously; qualified is False when no sweep point passed."""

    qps: float
    qualified: bool
    binding: str  # qos | timely | saturated | range | none


@dataclass(frozen=True)
class RunConfig:
    """Shared knobs for every simulation a procedure launches."""

    platform: PlatformConfig = PlatformConfig()
    arrival: ArrivalModel = ArrivalModel("zipf", 1.0, 1000)
    seed: int = 1
    warmup: float | None = None  # None: metrics default
    parallelism: int = 1  # worker processes for independent sweep points


def point_seed(base: int, index: int) -> int:
    """Stable per-point seed so sweeps are reproducible point by point."""
    ss = np.random.SeedSequence([base, index])
    return int(ss.generate_state(1)[0])


def geometric_points(lo: float, hi: float, n: int) -> list[float]:
    if n < 2:
        raise ExperimentError("n_points: must be >= 2")
    if not 0 < lo < hi:
        raise ExperimentError("qps_range: need 0 < lo < hi")
    ratio = hi / lo
    pts = [lo * ratio ** (i / (n - 1)) for i in range(n)]
    pts[0], pts[-1] = lo, hi
    return pts


def session_points(lo: float, hi: float, n: int) -> list[float]:
    """Closed-loop sweeps step through integer session counts."""
    raw = geometric_points(max(lo, 1.0), hi, n)
    out: list[float] = []
    for v in raw:
        iv = float(round(v))
        if not out or iv > out[-1]:
            out.append(iv)
    return out


def run_point(profile: WorkloadProfile, scenario: ScenarioConfig,
              limits: ResourceLimits, config: RunConfig,
              seed: int) -> tuple[Trace, MetricsSummary]:
    """Simulate one load point and summarize it.

    The arrival schedule and the service-time draws use independently
    derived streams; sharing one stream would correlate gaps with service
    times and distort queueing. A sweep's point job calls this for each of
    its runs in turn; build_schedule hands the runs of the point one
    schedule, drawn once. An open-loop run whose window holds no request
    is not simulated: the schedule is sorted and below the duration, so
    its last time is in the window if any is.
    """
    sched_seed = point_seed(seed, 1)
    sim_seed = point_seed(seed, 2)
    if isinstance(scenario.mode, OpenLoop):
        schedule = build_schedule(config.arrival, scenario.mode.qps,
                                  scenario.duration, sched_seed)
        in_window(schedule[-1:], config.warmup, scenario.duration)
        trace = simulate_open_loop(profile, scenario, limits, config.platform,
                                   schedule, sim_seed)
    else:
        trace = simulate_closed_loop(profile, scenario, limits,
                                     config.platform, sim_seed)
    return trace, summarize(trace, config.warmup)


def qps_sweeps(profile: WorkloadProfile,
               runs: list[tuple[ScenarioConfig, ResourceLimits]],
               qps_range: tuple[float, float], n_points: int,
               config: RunConfig) -> list[SweepResult]:
    """One sweep per (scenario, limits) pair, run as one job per load point.

    Point i's job holds every run that has a point i and runs them in
    turn, each trace summarized and dropped before the next run starts.
    The runs of a point ask for their arrival schedules one after another,
    so runs whose arrival model, load, duration and seed are equal get one
    schedule, drawn once (build_schedule); a closed-loop run needs none.
    Each point is a pure function of its run, so how the runs are grouped
    and ordered changes no output. Points failing the 97.5% timely gate
    are kept and flagged, never dropped. The same (config.seed, point
    index) pair always reproduces the same point, so sweeps sharing a seed
    have equal arrival schedules.

    With parallelism 1 the jobs run point by point in this process. With
    config.parallelism > 1 they go to one process pool of at most as many
    workers as jobs, largest offered load (QPS, or sessions in closed
    loop, summed over the job's runs) first, so the longest points start
    early and no sweep waits on its own slowest point while a worker
    idles; ties keep job order. Each sweep's points come back sorted by
    load. An empty runs list returns [].
    """
    validate_profile(profile, config.platform)
    loads = []
    for scenario, limits in runs:
        limits.validate_against(config.platform)
        loads.append(session_points(*qps_range, n_points)
                     if isinstance(scenario.mode, ClosedLoop)
                     else geometric_points(*qps_range, n_points))
    jobs = []
    for i in range(max(map(len, loads), default=0)):
        members = []  # (run index, scenario at the load, limits, load)
        for r, ((scenario, limits), values) in enumerate(zip(runs, loads)):
            if i < len(values):
                q = values[i]
                mode = (ClosedLoop(int(q), scenario.mode.think_time)
                        if isinstance(scenario.mode, ClosedLoop)
                        else OpenLoop(q))
                members.append((r, replace(scenario, mode=mode), limits, q))
        jobs.append((profile, config, point_seed(config.seed, i), members,
                     sum(m[-1] for m in members)))
    if config.parallelism > 1 and len(jobs) > 1:
        from concurrent.futures import ProcessPoolExecutor
        jobs.sort(key=lambda job: -job[-1])
        with ProcessPoolExecutor(
                max_workers=min(config.parallelism, len(jobs))) as pool:
            done = [pair for pairs in pool.map(_point_job, jobs)
                    for pair in pairs]
    else:
        done = [pair for job in jobs for pair in _point_job(job)]
    points = [[] for _ in runs]
    for r, point in done:
        points[r].append(point)
    out = []
    for (scenario, limits), pts in zip(runs, points):
        warmup = (config.warmup if config.warmup is not None
                  else default_warmup(scenario.duration))
        out.append(SweepResult(
            scenario=scenario, limits=limits,
            points=tuple(sorted(pts, key=lambda p: p.qps)), warmup=warmup))
    return out


def _point_job(job) -> list[tuple[int, SweepPoint]]:
    """Run every run of one load point; returns (run index, point)
    pairs."""
    profile, config, seed, members, _ = job
    out = []
    for r, scen, limits, q in members:
        trace, summary = run_point(profile, scen, limits, config, seed)
        out.append((r, SweepPoint(qps=q, summary=summary, seed=seed,
                                  meta=trace.meta)))
        # The point outlives the run; freeing the trace before the next
        # run starts keeps one trace alive at a time.
        del trace
    return out


def interpolate(xs, ys, x: float) -> float | None:
    """Linear interpolation of the polyline through (xs, ys) at x.

    Reads the first segment whose ends enclose x, in either order, so xs
    need not be monotone; a zero-width segment yields its left end. None
    when no segment encloses x.
    """
    for i in range(1, len(xs)):
        x0, x1 = xs[i - 1], xs[i]
        if x0 <= x <= x1 or x1 <= x <= x0:
            y0, y1 = ys[i - 1], ys[i]
            if x1 == x0:
                return y0
            return y0 + (x - x0) * (y1 - y0) / (x1 - x0)
    return None


def _unsaturated(sweep: SweepResult) -> list[SweepPoint]:
    """Points before the first saturated one."""
    usable = []
    for p in sweep.points:
        if p.summary.saturated:
            break
        usable.append(p)
    return usable


def qps_at_utilization(sweep: SweepResult, target: float) -> float | None:
    """Load at which CPU utilization crosses the target, interpolated
    between adjacent non-saturated points (the origin anchors the curve)."""
    usable = _unsaturated(sweep)
    return interpolate([0.0] + [p.summary.cpu_utilization for p in usable],
                       [0.0] + [p.qps for p in usable], target)


def derive_lqos(sweep: SweepResult, qos_multiplier: float = 5.0,
                manual_override: float | None = None,
                override_reason: str | None = None) -> QosTarget | None:
    """QoS target from the sweep: qos_multiplier x the mean service time
    interpolated at the 20%-utilization point; None for a closed-loop sweep,
    which has no latency QoS.

    Points past the first saturated one are ignored; QoS-violating points
    still count, since utilization keeps rising beyond the latency knee.
    When utilization never reaches 20% before saturation the target is
    UNREACHABLE and a manual override is required.
    """
    if isinstance(sweep.scenario.mode, ClosedLoop):
        return None
    usable = _unsaturated(sweep)
    crossing = None
    prev_q, prev_u, prev_s = 0.0, 0.0, (
        usable[0].summary.mean_service_time if usable else 0.0)
    for p in usable:
        u = p.summary.cpu_utilization
        s = p.summary.mean_service_time
        if prev_u <= 0.20 <= u:
            bq = interpolate((prev_u, u), (prev_q, p.qps), 0.20)
            # Rounding can put bq an ulp past the segment's end.
            bs = interpolate((prev_q, p.qps), (prev_s, s), min(bq, p.qps))
            crossing = (bq, bs)
            break
        prev_q, prev_u, prev_s = p.qps, u, s
    if crossing is None:
        return QosTarget(
            lqos=manual_override, basis_qps=None, basis_service_time=None,
            qos_multiplier=qos_multiplier, unreachable=True,
            manual_override=manual_override,
            override_reason=override_reason)
    basis_qps, basis_service = crossing
    if manual_override is not None:
        return QosTarget(lqos=manual_override, basis_qps=basis_qps,
                         basis_service_time=basis_service,
                         qos_multiplier=qos_multiplier,
                         manual_override=manual_override,
                         override_reason=override_reason)
    return QosTarget(lqos=qos_multiplier * basis_service,
                     basis_qps=basis_qps, basis_service_time=basis_service,
                     qos_multiplier=qos_multiplier)


def qos_saturation(sweep: SweepResult,
                   qos: QosTarget | None) -> SaturationResult:
    """Saturation of a sweep. A closed-loop sweep has no latency QoS: its
    saturation is the peak realized completion rate across the session
    sweep, whatever the target. Otherwise it is the largest load with
    p95 <= LQoS, timely ratio >= 97.5%, and no saturation flag; linear
    interpolation against the first failing point refines the crossing.
    Returns 0 (flagged, binding "none") when no point qualifies or the
    target is not resolved."""
    if isinstance(sweep.scenario.mode, ClosedLoop):
        best = 0.0
        for p in sweep.points:
            window = p.summary.completed / max(
                sweep.scenario.duration - sweep.warmup, 1e-9)
            best = max(best, window)
        return SaturationResult(best, True, "throughput")
    if not qos.resolved:
        return SaturationResult(0.0, False, "none")
    lqos = qos.lqos

    def ok(p: SweepPoint) -> bool:
        return (p.summary.p95 <= lqos and p.gate_ok
                and not p.summary.saturated
                and not math.isnan(p.summary.p95))

    last_ok = -1
    for i, p in enumerate(sweep.points):
        if ok(p):
            last_ok = i
    if last_ok < 0:
        return SaturationResult(0.0, False, "none")
    p_ok = sweep.points[last_ok]
    if last_ok == len(sweep.points) - 1:
        return SaturationResult(p_ok.qps, True, "range")
    nxt = sweep.points[last_ok + 1]
    candidates = []
    if math.isnan(nxt.summary.p95) or nxt.summary.saturated:
        candidates.append((p_ok.qps, "saturated"))
    else:
        loads = (p_ok.qps, nxt.qps)
        if nxt.summary.p95 > lqos:
            candidates.append((interpolate(
                (p_ok.summary.p95, nxt.summary.p95), loads, lqos), "qos"))
        if nxt.summary.timely_ratio < TIMELY_GATE:
            candidates.append((interpolate(
                (p_ok.summary.timely_ratio, nxt.summary.timely_ratio), loads,
                TIMELY_GATE), "timely"))
    if not candidates:
        return SaturationResult(p_ok.qps, True, "range")
    qps, binding = min(candidates, key=lambda c: c[0])
    qps = max(qps, p_ok.qps)
    return SaturationResult(qps, True, binding)


@dataclass(frozen=True)
class StudyEntry:
    """One sweep of a study, its QoS target (None in closed loop) and its
    saturation under that target."""

    sweep: SweepResult
    qos: QosTarget | None
    saturation: SaturationResult


def study(profile: WorkloadProfile,
          runs: list[tuple[ScenarioConfig, ResourceLimits]],
          qps_range: tuple[float, float], n_points: int, config: RunConfig,
          lqos_override: float | None = None,
          override_reason: str | None = None) -> list[StudyEntry]:
    """The procedure of every study: one sweep per (scenario, limits) run,
    all through one qps_sweeps call, then each sweep's own QoS target at
    the profile's qos_multiplier and its saturation under that target.

    A load-level study is one run, a hyper-threading study one run per
    topology, a resource-limit study one run per LLC-way or memory-bandwidth
    level. Each run derives its own target, since the service time at 20%
    utilization shifts with the topology and as the miss ratio grows or
    the bandwidth binds, so saturation tracks the service rate the run can
    achieve. All runs share the same load points, so metrics at matching
    loads compare directly.
    """
    out = []
    for sw in qps_sweeps(profile, runs, qps_range, n_points, config):
        qos = derive_lqos(sw, profile.qos_multiplier, lqos_override,
                          override_reason)
        out.append(StudyEntry(sw, qos, qos_saturation(sw, qos)))
    return out


@dataclass(frozen=True)
class ScenarioComparison:
    entries: dict[Topology, StudyEntry]
    qps_at_20: dict[Topology, float | None]
    qps_at_50: dict[Topology, float | None]
    ratios: dict[str, float | None]


def compare_scenarios(profile: WorkloadProfile, limits: ResourceLimits,
                      qps_range: tuple[float, float], n_points: int,
                      base_scenario: ScenarioConfig,
                      config: RunConfig,
                      lqos_override: float | None = None) -> ScenarioComparison:
    """Characterize all three topologies with shared arrival schedules and
    report saturation plus the loads reaching 20% and 50% utilization."""
    topologies = (Topology.ONE_ST, Topology.TWO_ST, Topology.TWO_SMT)
    runs = [(replace(base_scenario, topology=t), limits) for t in topologies]
    entries = dict(zip(topologies, study(profile, runs, qps_range, n_points,
                                         config, lqos_override)))
    at20 = {t: qps_at_utilization(e.sweep, 0.20) for t, e in entries.items()}
    at50 = {t: qps_at_utilization(e.sweep, 0.50) for t, e in entries.items()}

    def _ratio(a, b):
        if a is None or b is None or b == 0:
            return None
        return a / b

    ratios = {
        "two_st_over_two_smt_at_20": _ratio(at20[Topology.TWO_ST],
                                            at20[Topology.TWO_SMT]),
        "two_smt_over_one_st_at_20": _ratio(at20[Topology.TWO_SMT],
                                            at20[Topology.ONE_ST]),
        "two_st_over_two_smt_at_50": _ratio(at50[Topology.TWO_ST],
                                            at50[Topology.TWO_SMT]),
        "two_st_over_one_st_saturation": _ratio(
            entries[Topology.TWO_ST].saturation.qps,
            entries[Topology.ONE_ST].saturation.qps),
    }
    return ScenarioComparison(entries=entries, qps_at_20=at20,
                              qps_at_50=at50, ratios=ratios)


# ---------------------------------------------------------------------------
# Profile calibration

@dataclass(frozen=True)
class CalibrationReport:
    residuals: dict[str, float]
    achieved: dict[str, float]
    iterations: int
    notes: tuple[str, ...] = ()

    @property
    def worst_residual(self) -> float:
        return max((abs(v) for v in self.residuals.values()), default=0.0)


class CalibrationError(ExperimentError):
    """Raised when targets cannot be met; names the binding constraint."""


CALIBRATION_TARGETS = frozenset((
    "lqos", "saturation_qps", "mem_bw_at_saturation", "smt_ratio_20"))
CALIBRATION_ITERATIONS = 7  # bisection steps on smt_efficiency
CALIBRATION_TOLERANCE = 0.20  # largest relative residual accepted


def pin_cpu_work(profile: WorkloadProfile, lqos: float,
                 platform: PlatformConfig) -> float:
    """The cpu_work that makes the profile's isolated service time under
    unconstrained limits lqos / qos_multiplier: that time less the lone
    memory phase time, then less the lone disk phase time. It does not
    depend on the profile's own cpu_work, and it is not positive when the
    memory and disk phases alone take the whole time."""
    _, mem_t, disk_t = profile.phase_times(
        ResourceLimits.unconstrained(platform), platform)
    return lqos / profile.qos_multiplier - mem_t - disk_t


def calibrate_profile(profile: WorkloadProfile, targets: dict[str, float],
                      scenario: ScenarioConfig,
                      qps_range: tuple[float, float], n_points: int,
                      config: RunConfig,
                      lqos_override: float | None = None
                      ) -> tuple[WorkloadProfile, CalibrationReport]:
    """Fit profile knobs to measured targets, in dominance order.

    cpu_work is set first (pin_cpu_work) so the isolated service time
    matches lqos / qos_multiplier; mem_accesses second so memory traffic at
    the saturation load matches mem_bw_at_saturation; smt_efficiency last
    to hit a TWO_ST over TWO_SMT supported-load ratio at 20% utilization.
    That step bisects smt_efficiency over [0.35, 0.95] for at most
    CALIBRATION_ITERATIONS steps, stops once the ratio lies within 2% of
    its target and keeps the candidate whose ratio came closest. Residuals
    above CALIBRATION_TOLERANCE in the verification sweeps raise
    CalibrationError naming the worst target.
    """
    if not targets:
        raise CalibrationError("targets: must not be empty")
    unknown = set(targets) - CALIBRATION_TARGETS
    if unknown:
        raise CalibrationError(f"targets: unknown keys {sorted(unknown)}")
    if "lqos" in targets and isinstance(scenario.mode, ClosedLoop):
        raise CalibrationError("lqos: a closed-loop sweep has no latency "
                               "QoS target")

    p = profile
    notes: list[str] = []
    limits = ResourceLimits.unconstrained(config.platform)

    lqos_t = targets.get("lqos")
    sat_t = targets.get("saturation_qps")

    if lqos_t is not None:
        p = replace(p, cpu_work=pin_cpu_work(p, lqos_t, config.platform))
        if p.cpu_work <= 0:
            raise CalibrationError(
                "lqos: memory and disk phases alone exceed the implied "
                f"service time {lqos_t / p.qos_multiplier:.6g}s (binding "
                "constraint: non-compute demand)")

    bw_t = targets.get("mem_bw_at_saturation")
    if bw_t is not None:
        anchor = sat_t
        if anchor is None:
            raise CalibrationError(
                "mem_bw_at_saturation: requires a saturation_qps target")
        m = miss_ratio(p, limits.llc_ways, config.platform.llc_total_ways)
        if m <= 0:
            raise CalibrationError(
                "mem_bw_at_saturation: profile has a zero miss ratio at "
                "full LLC (binding constraint: miss_min)")
        accesses = bw_t * 1e6 / (anchor * m * config.platform.cache_line)
        p = replace(p, mem_accesses=accesses)
        if lqos_t is not None:
            # Memory time changed; re-pin cpu_work to the service target.
            p = replace(p, cpu_work=pin_cpu_work(p, lqos_t, config.platform))
            if p.cpu_work <= 0:
                raise CalibrationError(
                    "lqos: memory traffic needed for mem_bw_at_saturation "
                    "exceeds the implied service time (binding constraint: "
                    "mem_bw_at_saturation)")

    ratio_t = targets.get("smt_ratio_20")
    iterations = 0
    if ratio_t is not None:
        lo, hi = 0.35, 0.95
        best_r = None
        for _ in range(CALIBRATION_ITERATIONS):
            iterations += 1
            mid = 0.5 * (lo + hi)
            cand = replace(p, smt_efficiency=mid)
            comp = compare_scenarios(cand, limits, qps_range, n_points,
                                     scenario, config,
                                     lqos_override=lqos_override)
            r = comp.ratios["two_st_over_two_smt_at_20"]
            if r is None:
                notes.append("smt_ratio_20: utilization never reached 20%")
                break
            if best_r is None or abs(r - ratio_t) < abs(best_r - ratio_t):
                best, best_r = cand, r
            if abs(r - ratio_t) / ratio_t <= 0.02:
                break
            # Lower sigma slows co-run threads, raising the ratio.
            if r < ratio_t:
                hi = mid
            else:
                lo = mid
        if best_r is not None:
            p = best

    # Verification sweep, when a residual reads it, and residual report.
    achieved: dict[str, float] = {}
    residuals: dict[str, float] = {}
    if lqos_t is not None or sat_t is not None or bw_t is not None:
        [e] = study(p, [(scenario, limits)], qps_range, n_points, config,
                    lqos_override)
    if lqos_t is not None:
        got = e.qos.lqos if e.qos.resolved else math.nan
        achieved["lqos"] = got
        residuals["lqos"] = ((got - lqos_t) / lqos_t if e.qos.resolved
                             else math.inf)
    if sat_t is not None:
        achieved["saturation_qps"] = e.saturation.qps
        residuals["saturation_qps"] = (e.saturation.qps - sat_t) / sat_t
    if bw_t is not None:
        sat_anchor = achieved.get("saturation_qps", sat_t)
        bw = sweep_metric_at(e.sweep, sat_anchor, "mem_bw")
        achieved["mem_bw_at_saturation"] = bw
        residuals["mem_bw_at_saturation"] = (bw - bw_t) / bw_t
    if ratio_t is not None:
        # The kept candidate's ratio was measured with this seed and config.
        r = best_r
        if r is None:
            comp = compare_scenarios(p, limits, qps_range, n_points,
                                     scenario, config,
                                     lqos_override=lqos_override)
            r = comp.ratios["two_st_over_two_smt_at_20"]
        achieved["smt_ratio_20"] = r if r is not None else math.nan
        residuals["smt_ratio_20"] = ((r - ratio_t) / ratio_t
                                     if r is not None else math.inf)

    report = CalibrationReport(residuals=residuals, achieved=achieved,
                               iterations=iterations, notes=tuple(notes))
    if report.worst_residual > CALIBRATION_TOLERANCE:
        worst = max(residuals, key=lambda k: abs(residuals[k]))
        raise CalibrationError(
            f"calibration missed {worst}: residual "
            f"{residuals[worst]:+.1%} exceeds {CALIBRATION_TOLERANCE:.0%}")
    return p, report


def sweep_metric_at(sweep: SweepResult, qps: float, name: str) -> float:
    """A summary metric interpolated at a load, held at the end values
    outside the sweep; points where the metric is NaN are skipped (NaN when
    all are)."""
    pts = [(p.qps, getattr(p.summary, name)) for p in sweep.points
           if not math.isnan(getattr(p.summary, name))]
    if not pts:
        return math.nan
    qs, vs = zip(*pts)
    if qps <= qs[0]:
        return vs[0]
    v = interpolate(qs, vs, qps)
    return vs[-1] if v is None else v


# ---------------------------------------------------------------------------
# Experiment spec files name profile, scenario, limits, range, points, and
# seeds; model._SPEC_KEYS declares their keys and types. Profiles are
# included by reference.

@dataclass(frozen=True)
class ExperimentSpec:
    name: str
    profile: WorkloadProfile
    scenario: ScenarioConfig
    limits: ResourceLimits
    qps_range: tuple[float, float]
    n_points: int
    config: RunConfig
    thresholds: Thresholds  # taxonomy.Thresholds, from the threshold_* keys
    lqos_override: float | None = None
    override_reason: str | None = None
    ways_list: tuple[int, ...] = ()
    bw_limits: tuple[float | None, ...] = ()
    targets: dict[str, float] = field(default_factory=dict)
    raw: dict[str, str] = field(default_factory=dict)


# The keys only one mode reads, the first two its sweep's range; the other
# mode rejects them, and the ones without a default are required in their
# own mode.
_MODE_KEYS = {"open_loop": ("qps_min", "qps_max", "n_clients", "arrival",
                            "zipf_alpha", "zipf_support"),
              "closed_loop": ("sessions_min", "sessions_max", "think_time")}


def load_experiment_spec(path: str | Path,
                         platform: PlatformConfig | None = None,
                         seed_override: int | None = None) -> ExperimentSpec:
    """Parse an experiment spec file and resolve its profile reference.

    The profile key names a path relative to the spec file, a path from
    the working directory or a shipped profile, tried in that order. A
    spec without a name key is named after the file. Malformed lines are
    reported with line numbers.
    """
    path = Path(path)
    source = str(path)

    def profile_file(ref: str) -> WorkloadProfile:
        for candidate in (path.parent / ref, Path(ref)):
            if candidate.expanduser().is_file():
                return load_profile(candidate.expanduser())
        try:
            shipped = shipped_profile_path(ref.removesuffix(".profile"))
        except FileNotFoundError:
            raise FileFormatError(
                f"{source}: profile {ref!r} not found (no such "
                "file and no shipped profile by that name)")
        return load_profile(shipped)

    spec = spec_from_fields(parse_kv_text(path.read_text(), source=source),
                            source, path.stem, profile_file,
                            platform or PlatformConfig())
    if seed_override is None:
        return spec
    return replace(spec, config=replace(spec.config, seed=seed_override))


def spec_from_fields(raw: dict[str, str], source: str, name: str,
                     profile_of: Callable[[str], WorkloadProfile],
                     platform: PlatformConfig) -> ExperimentSpec:
    """The spec that parsed spec fields give: profile_of turns the profile
    key into its profile, name names a spec without a name key, and
    source heads every message."""
    from .taxonomy import Thresholds  # taxonomy imports this module
    prefixed = {f"{prefix}_{key}": (parse_number, None) for prefix, keys
                in (("target", CALIBRATION_TARGETS),
                    ("threshold", Thresholds.__dataclass_fields__))
                for key in sorted(keys)}
    f = read_fields(raw, {**_SPEC_KEYS, **prefixed}, "spec", source)
    profile = profile_of(f["profile"])
    validate_profile(profile, platform)

    topo_raw = f["topology"].upper()
    try:
        topology = Topology[topo_raw]
    except KeyError:
        raise FileFormatError(f"{source}: unknown topology {topo_raw!r}")

    mode_raw = f["mode"]
    if mode_raw not in _MODE_KEYS:
        raise FileFormatError(f"{source}: unknown mode {mode_raw!r}")
    unread = [k for other, keys in _MODE_KEYS.items() if other != mode_raw
              for k in keys if k in raw]
    if unread:
        raise FileFormatError(
            f"{source}: key {unread[0]!r}: not read in {mode_raw} mode")
    for key in _MODE_KEYS[mode_raw]:
        if key not in f:
            raise FileFormatError(f"{source}: missing required key {key!r}")
    if mode_raw == "open_loop":
        qps_lo, qps_hi, n_clients = f["qps_min"], f["qps_max"], f["n_clients"]
        mode: OpenLoop | ClosedLoop = OpenLoop(qps_lo)
    else:
        qps_lo, qps_hi = float(f["sessions_min"]), float(f["sessions_max"])
        n_clients = f["sessions_max"]
        mode = ClosedLoop(f["sessions_min"], f["think_time"])
    # 0 < lo < hi; a session count, an integer, is then at least 1.
    lo_key, hi_key = _MODE_KEYS[mode_raw][:2]
    if not qps_lo > 0.0:
        raise FileFormatError(f"{source}: key {lo_key!r}: must be positive")
    if not qps_lo < qps_hi:
        raise FileFormatError(
            f"{source}: key {hi_key!r}: must exceed {lo_key!r}")
    if f["points"] < 2:
        raise FileFormatError(f"{source}: key 'points': must be at least 2")
    duration = f["duration"]
    scenario = ScenarioConfig(topology=topology, n_clients=n_clients,
                              mode=mode, duration=duration, rtt=f["rtt"])

    limits = ResourceLimits(f.get("llc_ways", platform.llc_total_ways),
                            f["mem_bw_limit"], f["disk_bw_limit"])
    limits.validate_against(platform)

    if f["arrival"] == "zipf":
        arrival = ArrivalModel("zipf", f["zipf_alpha"], f["zipf_support"])
    else:
        arrival = ArrivalModel(kind=f["arrival"])
        unread = [k for k in ("zipf_alpha", "zipf_support") if k in raw]
        if unread:
            raise FileFormatError(f"{source}: key {unread[0]!r}: not read "
                                  f"with arrival {f['arrival']}")
    if f["seed"] < 0:
        raise FileFormatError(
            f"{source}: key 'seed': must be a non-negative integer")
    # nan and inf fail this check, which names the range.
    warmup = f.get("warmup")
    if warmup is not None and not 0.0 <= warmup < duration:
        raise FileFormatError(
            f"{source}: key 'warmup': must lie in [0, duration) = "
            f"[0, {duration:g}) s")
    config = RunConfig(platform=platform, arrival=arrival, seed=f["seed"],
                       warmup=warmup)

    lqos_override = f.get("lqos_override")
    if lqos_override is not None and lqos_override <= 0.0:
        raise FileFormatError(
            f"{source}: key 'lqos_override': must be positive")
    ways_list = f.get("ways_list", ())
    for w in ways_list:
        if not 1 <= w <= platform.llc_total_ways:
            raise FileFormatError(
                f"{source}: ways_list: {w} outside [1, "
                f"{platform.llc_total_ways}]")
    bw_limits = f.get("bw_limits", ())
    if any(b is not None and b <= 0.0 for b in bw_limits):
        raise FileFormatError(
            f"{source}: key 'bw_limits': must be positive when finite")

    return ExperimentSpec(
        name=f.get("name", name), profile=profile,
        scenario=scenario, limits=limits,
        qps_range=(qps_lo, qps_hi), n_points=f["points"], config=config,
        lqos_override=lqos_override,
        override_reason=f.get("override_reason"),
        ways_list=ways_list, bw_limits=bw_limits,
        thresholds=Thresholds(**{k.removeprefix("threshold_"): v
                                 for k, v in f.items()
                                 if k.startswith("threshold_")}),
        targets={k.removeprefix("target_"): v for k, v in f.items()
                 if k.startswith("target_")},
        raw=raw)


def shipped_spec_path(name: str) -> Path:
    """Path of an experiment spec shipped with the package."""
    root = Path(__file__).parent / "specs"
    path = root / f"{name}.spec"
    if not path.exists():
        raise FileNotFoundError(f"no shipped spec named {name!r}")
    return path
