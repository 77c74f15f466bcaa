"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines; the shipped workload characterizations are simulated once and shared
across criteria.
"""

import json
import math
import time
from dataclasses import replace

import numpy as np
import pytest

from tailsim.cli import main as cli_main
from tailsim.engine import simulate_open_loop
from tailsim.experiments import (RunConfig, compare_scenarios, derive_lqos,
                                 interpolate, load_experiment_spec,
                                 qps_sweeps,
                                 shipped_spec_path, study)
from tailsim.loadgen import ArrivalModel, build_schedule
from tailsim.metrics import summarize
from tailsim.model import (OpenLoop, PlatformConfig, ResourceLimits,
                           ScenarioConfig, ServiceDist, Topology,
                           WorkloadProfile)
from tailsim.taxonomy import classify, extract_features

from trace_columns import assert_same_requests

PLATFORM = PlatformConfig()
FREE = ResourceLimits.unconstrained(PLATFORM)

TABLE2_SATURATION = {
    "img-dnn": 650.0, "masstree": 1000.0, "moses": 30.0, "shore": 100.0,
    "silo": 1000.0, "specjbb": 1500.0, "sphinx": 0.7, "xapian": 350.0,
}
TABLE2_LQOS_MS = {
    "img-dnn": 3.6, "masstree": 1.4, "moses": 7.1, "shore": 25.0,
    "silo": 0.5, "specjbb": 0.7, "sphinx": 4275.4, "xapian": 6.2,
}
EXPECTED_CATEGORY = {
    "sphinx": "high_processor", "moses": "high_disk", "shore": "high_disk",
    "img-dnn": "fast", "masstree": "fast", "silo": "fast",
    "specjbb": "fast", "xapian": "fast", "media-streaming": "streaming",
}


def report(criterion: int, ok: bool, detail: str) -> None:
    print(f"\nACCEPTANCE {criterion:2d} {'PASS' if ok else 'FAIL'}: {detail}")


@pytest.fixture(scope="session")
def shipped_runs():
    """Every shipped workload characterized once through its shipped spec."""
    runs = {}
    t0 = time.time()
    for name in EXPECTED_CATEGORY:
        spec = load_experiment_spec(shipped_spec_path(name))
        [e] = study(spec.profile, [(spec.scenario, spec.limits)],
                    spec.qps_range, spec.n_points, spec.config,
                    spec.lqos_override, spec.override_reason)
        runs[name] = (spec, e)
    runs["__elapsed__"] = time.time() - t0
    return runs


def erlang_c_wait_probability(servers: int, offered_load: float) -> float:
    # Independent queueing oracle, written before the engine tests against
    # it: probability an arrival waits in an M/M/c queue.
    a = offered_load
    rho = a / servers
    denom = sum(a ** k / math.factorial(k) for k in range(servers))
    top = a ** servers / (math.factorial(servers) * (1.0 - rho))
    return top / (denom + top)


def test_criterion_1_mm1_oracle():
    t0 = time.time()
    lam, mu = 500.0, 1000.0
    prof = WorkloadProfile(name="exp1ms", cpu_work=1.0 / mu,
                           service_dist=ServiceDist("exponential"))
    scen = ScenarioConfig(Topology.ONE_ST, 5000, OpenLoop(lam), 450.0,
                          rtt=0.0)
    sched = build_schedule(ArrivalModel("poisson"), lam, 450.0, seed=21)
    trace = simulate_open_loop(prof, scen, FREE, PLATFORM, sched, seed=22)
    s = summarize(trace, warmup=10.0)
    elapsed = time.time() - t0

    assert s.completed >= 200_000
    util_exp = lam / mu
    mean_exp = 1.0 / (mu - lam)
    p95_exp = math.log(20.0) / (mu - lam)
    assert s.cpu_utilization == pytest.approx(util_exp, abs=0.02)
    assert s.mean_latency == pytest.approx(mean_exp, rel=0.05)
    assert s.p95 == pytest.approx(p95_exp, rel=0.05)
    assert elapsed < 30.0
    report(1, True,
           f"M/M/1 n={s.completed} util={s.cpu_utilization:.3f} (exp 0.50) "
           f"mean={s.mean_latency * 1000:.3f}ms (exp 2.000) "
           f"p95={s.p95 * 1000:.3f}ms (exp {p95_exp * 1000:.3f}) "
           f"in {elapsed:.1f}s")


def test_criterion_2_mm2_oracle():
    lam, mu, servers = 1500.0, 1000.0, 2
    wait_p = erlang_c_wait_probability(servers, lam / mu)
    mean_exp = wait_p / (servers * mu - lam) + 1.0 / mu
    # frozen value computed from the oracle above: 2.2857 ms
    assert mean_exp == pytest.approx(2.2857e-3, rel=1e-4)

    prof = WorkloadProfile(name="exp1ms", cpu_work=1.0 / mu,
                           service_dist=ServiceDist("exponential"))
    scen = ScenarioConfig(Topology.TWO_ST, 8000, OpenLoop(lam), 150.0,
                          rtt=0.0)
    sched = build_schedule(ArrivalModel("poisson"), lam, 150.0, seed=31)
    trace = simulate_open_loop(prof, scen, FREE, PLATFORM, sched, seed=32)
    s = summarize(trace, warmup=10.0)
    assert s.completed >= 200_000
    assert s.mean_latency == pytest.approx(mean_exp, rel=0.05)
    report(2, True,
           f"M/M/2 n={s.completed} mean={s.mean_latency * 1000:.4f}ms "
           f"(Erlang-C {mean_exp * 1000:.4f}ms)")


def test_criterion_3_degeneracy_suite():
    prof = WorkloadProfile(name="mix", cpu_work=0.0008, mem_accesses=50000,
                           miss_min=0.1, miss_max=0.4, miss_shape=1.3,
                           mem_stream_rate=6000.0, footprint=8.0,
                           disk_bytes=20000.0, smt_efficiency=1.0,
                           service_dist=ServiceDist("lognormal", 1.2))
    sched = build_schedule(ArrivalModel("zipf", 1.0, 1000), 900.0, 15.0, 5)

    def run(topology, limits):
        scen = ScenarioConfig(topology, 12, OpenLoop(900.0), 15.0)
        return simulate_open_loop(prof, scen, limits, PLATFORM, sched,
                                  seed=3)

    def logs(trace):
        return [trace.mem_segments.tobytes(), trace.disk_segments.tobytes(),
                *(c.tobytes() for c in trace.cpu_busy)]

    def assert_same_run(a, b):
        assert_same_requests(a, b)
        assert logs(a) == logs(b)

    # sigma = 1.0: the SMT topology degenerates to two independent cores
    assert_same_run(run(Topology.TWO_ST, FREE), run(Topology.TWO_SMT, FREE))

    # flat miss curve: identical traces at every way count
    flat = replace(prof, miss_min=0.2, miss_max=0.2)

    def run_flat(ways):
        scen = ScenarioConfig(Topology.ONE_ST, 12, OpenLoop(900.0), 15.0)
        return simulate_open_loop(flat, scen, ResourceLimits(llc_ways=ways),
                                  PLATFORM, sched, seed=3)

    base = run_flat(11)
    for ways in (8, 5, 2, 1):
        assert_same_run(run_flat(ways), base)

    # non-binding bandwidth limits: identical to unlimited
    unlimited = run(Topology.ONE_ST, ResourceLimits(llc_ways=11))
    capped = run(Topology.ONE_ST,
                 ResourceLimits(llc_ways=11, mem_bw_limit=50000.0,
                                disk_bw_limit=550.0))
    assert_same_run(capped, unlimited)
    report(3, True, "SMT/flat-miss/non-binding-limit degeneracies exact")


def test_criterion_4_table2_reproduction(shipped_runs):
    elapsed = shipped_runs["__elapsed__"]
    lines = []
    for name, sat_target in TABLE2_SATURATION.items():
        spec, e = shipped_runs[name]
        qos, sat = e.qos, e.saturation
        assert qos.resolved, name
        lqos_target = TABLE2_LQOS_MS[name] / 1000.0
        sat_err = (sat.qps - sat_target) / sat_target
        lqos_err = (qos.lqos - lqos_target) / lqos_target
        assert abs(sat_err) <= 0.20, (name, sat.qps, sat_target)
        assert abs(lqos_err) <= 0.10, (name, qos.lqos, lqos_target)
        lines.append(f"{name} sat {sat.qps:.1f} ({sat_err:+.1%}) "
                     f"lqos {qos.lqos * 1000:.2f}ms ({lqos_err:+.1%})")
    # shore's target is a manual override: the derivation must report
    # UNREACHABLE without it
    spec, e = shipped_runs["shore"]
    bare = derive_lqos(e.sweep, spec.profile.qos_multiplier)
    assert bare.unreachable
    assert elapsed < 900.0
    report(4, True, f"Table-2 suite in {elapsed:.0f}s: " + "; ".join(lines))


def test_criterion_5_scenario_ordering(shipped_runs):
    rng = np.random.default_rng(777)
    violations = 0
    for i in range(50):
        cpu = float(rng.uniform(0.5e-3, 4e-3))
        sigma = float(rng.uniform(0.6, 0.95))
        cv = float(rng.uniform(0.0, 1.5))
        dist = (ServiceDist("deterministic") if cv < 0.05
                else ServiceDist("lognormal", cv))
        prof = WorkloadProfile(name=f"r{i}", cpu_work=cpu,
                               smt_efficiency=sigma, service_dist=dist)
        lo, hi = 0.05 / cpu, 1.6 / cpu
        scen = ScenarioConfig(Topology.ONE_ST, 16, OpenLoop(lo), 8.0)
        cfg = RunConfig(arrival=ArrivalModel("zipf", 1.0, 200),
                        seed=1000 + i, warmup=1.0)
        entries = study(prof, [(replace(scen, topology=topo), FREE)
                               for topo in Topology], (lo, hi), 6, cfg)
        sats = {e.sweep.scenario.topology: e.saturation.qps
                for e in entries}
        if not (sats[Topology.TWO_ST] >= sats[Topology.TWO_SMT]
                >= sats[Topology.ONE_ST]):
            violations += 1
    assert violations == 0

    spec, _ = shipped_runs["silo"]
    comp = compare_scenarios(spec.profile, spec.limits, spec.qps_range, 10,
                             spec.scenario, spec.config)
    ratio = comp.ratios["two_st_over_two_smt_at_20"]
    assert ratio == pytest.approx(1.23, abs=0.15)
    report(5, True, f"ordering held for 50/50 random profiles; silo "
                    f"2ST/2SMT@20% = {ratio:.3f} (target 1.23 +/- 0.15)")


def test_criterion_6_partitioning_reproduction():
    spec = load_experiment_spec(shipped_spec_path("img-dnn-partition"))
    entries = study(spec.profile,
                    [(spec.scenario, replace(spec.limits, llc_ways=w))
                     for w in spec.ways_list],
                    spec.qps_range, spec.n_points, spec.config)
    sats = {w: e.saturation.qps for w, e in zip(spec.ways_list, entries)}
    ordered = [sats[w] for w in (11, 8, 5, 2)]
    assert ordered == sorted(ordered, reverse=True)
    assert len(set(ordered)) == 4  # strictly decreasing
    assert sats[11] == pytest.approx(600.0, rel=0.20)
    assert sats[5] == pytest.approx(400.0, rel=0.20)
    assert sats[2] == pytest.approx(300.0, rel=0.20)

    mspec = load_experiment_spec(shipped_spec_path(
        "media-streaming-partition"))
    mentries = study(mspec.profile,
                     [(mspec.scenario, replace(mspec.limits, llc_ways=w))
                      for w in mspec.ways_list],
                     mspec.qps_range, mspec.n_points, mspec.config)
    msats = [e.saturation.qps for e in mentries]
    delta = abs(msats[0] - msats[1]) / msats[0]
    assert delta < 0.02
    report(6, True,
           f"img-dnn ways 11/8/5/2 -> {sats[11]:.0f}/{sats[8]:.0f}/"
           f"{sats[5]:.0f}/{sats[2]:.0f} QPS; media-streaming ways 5 vs 2 "
           f"delta {delta:.2%}")


def test_criterion_7_mba_reproduction():
    spec = load_experiment_spec(shipped_spec_path("img-dnn-mba"))
    entries = dict(zip(spec.bw_limits, study(
        spec.profile,
        [(spec.scenario, replace(spec.limits, mem_bw_limit=b))
         for b in spec.bw_limits],
        spec.qps_range, spec.n_points, spec.config)))
    unlimited, limited = entries[None], entries[4000.0]
    peak = max(p.summary.mem_bw for p in unlimited.sweep.points)
    assert peak == pytest.approx(5500.0, rel=0.20)
    util_700 = interpolate([p.qps for p in limited.sweep.points],
                           [p.summary.cpu_utilization
                            for p in limited.sweep.points], 700.0)
    assert util_700 is not None and util_700 >= 0.85
    assert limited.saturation.qps < unlimited.saturation.qps
    report(7, True,
           f"img-dnn 2 ways: peak mem bw {peak:.0f} MB/s (target 5500), "
           f"4000 MB/s cap -> util@700={util_700:.2f}, saturation "
           f"{limited.saturation.qps:.0f} < {unlimited.saturation.qps:.0f}")


def test_criterion_8_timeliness_property():
    # hand oracle: 1 client, 2 ms deterministic service, 1 ms deterministic
    # gaps; only request 0 is issued on time
    prof = WorkloadProfile(name="slow", cpu_work=0.002)
    scen = ScenarioConfig(Topology.ONE_ST, 1, OpenLoop(1000.0), 1.0,
                          rtt=0.0)
    sched = build_schedule(ArrivalModel("deterministic"), 1000.0, 1.0, 0)
    assert len(sched) == 1000
    trace = simulate_open_loop(prof, scen, FREE, PLATFORM, sched, 3)
    ratio = float(trace.timely.mean())
    assert ratio == 1.0 / 1000.0

    # adequate clients: every request timely
    scen_ok = ScenarioConfig(Topology.ONE_ST, 64, OpenLoop(400.0), 10.0)
    sched_ok = build_schedule(ArrivalModel("poisson"), 400.0, 10.0, 9)
    trace_ok = simulate_open_loop(
        WorkloadProfile(name="fast", cpu_work=0.0005,
                        service_dist=ServiceDist("exponential")),
        scen_ok, FREE, PLATFORM, sched_ok, 10)
    assert trace_ok.timely.all()

    # the 97.5% gate flags exactly the points the hand oracle predicts:
    # with one client, deterministic everything, requests are late iff the
    # per-client gap 1/q is shorter than service + round trip
    rtt = 0.0001
    service = 0.002
    cfg = RunConfig(arrival=ArrivalModel("deterministic"), seed=50,
                    warmup=0.5)
    scen_g = ScenarioConfig(Topology.ONE_ST, 1, OpenLoop(100.0), 20.0,
                            rtt=rtt)
    [sweep] = qps_sweeps(prof, [(scen_g, FREE)], (100.0, 800.0), 7, cfg)
    predicted_flags = []
    observed_flags = []
    for p in sweep.points:
        predicted = p.qps <= 1.0 / (service + 2 * rtt)
        predicted_flags.append(predicted)
        observed_flags.append(p.gate_ok)
    assert observed_flags == predicted_flags
    report(8, True,
           f"overload ratio exactly 1/1000; adequate clients 1.0; gate "
           f"flags match oracle on all {len(sweep.points)} points")


def test_criterion_9_manifest_determinism(tmp_path):
    profile_text = (
        "name: synth\ncpu_work: 0.001\nmem_accesses: 40000\n"
        "miss_min: 0.1\nmiss_max: 0.4\nmiss_shape: 1.5\n"
        "mem_stream_rate: 6000.0\nfootprint: 4.0\nnet_tx_bytes: 3000.0\n"
        "smt_efficiency: 0.8\nservice_dist: lognormal\nservice_cv: 0.8\n")
    spec_text = (
        "name: synth\nprofile: synth.profile\ntopology: ONE_ST\n"
        "mode: open_loop\nqps_min: 60.0\nqps_max: 700.0\npoints: 4\n"
        "duration: 8.0\nn_clients: 12\narrival: zipf\nzipf_alpha: 1.0\n"
        "zipf_support: 100\nseed: 77\nrtt: 0.0001\nwarmup: 1.0\n")
    (tmp_path / "synth.profile").write_text(profile_text)
    (tmp_path / "synth.spec").write_text(spec_text)
    (tmp_path / "part.spec").write_text(
        spec_text + "ways_list: 11,2\nbw_limits: unlimited,300\n")
    (tmp_path / "cal.spec").write_text(spec_text + "target_lqos: 0.005\n")

    cases = [("sweep", "synth.spec"), ("characterize", "synth.spec"),
             ("partition", "part.spec"), ("classify", "synth.spec"),
             ("calibrate", "cal.spec")]
    checked = 0
    for command, fname in cases:
        out = tmp_path / f"out-{command}"
        rc = cli_main(["--out", str(out), command,
                       str(tmp_path / fname)])
        assert rc == 0, command
        manifest = json.loads((out / "manifest.json").read_text())
        replay_out = tmp_path / f"replay-{command}"
        rc = cli_main(["--out", str(replay_out), "replay",
                       str(out / "manifest.json")])
        assert rc == 0, command
        for name in manifest["outputs"]:
            assert (out / name).read_bytes() == \
                (replay_out / name).read_bytes(), (command, name)
            checked += 1
    report(9, True, f"5 commands replayed byte-identically "
                    f"({checked} files compared)")


def test_criterion_10_taxonomy_fixtures(shipped_runs):
    got = {}
    for name, want in EXPECTED_CATEGORY.items():
        spec, e = shipped_runs[name]
        features = extract_features(e)
        got[name] = classify(features).category.value
        assert got[name] == want, (name, got[name], want)
    report(10, True,
           "; ".join(f"{n}->{c}" for n, c in got.items()))
