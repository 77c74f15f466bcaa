import hashlib
import math
import re
import tempfile
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from tailsim import engine
from tailsim.engine import (export_trace_csv, simulate_closed_loop,
                            simulate_open_loop)
from tailsim.experiments import load_experiment_spec, shipped_spec_path
from tailsim.loadgen import ArrivalModel, ArrivalSchedule, build_schedule
from tailsim.metrics import summarize
from tailsim.model import (MB, ClosedLoop, ModelError, OpenLoop,
                           PlatformConfig, ResourceLimits, ScenarioConfig,
                           ServiceDist, Topology, WorkloadProfile)

PLATFORM = PlatformConfig()
FREE = ResourceLimits.unconstrained(PLATFORM)


def run_open(profile, scenario, limits=FREE, arrival=None, seed=11,
             sched_seed=7):
    arrival = arrival or ArrivalModel("poisson")
    sched = build_schedule(arrival, scenario.mode.qps, scenario.duration,
                           sched_seed)
    return simulate_open_loop(profile, scenario, limits, PLATFORM, sched,
                              seed)


def moved_bytes(segments):
    """Bytes moved by (k, 3) [t0, t1, rate] segments."""
    return float((segments[:, 2] * (segments[:, 1] - segments[:, 0])).sum())


def peak_rate(segments):
    """The largest summed rate of the half-open [t0, t1) segments covering
    a segment endpoint. The summed rate changes only at endpoints, so this
    is the largest aggregate rate anywhere in the run."""
    rows = segments[np.argsort(segments[:, 0], kind="stable")].tolist()
    active, i, peak = [], 0, 0.0
    for t in np.unique(segments[:, :2]).tolist():
        while i < len(rows) and rows[i][0] <= t:
            active.append(rows[i])
            i += 1
        active = [row for row in active if row[1] > t]
        peak = max(peak, sum(row[2] for row in active))
    return peak


def run_event(profile, scenario, limits=FREE, seed=11, sched_seed=7):
    """run_open's run, always through the event engine."""
    sched = build_schedule(ArrivalModel("poisson"), scenario.mode.qps,
                           scenario.duration, sched_seed)
    return engine._run(profile, scenario, limits, PLATFORM, seed,
                       schedule=sched)


class TestSingleRequest:
    def test_latency_is_service_plus_round_trip(self):
        prof = WorkloadProfile(name="det", cpu_work=0.001)
        scen = ScenarioConfig(Topology.ONE_ST, 1, OpenLoop(1.0), 1.0)
        sched = build_schedule(ArrivalModel("deterministic"), 1.0, 1.0, 0)
        tr = simulate_open_loop(prof, scen, FREE, PLATFORM, sched, 0)
        assert len(tr) == 1
        assert tr.latency[0] == pytest.approx(0.001 + 2 * scen.rtt)
        assert tr.timely[0]

    def test_three_phase_service_time(self):
        prof = WorkloadProfile(name="3ph", cpu_work=0.001, mem_accesses=1e6,
                               miss_min=0.25, miss_max=0.25,
                               mem_stream_rate=8000.0, disk_bytes=55000.0)
        scen = ScenarioConfig(Topology.ONE_ST, 1, OpenLoop(1.0), 1.0,
                              rtt=0.0)
        tr = run_open(prof, scen, arrival=ArrivalModel("deterministic"))
        expected = 0.001 + 16e6 / (8000 * MB) + 55000 / (550 * MB)
        assert tr.latency[0] == pytest.approx(expected)


class TestMm1Oracle:
    def test_mean_sojourn_and_utilization(self):
        prof = WorkloadProfile(name="exp", cpu_work=0.001,
                               service_dist=ServiceDist("exponential"))
        scen = ScenarioConfig(Topology.ONE_ST, 500, OpenLoop(500.0), 120.0,
                              rtt=0.0)
        tr = run_open(prof, scen)
        s = summarize(tr, warmup=12.0)
        assert s.mean_latency == pytest.approx(0.002, rel=0.05)
        assert s.cpu_utilization == pytest.approx(0.5, abs=0.02)
        assert not s.saturated


class TestSmtOracle:
    """Two workers serving exponential compute-only requests form a
    birth-death queue: one request present departs at mu, two or more at
    2 x sigma x mu, where sigma is smt_efficiency on TWO_SMT and 1 on
    TWO_ST. So p_n = p_0 (lam/mu) (lam/2 sigma mu)^(n-1) for n >= 1
    (Kleinrock, Queueing Systems Vol. 1, section 3), and the mean sojourn
    is L / lam by Little's law. The run goes through the event engine and
    is held to the formula, not to its own past bits."""

    @pytest.mark.parametrize("topology,sigma", [
        (Topology.TWO_SMT, 0.6), (Topology.TWO_SMT, 0.75),
        (Topology.TWO_SMT, 0.9), (Topology.TWO_ST, 0.6)])
    def test_mean_sojourn(self, topology, sigma):
        lam = mu = 1000.0
        prof = WorkloadProfile(name="exp", cpu_work=1.0 / mu,
                               smt_efficiency=sigma,
                               service_dist=ServiceDist("exponential"))
        scen = ScenarioConfig(topology, 8000, OpenLoop(lam), 150.0, rtt=0.0)
        s = summarize(run_event(prof, scen), warmup=10.0)
        pair = 2.0 * (sigma if topology is Topology.TWO_SMT else 1.0) * mu
        rho = lam / pair
        p0 = 1.0 / (1.0 + (lam / mu) / (1.0 - rho))
        mean_in_system = p0 * (lam / mu) / (1.0 - rho) ** 2
        assert s.completed >= 130_000
        assert s.mean_latency == pytest.approx(mean_in_system / lam,
                                               rel=0.03)


class TestDegeneracy:
    def make(self, sigma):
        return WorkloadProfile(name="mix", cpu_work=0.0008,
                               mem_accesses=50000, miss_min=0.1,
                               miss_max=0.4, miss_shape=1.3,
                               mem_stream_rate=6000.0, footprint=8.0,
                               disk_bytes=20000.0, smt_efficiency=sigma,
                               service_dist=ServiceDist("lognormal", 1.2))

    def trace_pair(self, topoA, topoB, sigma=1.0, limitsA=FREE, limitsB=FREE):
        prof = self.make(sigma)
        sched = build_schedule(ArrivalModel("zipf", 1.0, 1000), 900.0, 15.0,
                               5)
        mk = lambda topo: ScenarioConfig(topo, 12, OpenLoop(900.0), 15.0)
        a = simulate_open_loop(prof, mk(topoA), limitsA, PLATFORM, sched, 3)
        b = simulate_open_loop(prof, mk(topoB), limitsB, PLATFORM, sched, 3)
        return a, b

    def assert_identical(self, a, b):
        np.testing.assert_array_equal(a.issue, b.issue)
        np.testing.assert_array_equal(a.service_start, b.service_start)
        np.testing.assert_array_equal(a.completion, b.completion)
        np.testing.assert_array_equal(a.timely, b.timely)
        np.testing.assert_array_equal(a.mem_segments, b.mem_segments)
        np.testing.assert_array_equal(a.disk_segments, b.disk_segments)

    def test_sigma_one_makes_smt_equal_two_st(self, tmp_path):
        a, b = self.trace_pair(Topology.TWO_ST, Topology.TWO_SMT)
        self.assert_identical(a, b)
        fa, fb = tmp_path / "a.csv", tmp_path / "b.csv"
        export_trace_csv(a, fa)
        export_trace_csv(b, fb)
        assert fa.read_bytes() == fb.read_bytes()

    def test_sigma_below_one_differs(self):
        a, b = self.trace_pair(Topology.TWO_ST, Topology.TWO_SMT, sigma=0.6)
        assert not np.array_equal(a.completion, b.completion)

    def test_flat_miss_curve_is_way_invariant(self):
        prof = WorkloadProfile(name="flat", cpu_work=0.001,
                               mem_accesses=100000, miss_min=0.2,
                               miss_max=0.2, mem_stream_rate=5000.0,
                               footprint=5.0)
        sched = build_schedule(ArrivalModel("zipf", 1.0, 500), 700.0, 15.0, 5)
        scen = ScenarioConfig(Topology.ONE_ST, 12, OpenLoop(700.0), 15.0)
        base = simulate_open_loop(prof, scen, ResourceLimits(llc_ways=11),
                                  PLATFORM, sched, 3)
        for ways in (8, 5, 2, 1):
            other = simulate_open_loop(prof, scen,
                                       ResourceLimits(llc_ways=ways),
                                       PLATFORM, sched, 3)
            self.assert_identical(base, other)

    def test_non_binding_bandwidth_limit_is_identity(self):
        a, b = self.trace_pair(
            Topology.ONE_ST, Topology.ONE_ST,
            limitsA=ResourceLimits(llc_ways=11),
            limitsB=ResourceLimits(llc_ways=11, mem_bw_limit=50000.0,
                                   disk_bw_limit=550.0))
        self.assert_identical(a, b)


class TestConservationAndCausality:
    def test_every_request_recorded_once_with_ordered_timestamps(self):
        prof = WorkloadProfile(name="mix", cpu_work=0.002,
                               mem_accesses=30000, miss_min=0.15,
                               miss_max=0.35, disk_bytes=5000.0,
                               service_dist=ServiceDist("exponential"))
        scen = ScenarioConfig(Topology.TWO_ST, 8, OpenLoop(600.0), 10.0)
        tr = run_open(prof, scen, arrival=ArrivalModel("zipf", 1.0, 300))
        sched = build_schedule(ArrivalModel("zipf", 1.0, 300), 600.0, 10.0, 7)
        assert len(tr) == len(sched)
        done = ~np.isnan(tr.completion)
        assert np.all(tr.issue[done] >= tr.scheduled[done] - 1e-12)
        assert np.all(tr.service_start[done] >= tr.issue[done] - 1e-12)
        assert np.all(tr.completion[done] >= tr.service_start[done] - 1e-12)

    def test_moved_bytes_match_demand(self):
        prof = WorkloadProfile(name="mem", cpu_work=0.0005,
                               mem_accesses=200000, miss_min=0.2,
                               miss_max=0.2, mem_stream_rate=4000.0,
                               disk_bytes=30000.0)
        scen = ScenarioConfig(Topology.ONE_ST, 4, OpenLoop(150.0), 10.0)
        tr = run_open(prof, scen)
        n_done = len(tr) - tr.censored_count
        mem_per_req = 200000 * 0.2 * 64
        assert moved_bytes(tr.mem_segments) == pytest.approx(
            n_done * mem_per_req, rel=1e-6)
        assert moved_bytes(tr.disk_segments) == pytest.approx(
            n_done * 30000.0, rel=1e-6)

    def test_no_overlapping_busy_intervals_per_core(self):
        prof = WorkloadProfile(name="x", cpu_work=0.001,
                               disk_bytes=100000.0,
                               service_dist=ServiceDist("exponential"))
        scen = ScenarioConfig(Topology.TWO_ST, 6, OpenLoop(900.0), 8.0)
        tr = run_open(prof, scen)
        for core in range(tr.n_cores):
            merged = sorted(map(tuple, tr.cpu_busy[core].tolist()))
            for (a0, a1), (b0, b1) in zip(merged, merged[1:]):
                assert a1 <= b0 + 1e-12
        # at most n_cores requests in service at any instant; a censored
        # request stays in service to the end, and a request that ends at
        # t is out before one that starts at t is in
        started = ~np.isnan(tr.service_start)
        ends = np.where(np.isnan(tr.completion), np.inf, tr.completion)
        times = np.concatenate((ends[started], tr.service_start[started]))
        steps = np.concatenate((-np.ones(started.sum()),
                                np.ones(started.sum())))
        order = np.lexsort((steps, times))
        assert np.cumsum(steps[order]).max() <= tr.n_cores

    def test_determinism_same_inputs_same_trace(self):
        prof = WorkloadProfile(name="d", cpu_work=0.001,
                               service_dist=ServiceDist("lognormal", 2.0))
        scen = ScenarioConfig(Topology.TWO_SMT, 5, OpenLoop(800.0), 10.0)
        a = run_open(prof, scen, arrival=ArrivalModel("zipf"))
        b = run_open(prof, scen, arrival=ArrivalModel("zipf"))
        np.testing.assert_array_equal(a.completion, b.completion)
        np.testing.assert_array_equal(a.latency, b.latency)


class TestSaturationTruncation:
    def test_overload_censors_and_flags(self):
        prof = WorkloadProfile(name="slow", cpu_work=0.01)
        scen = ScenarioConfig(Topology.ONE_ST, 50, OpenLoop(500.0), 5.0)
        tr = run_open(prof, scen)
        assert tr.censored_count > 0
        s = summarize(tr, warmup=0.5)
        assert s.saturated
        assert s.censored > 0

    def test_stable_run_has_no_censoring(self):
        prof = WorkloadProfile(name="fast", cpu_work=0.0005)
        scen = ScenarioConfig(Topology.ONE_ST, 50, OpenLoop(200.0), 5.0)
        tr = run_open(prof, scen)
        assert tr.censored_count == 0


class TestSmtContention:
    def test_overlapping_compute_runs_at_sigma(self):
        # Two requests arrive together; with sigma=0.7 both drain at 0.7
        # for their entire (equal) compute demand.
        from tailsim.loadgen import ArrivalSchedule
        prof = WorkloadProfile(name="s", cpu_work=0.007, smt_efficiency=0.7)
        scen = ScenarioConfig(Topology.TWO_SMT, 2, OpenLoop(2.0), 1.0,
                              rtt=0.0)
        sched = ArrivalSchedule(times=np.array([0.0, 0.0]), target_qps=2.0,
                                model=ArrivalModel("deterministic"), seed=0,
                                duration=1.0)
        tr = simulate_open_loop(prof, scen, FREE, PLATFORM, sched, 1)
        np.testing.assert_allclose(tr.completion, 0.007 / 0.7, rtol=1e-9)

    def test_sequential_compute_runs_at_full_rate(self):
        prof = WorkloadProfile(name="s", cpu_work=0.001, smt_efficiency=0.5)
        scen = ScenarioConfig(Topology.TWO_SMT, 1, OpenLoop(10.0), 1.0,
                              rtt=0.0)
        sched = build_schedule(ArrivalModel("deterministic"), 10.0, 1.0, 0)
        tr = simulate_open_loop(prof, scen, FREE, PLATFORM, sched, 1)
        # single client serializes requests; no overlap, no slowdown
        service = tr.completion - tr.service_start
        np.testing.assert_allclose(service, 0.001, rtol=1e-9)


class TestClosedLoop:
    def test_back_to_back_count(self):
        prof = WorkloadProfile(name="c", cpu_work=0.01)
        scen = ScenarioConfig(Topology.ONE_ST, 1, ClosedLoop(1, 0.0), 1.0,
                              rtt=0.0)
        tr = simulate_closed_loop(prof, scen, FREE, PLATFORM, 1)
        assert len(tr) - tr.censored_count == 100
        assert tr.timely.all()

    def test_think_time_paces_sessions(self):
        # service + think = 0.125 exactly in binary, so the cycle count is
        # immune to float accumulation
        prof = WorkloadProfile(name="c", cpu_work=0.0078125)
        scen = ScenarioConfig(Topology.ONE_ST, 1, ClosedLoop(1, 0.1171875),
                              1.0, rtt=0.0)
        tr = simulate_closed_loop(prof, scen, FREE, PLATFORM, 1)
        assert len(tr) - tr.censored_count == 8

    def test_tx_bandwidth_grows_to_plateau(self):
        prof = WorkloadProfile(name="net", cpu_work=0.02,
                               net_tx_bytes=1e6)
        rates = []
        for sessions in (1, 2, 4, 8, 16):
            scen = ScenarioConfig(Topology.ONE_ST, sessions,
                                  ClosedLoop(sessions, 0.1), 30.0, rtt=0.0)
            tr = simulate_closed_loop(prof, scen, FREE, PLATFORM, 1)
            s = summarize(tr, warmup=3.0)
            rates.append(s.net_tx_bw)
        assert rates == sorted(rates)
        # plateau at 1/service = 50 req/s -> 50 MB/s
        assert rates[-1] == pytest.approx(50.0, rel=0.05)
        assert rates[0] == pytest.approx(1e6 / 0.12 / 1e6, rel=0.05)

    @staticmethod
    def exact_mva(rate, sessions, delay):
        """Mean response time and throughput of a FCFS exponential station
        that completes requests at rate(j) with j present, plus a delay
        station: exact mean value analysis with a load-dependent station
        (Reiser and Lavenberg 1980), over p[j], the chance that j requests
        are at the station."""
        p = [1.0]
        for n in range(1, sessions + 1):
            response = sum(j / rate(j) * p[j - 1] for j in range(1, n + 1))
            throughput = n / (response + delay)
            p = [0.0] + [throughput / rate(j) * p[j - 1]
                         for j in range(1, n + 1)]
            p[0] = 1.0 - sum(p[1:])
        return response, throughput

    def check_mva(self, topology, sigma, sessions, rtt, rate):
        # the station plus a delay of think + 2 rtt is a product-form
        # network, so exact MVA gives its mean response time and
        # throughput
        service, think = 0.005, 0.015
        prof = WorkloadProfile(name="c", cpu_work=service,
                               smt_efficiency=sigma,
                               service_dist=ServiceDist("exponential"))
        scen = ScenarioConfig(topology, sessions,
                              ClosedLoop(sessions, think), 300.0, rtt=rtt)
        s = summarize(simulate_closed_loop(prof, scen, FREE, PLATFORM, 1),
                      warmup=30.0)
        response, throughput = self.exact_mva(
            lambda j: rate(j) / service, sessions, think + 2 * rtt)
        assert s.mean_latency - 2 * rtt == pytest.approx(response, rel=0.03)
        assert s.completed / 270.0 == pytest.approx(throughput, rel=0.03)

    @pytest.mark.parametrize("sessions,rtt", [(4, 0.0), (8, 0.0001)])
    def test_exact_mva(self, sessions, rtt):
        self.check_mva(Topology.ONE_ST, 1.0, sessions, rtt, lambda j: 1.0)

    @pytest.mark.parametrize("topology,sigma", [
        (Topology.TWO_ST, 0.6), (Topology.TWO_SMT, 0.6),
        (Topology.TWO_SMT, 0.9)])
    def test_exact_mva_two_workers(self, topology, sigma):
        # two workers complete at min(j, 2) x mu on TWO_ST, whatever
        # sigma; on TWO_SMT at mu alone and 2 x sigma x mu side by side
        pair = 2.0 * (sigma if topology is Topology.TWO_SMT else 1.0)
        self.check_mva(topology, sigma, 8, 0.0001,
                       lambda j: 1.0 if j == 1 else pair)


class TestDiskAccounting:
    def test_disk_only_profile_has_negligible_cpu(self):
        prof = WorkloadProfile(name="disk", disk_bytes=500000.0)
        scen = ScenarioConfig(Topology.ONE_ST, 20, OpenLoop(400.0), 10.0)
        tr = run_open(prof, scen)
        s = summarize(tr, warmup=1.0)
        assert s.cpu_utilization < 0.01
        assert s.disk_bw > 0

    def test_disk_shared_between_workers(self):
        # two simultaneous disk requests split the 550 MB/s evenly
        prof = WorkloadProfile(name="disk", disk_bytes=5.5e6)
        scen = ScenarioConfig(Topology.TWO_ST, 2, OpenLoop(2.0), 1.0,
                              rtt=0.0)
        sched = build_schedule(ArrivalModel("deterministic"), 2.0, 1.0, 0)
        tr = simulate_open_loop(prof, scen, FREE, PLATFORM, sched, 1)
        # both in disk phase from 0.5: second request sees half bandwidth
        # solo would take 10ms; overlapping portion stretches both
        assert tr.completion[1] > tr.completion[0]


def run_pair(profile, topology, times, limits=FREE):
    """Two requests from two clients issued at the given times, with no
    network delay; returns their completion times."""
    sched = ArrivalSchedule(np.asarray(times, dtype=float), 1.0,
                            ArrivalModel("deterministic"), 0, 1.0)
    scen = ScenarioConfig(topology, 2, OpenLoop(1.0), 1.0, rtt=0.0)
    tr = simulate_open_loop(profile, scen, limits, PLATFORM, sched, 0)
    return tr.completion


def memory_only(stream_rate):
    # 1e5 accesses x 0.5 miss x 64 B = 3.2 MB of memory traffic per request
    return WorkloadProfile(name="mem", mem_accesses=1e5, miss_min=0.5,
                           miss_max=0.5, mem_stream_rate=stream_rate)


class TestDrainRates:
    """The drain-rate rules of the event loop, read off the completion
    times of two requests served together."""

    def test_proportional_memory_sharing(self):
        # 2 x 6000 MB/s oversubscribes the 9000 MB/s cap: 4500 MB/s each
        done = run_pair(memory_only(6000.0), Topology.TWO_ST, [0.0, 0.0],
                        ResourceLimits(11, mem_bw_limit=9000.0))
        assert done == pytest.approx([3.2e6 / (4500 * MB)] * 2, rel=1e-12)

    def test_undersubscribed_memory(self):
        # 2 x 3000 MB/s fits under the cap: each drains at its own rate
        done = run_pair(memory_only(3000.0), Topology.TWO_ST, [0.0, 0.0],
                        ResourceLimits(11, mem_bw_limit=9000.0))
        assert done == pytest.approx([3.2e6 / (3000 * MB)] * 2, rel=1e-12)

    def test_smt_compute_pair(self):
        prof = WorkloadProfile(name="cpu", cpu_work=0.001,
                               smt_efficiency=0.7)
        smt = run_pair(prof, Topology.TWO_SMT, [0.0, 0.0])
        assert smt == pytest.approx([0.001 / 0.7] * 2, rel=1e-12)
        st = run_pair(prof, Topology.TWO_ST, [0.0, 0.0])
        assert st == pytest.approx([0.001] * 2, rel=1e-12)

    def test_compute_with_disk_sibling_runs_full_speed(self):
        # 1 ms compute, then 1.1 MB of disk (2 ms alone at 550 MB/s).
        # Request 0 computes over [0, 1] ms and reads alone over [1, 2.5];
        # request 1 computes at full speed over [1.5, 2.5] beside it. Both
        # read at half rate until request 0's last 0.5 ms of disk work is
        # done at 3.5 ms; request 1 then reads its remaining 1.5 ms alone.
        prof = WorkloadProfile(name="cd", cpu_work=0.001, disk_bytes=1.1e6,
                               smt_efficiency=0.5)
        done = run_pair(prof, Topology.TWO_SMT, [0.0, 0.0015])
        assert done == pytest.approx([0.0035, 0.005], rel=1e-9)

    def test_disk_fair_share(self):
        prof = WorkloadProfile(name="disk", disk_bytes=1e6)
        done = run_pair(prof, Topology.TWO_ST, [0.0, 0.0],
                        ResourceLimits(11, disk_bw_limit=100.0))
        assert done == pytest.approx([1e6 / (50 * MB)] * 2, rel=1e-12)

    def test_aggregate_never_exceeds_limits(self):
        # random mixed-phase loads on every topology: the memory (or disk)
        # segments in progress at any time never sum to more than the
        # effective limit
        import random
        rnd = random.Random(5)
        for _ in range(12):
            prof = WorkloadProfile(
                name="mix", cpu_work=rnd.uniform(1e-4, 1e-3),
                mem_accesses=rnd.uniform(1e4, 4e5), miss_min=0.25,
                miss_max=0.25, mem_stream_rate=rnd.uniform(100, 12000),
                disk_bytes=rnd.uniform(1e3, 1e5), smt_efficiency=0.8,
                service_dist=ServiceDist("exponential"))
            lim = ResourceLimits(11, mem_bw_limit=rnd.uniform(500, 10000),
                                 disk_bw_limit=rnd.uniform(10, 550))
            topo = rnd.choice(list(Topology))
            scen = ScenarioConfig(topo, 8, OpenLoop(300.0), 2.0)
            tr = run_open(prof, scen, limits=lim,
                          sched_seed=rnd.randrange(1000))
            mem_cap = lim.effective_mem_bw(PLATFORM) * MB
            disk_cap = lim.effective_disk_bw(PLATFORM) * MB
            assert peak_rate(tr.mem_segments) <= mem_cap * (1 + 1e-12)
            assert peak_rate(tr.disk_segments) <= disk_cap * (1 + 1e-12)


class TestThroughputCap:
    def test_segments_never_exceed_limits(self):
        # two workers driving memory and disk against hard caps: the
        # segments in progress at any time never sum to more than the cap
        prof = WorkloadProfile(name="mm", cpu_work=0.0002,
                               mem_accesses=400000, miss_min=0.25,
                               miss_max=0.25, mem_stream_rate=9000.0,
                               disk_bytes=120000.0,
                               service_dist=ServiceDist("exponential"))
        limits = ResourceLimits(llc_ways=11, mem_bw_limit=3000.0,
                                disk_bw_limit=40.0)
        scen = ScenarioConfig(Topology.TWO_ST, 12, OpenLoop(500.0), 10.0)
        tr = run_open(prof, scen, limits=limits,
                      arrival=ArrivalModel("zipf", 1.0, 300))
        assert peak_rate(tr.mem_segments) <= 3000.0 * MB * (1 + 1e-12)
        assert peak_rate(tr.disk_segments) <= 40.0 * MB * (1 + 1e-12)

    def test_constant_rate_phase_is_one_piece(self):
        # the memory limit is twice the lone rate, so memory never contends:
        # the event engine drains each memory phase at one rate from the end
        # of its compute to the completion and logs it as one segment when
        # it completes
        prof = WorkloadProfile(name="cm", cpu_work=0.0005, mem_accesses=2e5,
                               miss_min=0.25, miss_max=0.25,
                               mem_stream_rate=3000.0,
                               service_dist=ServiceDist("exponential"))
        limits = ResourceLimits(11, mem_bw_limit=6000.0)
        scen = ScenarioConfig(Topology.TWO_ST, 8, OpenLoop(800.0), 5.0)
        tr = run_event(prof, scen, limits=limits, seed=11)
        assert tr.censored_count == 0
        cpu = prof.cpu_work * prof.service_dist.sample(
            np.random.default_rng(11), len(tr))
        order = np.argsort(tr.completion, kind="stable")
        ref = np.column_stack(((tr.service_start + cpu)[order],
                               tr.completion[order],
                               np.full(len(tr), prof.mem_stream_rate * MB)))
        np.testing.assert_array_equal(tr.mem_segments, ref)


class TestTraceExport:
    def test_csv_export_headers_and_reruns_identical(self, tmp_path):
        prof = WorkloadProfile(name="x", cpu_work=0.001, mem_accesses=1e4,
                               miss_min=0.25, miss_max=0.25, disk_bytes=2e3,
                               service_dist=ServiceDist("exponential"))
        scen = ScenarioConfig(Topology.ONE_ST, 3, OpenLoop(100.0), 3.0)
        tr, again = run_open(prof, scen), run_open(prof, scen)
        p1, p2 = tmp_path / "t1.csv", tmp_path / "t2.csv"
        export_trace_csv(tr, p1)
        export_trace_csv(again, p2)
        assert p1.read_bytes() == p2.read_bytes()
        header = p1.read_text().splitlines()[0]
        assert header == ("index,client,scheduled,issue,service_start,"
                          "completion,timely,latency")
        assert len(tr.mem_segments) and len(tr.disk_segments)
        for a, b in [(tr.mem_segments, again.mem_segments),
                     (tr.disk_segments, again.disk_segments),
                     *zip(tr.cpu_busy, again.cpu_busy)]:
            assert a.tobytes() == b.tobytes()

    def test_mode_validation(self):
        prof = WorkloadProfile(name="x", cpu_work=0.001)
        closed = ScenarioConfig(Topology.ONE_ST, 1, ClosedLoop(1), 1.0)
        sched = build_schedule(ArrivalModel("deterministic"), 1.0, 1.0, 0)
        with pytest.raises(ModelError):
            simulate_open_loop(prof, closed, FREE, PLATFORM, sched, 0)
        opened = ScenarioConfig(Topology.ONE_ST, 1, OpenLoop(1.0), 1.0)
        with pytest.raises(ModelError):
            simulate_closed_loop(prof, opened, FREE, PLATFORM, 0)

    @pytest.mark.parametrize("profile,topology,message", [
        (WorkloadProfile(name="smt", cpu_work=0.001, smt_efficiency=5e-324),
         Topology.TWO_SMT,
         "cpu_work/smt_efficiency: a request's compute phase lasts inf s "
         "beside its sibling"),
        # two 1e308 MB/s streams sum to inf, so each gets a share of 0
        (replace(memory_only(1e308), cpu_work=0.001), Topology.TWO_ST,
         "mem_accesses/mem_stream_rate/mem_bw_capacity: a request's memory "
         "phase lasts inf s beside its sibling"),
        (WorkloadProfile(name="slow", cpu_work=13.0), Topology.ONE_ST,
         "cpu_work: a request's compute phase lasts 13 s alone; it must end "
         "in finite time, and alone by the run's hard stop of 12 s")])
    @pytest.mark.parametrize("closed", [False, True])
    def test_phase_that_cannot_end_rejected(self, profile, topology, message,
                                            closed):
        mode = ClosedLoop(2) if closed else OpenLoop(10.0)
        scen = ScenarioConfig(topology, 2, mode, 1.0)
        with pytest.raises(ModelError, match="^" + re.escape(message)):
            if closed:
                simulate_closed_loop(profile, scen, FREE, PLATFORM, 0)
            else:
                run_open(profile, scen)


@st.composite
def phase_mixes(draw):
    """A random profile and limits: phase mix (zero-memory and disk-only
    profiles included), service distribution, SMT efficiency and caps."""
    cpu = draw(st.sampled_from([0.0, 0.0005, 0.004]))
    mem = draw(st.sampled_from([0.0, 2e4, 3e5]))
    disk = draw(st.sampled_from([0.0, 2e4, 4e5]))
    if cpu == mem == disk == 0.0:
        cpu = 0.001
    dist = draw(st.sampled_from([ServiceDist("deterministic"),
                                 ServiceDist("exponential"),
                                 ServiceDist("lognormal", 1.5)]))
    prof = WorkloadProfile(name="r", cpu_work=cpu, mem_accesses=mem,
                           miss_min=0.1, miss_max=0.6,
                           mem_stream_rate=draw(st.floats(200.0, 12000.0)),
                           disk_bytes=disk, net_tx_bytes=1500.0,
                           net_rx_bytes=draw(st.sampled_from([0.0, 300.0])),
                           smt_efficiency=draw(st.sampled_from([0.6, 1.0])),
                           service_dist=dist)
    limits = ResourceLimits(
        llc_ways=draw(st.integers(1, 11)),
        mem_bw_limit=draw(st.none() | st.floats(100.0, 9000.0)),
        disk_bw_limit=draw(st.none() | st.floats(5.0, 500.0)))
    return prof, limits


@st.composite
def open_loop_runs(draw, topologies=(Topology.ONE_ST,)):
    """A random open-loop run on one of the topologies: phase mix, limits,
    arrival model, clients and round trip. The load reaches far past
    saturation, so some runs censor at the hard stop."""
    prof, limits = draw(phase_mixes())
    arrival = draw(st.sampled_from([ArrivalModel("deterministic"),
                                    ArrivalModel("poisson"),
                                    ArrivalModel("zipf", 1.0, 50)]))
    n_clients = draw(st.integers(1, 16))
    rtt = draw(st.sampled_from([0.0, 0.0001, 0.002]))
    duration = draw(st.sampled_from([0.5, 1.0, 2.0]))
    qps = draw(st.sampled_from([20.0, 400.0, 1500.0]))
    scen = ScenarioConfig(draw(st.sampled_from(topologies)), n_clients,
                          OpenLoop(qps), duration, rtt=rtt)
    sched = build_schedule(arrival, qps, duration, draw(st.integers(0, 99)))
    return prof, scen, limits, sched, draw(st.integers(0, 99))


def constant_rate(run):
    """The run with its profile and limits made constant-rate for its
    topology: with two workers no disk phase and a memory limit of at least
    twice the lone stream rate (exactly twice when it was lower), and on
    TWO_SMT no compute slowdown."""
    prof, scen, limits, sched, seed = run
    if scen.topology is not Topology.ONE_ST:
        prof = replace(prof, disk_bytes=0.0)
        if prof.cpu_work == prof.mem_accesses == 0.0:  # disk-only before
            prof = replace(prof, cpu_work=0.001)
        if scen.topology is Topology.TWO_SMT:
            prof = replace(prof, smt_efficiency=1.0)
        if limits.effective_mem_bw(PLATFORM) < 2 * prof.mem_stream_rate:
            limits = replace(limits, mem_bw_limit=2 * prof.mem_stream_rate)
    return prof, scen, limits, sched, seed


TICK = 2.0 ** -10  # seconds; sums of ticks are exact in binary


@st.composite
def tied_runs(draw, topologies=tuple(Topology)):
    """Open-loop runs on exact binary fractions, where issues, phase ends
    and completions fall on equal times: deterministic 1-3 tick compute, an
    optional one-tick memory phase, a round trip of none or one tick, and
    several requests per two-tick slot."""
    prof = WorkloadProfile(
        name="tie", cpu_work=draw(st.sampled_from([TICK, 2 * TICK,
                                                   3 * TICK])),
        # 976562.5 B per request: one tick at 1000 MB/s
        mem_accesses=draw(st.sampled_from([0.0, 30517.578125])),
        miss_min=0.5, miss_max=0.5, mem_stream_rate=1000.0,
        net_tx_bytes=1500.0, net_rx_bytes=300.0)
    topology = draw(st.sampled_from(topologies))
    rtt = draw(st.sampled_from([0.0, TICK / 2]))
    per_slot = draw(st.lists(st.integers(0, 4), min_size=1, max_size=120))
    times = np.repeat(np.arange(len(per_slot)) * 2 * TICK, per_slot)
    if len(times) == 0:
        times = np.zeros(1)
    sched = ArrivalSchedule(times, 1.0, ArrivalModel("deterministic"), 0,
                            0.25)
    n_clients = draw(st.integers(1, 8))
    scen = ScenarioConfig(topology, n_clients, OpenLoop(1.0), 0.25, rtt=rtt)
    return prof, scen, FREE, sched, 0


def assert_same_trace(fast, ref):
    """Bit-equal columns, per-core busy intervals, segments (each of
    positive length), network amounts and trace CSV."""
    for col in ("client", "scheduled", "issue", "service_start",
                "completion", "latency", "timely"):
        np.testing.assert_array_equal(getattr(fast, col), getattr(ref, col),
                                      err_msg=col)
    assert len(fast.cpu_busy) == len(ref.cpu_busy)
    for core, (a, b) in enumerate(zip(fast.cpu_busy, ref.cpu_busy)):
        np.testing.assert_array_equal(a, b, err_msg=f"cpu_busy[{core}]")
    for col in ("mem_segments", "disk_segments"):
        np.testing.assert_array_equal(getattr(fast, col), getattr(ref, col),
                                      err_msg=col)
        rows = getattr(ref, col)
        assert (rows[:, 1] > rows[:, 0]).all(), col
    assert fast.net_tx_bytes == ref.net_tx_bytes
    assert fast.net_rx_bytes == ref.net_rx_bytes
    with tempfile.TemporaryDirectory() as tmp:
        a, b = Path(tmp) / "fast.csv", Path(tmp) / "ref.csv"
        export_trace_csv(fast, a)
        export_trace_csv(ref, b)
        assert a.read_bytes() == b.read_bytes()


def tied_events(run, ref):
    """The number of repeats among the reference trace's event times up
    to the hard stop: the issues and the completions."""
    scen = run[1]
    times = np.sort(np.concatenate((ref.issue, ref.completion)))
    times = times[times <= engine._hard_stop(scen.duration)]
    return int((times[1:] == times[:-1]).sum())


def run_both(run, platform=PLATFORM):
    """The open-loop run through simulate_open_loop and through
    engine._run. The constant-rate path takes it with one worker, or with
    two workers and no equal event times; it leaves every other run to the
    event engine."""
    prof, scen, limits, sched, seed = run
    fast = simulate_open_loop(prof, scen, limits, platform, sched, seed)
    ref = engine._run(prof, scen, limits, platform, seed, schedule=sched)
    assert fast.meta["engine"] == (
        "constant_rate" if (scen.topology.n_workers == 1
                            or not tied_events(run, ref))
        else "event")
    assert ref.meta["engine"] == "event"
    return fast, ref


class TestConstantRatePath:
    """The constant-rate path against the event engine, on every topology
    in open loop, the only loop mode it serves."""

    @settings(max_examples=80, deadline=None)
    @given(open_loop_runs(tuple(Topology)).map(constant_rate) | tied_runs())
    def test_matches_event_engine(self, run):
        assert_same_trace(*run_both(run))

    @settings(max_examples=80, deadline=None)
    @given(open_loop_runs() | tied_runs((Topology.ONE_ST,)))
    def test_one_worker_walks_the_schedule(self, run):
        # Equal times included, one worker takes the requests in index
        # order.
        fast, ref = run_both(run)
        assert fast.meta["engine"] == "constant_rate"
        assert_same_trace(fast, ref)

    def test_unsorted_schedule_is_rejected(self):
        # Request 1 is scheduled before request 0.
        prof = WorkloadProfile(name="back", cpu_work=3 * TICK,
                               net_tx_bytes=1500.0)
        sched = ArrivalSchedule(np.array([2.0, 1.0, 4.0]) * TICK, 1.0,
                                ArrivalModel("deterministic"), 0, 0.25)
        for topology in Topology:
            scen = ScenarioConfig(topology, 2, OpenLoop(1.0), 0.25)
            with pytest.raises(ModelError,
                               match="^schedule: times must not decrease$"):
                simulate_open_loop(prof, scen, FREE, PLATFORM, sched, 0)

    # Open loop only: closed-loop runs take the event engine. The one-value
    # parameter keeps the test ids of the open-loop cases.
    @pytest.mark.parametrize("closed", [False])
    @pytest.mark.parametrize("topology", list(Topology))
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_censored_runs_match_event_engine(self, topology, closed, seed):
        # far past saturation: requests are in flight, in compute or in
        # memory (or on disk, with one worker), at the hard stop
        prof = WorkloadProfile(
            name="slow", cpu_work=0.02, mem_accesses=1e5,
            miss_min=0.5, miss_max=0.5, mem_stream_rate=400.0,
            disk_bytes=2e6 if topology is Topology.ONE_ST else 0.0,
            net_tx_bytes=1500.0, service_dist=ServiceDist("lognormal", 1.0))
        scen = ScenarioConfig(topology, 16, OpenLoop(600.0), 2.0)
        sched = build_schedule(ArrivalModel("poisson"), 600.0, 2.0, seed)
        run = prof, scen, FREE, sched, seed
        fast, ref = run_both(run)
        assert fast.meta["engine"] == "constant_rate"
        assert ref.censored_count > 0
        assert_same_trace(fast, ref)

    def test_dispatch_rule(self):
        def engine_of(prof, topology, limits=FREE, closed=False):
            if closed:
                scen = ScenarioConfig(topology, 2, ClosedLoop(2, 0.01), 1.0)
                return simulate_closed_loop(prof, scen, limits, PLATFORM,
                                            0).meta["engine"]
            scen = ScenarioConfig(topology, 2, OpenLoop(50.0), 1.0)
            return run_open(prof, scen, limits).meta["engine"]

        mem = memory_only(3000.0)
        at_limit = ResourceLimits(11, mem_bw_limit=6000.0)  # 2 x stream
        contended = ResourceLimits(11, mem_bw_limit=4500.0)  # 1.5 x stream
        disk = WorkloadProfile(name="d", cpu_work=0.001, disk_bytes=1e4)
        slow_smt = WorkloadProfile(name="s", cpu_work=0.001,
                                   smt_efficiency=0.9)
        # one worker: every phase drains at one rate
        for prof in (mem, disk, slow_smt):
            assert engine_of(prof, Topology.ONE_ST,
                             contended) == "constant_rate"
        for topo in (Topology.TWO_ST, Topology.TWO_SMT):
            assert engine_of(mem, topo, at_limit) == "constant_rate"
            assert engine_of(mem, topo, contended) == "event"
            assert engine_of(disk, topo) == "event"
        # no memory phase: the memory limit does not matter
        assert engine_of(slow_smt, Topology.TWO_ST,
                         contended) == "constant_rate"
        assert engine_of(slow_smt, Topology.TWO_SMT) == "event"
        # no compute phase: the SMT efficiency does not matter
        assert engine_of(replace(mem, smt_efficiency=0.7), Topology.TWO_SMT,
                         at_limit) == "constant_rate"
        # closed loop runs only on the event engine
        for prof in (mem, disk, slow_smt):
            for topo in Topology:
                assert engine_of(prof, topo, at_limit, closed=True) == "event"

    def test_smt_without_compute_matches_event_engine(self):
        # Memory-only requests on SMT siblings never meet the compute
        # slowdown, so the run takes the constant-rate path whatever the
        # SMT efficiency.
        prof = replace(memory_only(3000.0), smt_efficiency=0.7)
        scen = ScenarioConfig(Topology.TWO_SMT, 4, OpenLoop(1500.0), 2.0)
        sched = build_schedule(ArrivalModel("poisson"), 1500.0, 2.0, 3)
        limits = ResourceLimits(11, mem_bw_limit=6000.0)  # 2 x stream
        fast, ref = run_both((prof, scen, limits, sched, 3))
        assert fast.meta["engine"] == "constant_rate"
        assert len(ref.mem_segments) > 0
        assert_same_trace(fast, ref)

    @staticmethod
    def landing_run(topology, shift=0.0):
        """Deterministic one-tick compute and one-tick memory phases, one
        client per request: the third request is issued on the first one's
        completion, unless shifted by `shift` ticks. On two workers the
        sixth request waits for worker 0, and the seventh takes worker 1
        while worker 0 is still busy."""
        prof = WorkloadProfile(name="land", cpu_work=TICK,
                               mem_accesses=30517.578125, miss_min=0.5,
                               miss_max=0.5, mem_stream_rate=1000.0,
                               net_tx_bytes=1500.0)
        ticks = np.array([0.0, 0.25, 2.0 + shift, 5.25, 5.5, 5.75, 9.0])
        sched = ArrivalSchedule(ticks * TICK, 1.0,
                                ArrivalModel("deterministic"), 0, 0.25)
        scen = ScenarioConfig(topology, 7, OpenLoop(1.0), 0.25)
        return prof, scen, FREE, sched, 0

    def test_issue_on_a_completion_takes_the_event_engine(self):
        run = self.landing_run(Topology.TWO_ST)
        fast, ref = run_both(run)
        assert tied_events(run, ref) == 1
        assert fast.meta["engine"] == "event"
        assert_same_trace(fast, ref)

    def test_shifted_issue_takes_the_constant_rate_path(self):
        run = self.landing_run(Topology.TWO_ST, 0.5)
        fast, ref = run_both(run)
        assert tied_events(run, ref) == 0
        assert fast.meta["engine"] == "constant_rate"
        assert_same_trace(fast, ref)

    def test_one_worker_keeps_equal_times(self):
        run = self.landing_run(Topology.ONE_ST)
        fast, ref = run_both(run)
        assert tied_events(run, ref) > 0
        assert fast.meta["engine"] == "constant_rate"
        assert_same_trace(fast, ref)

    @staticmethod
    def feedback_run(n_clients, rtt):
        """img-dnn's profile on ONE_ST at 2000 QPS, far past its saturation,
        for 3 s, with n_clients clients and the round trip rtt; and the
        spec's platform."""
        spec = load_experiment_spec(shipped_spec_path("img-dnn"))
        scen = replace(spec.scenario, topology=Topology.ONE_ST,
                       n_clients=n_clients, rtt=rtt, mode=OpenLoop(2000.0),
                       duration=3.0)
        sched = build_schedule(spec.config.arrival, 2000.0, 3.0, 5)
        return ((spec.profile, scen, spec.limits, sched, 3),
                spec.config.platform)

    @pytest.mark.parametrize("n_clients, rtt",
                             [(1, 1e-4), (2, 5e-3), (12, 5e-3)])
    def test_feedback_bound_runs_are_walked(self, n_clients, rtt,
                                            monkeypatch):
        # n_clients - 1 service times can sum to less than two round trips,
        # so a client's previous completion can set a start: such blocks
        # are walked. Here it does set some. One client with a round trip
        # walks every block without trying to settle it.
        if n_clients == 1:
            monkeypatch.setattr(engine, "_settle", None)
        run, platform = self.feedback_run(n_clients, rtt)
        fast, ref = run_both(run, platform)
        assert fast.meta["walked"] > 0
        k = n_clients
        assert (fast.service_start[k:]
                == fast.completion[:-k] + 2 * rtt).any()
        assert_same_trace(fast, ref)
        if n_clients == 1:  # every block, and every request is issued
            assert fast.meta["walked"] == len(fast)
            assert not np.isnan(fast.issue).any()

    @pytest.mark.parametrize("rtt", [0.0, 1.5 * TICK])
    def test_issue_on_the_previous_completion(self, rtt):
        # Two-tick compute every two ticks, two clients: each request is
        # issued on the previous completion. Without a round trip the
        # blocks settle; a three-tick round trip exceeds one service time,
        # so with it they are walked.
        prof = WorkloadProfile(name="abut", cpu_work=2 * TICK,
                               net_tx_bytes=1500.0)
        sched = ArrivalSchedule(np.arange(600) * 2 * TICK, 1.0,
                                ArrivalModel("deterministic"), 0, 0.25)
        scen = ScenarioConfig(Topology.ONE_ST, 2, OpenLoop(1.0), 0.25,
                              rtt=rtt)
        fast, ref = run_both((prof, scen, FREE, sched, 0))
        assert (ref.issue[1:] == ref.completion[:-1]).any()
        assert fast.meta["walked"] == (len(fast) if rtt else 0)
        assert_same_trace(fast, ref)

    @staticmethod
    def hard_stop_run():
        """Three-tick compute, five clients, a hard stop of 10.5 s: request
        1 completes on the hard stop, request 2 starts on it, request 3 is
        issued on it and request 4 is scheduled after it."""
        prof = WorkloadProfile(name="stop", cpu_work=3 * TICK,
                               net_tx_bytes=1500.0)
        ticks = np.array([-6.0, -3.0, -2.0, 0.0, 1.0])
        sched = ArrivalSchedule(10.5 + ticks * TICK, 1.0,
                                ArrivalModel("deterministic"), 0, 0.25)
        scen = ScenarioConfig(Topology.ONE_ST, 5, OpenLoop(1.0), 0.25)
        return prof, scen, FREE, sched, 0

    def test_events_on_the_hard_stop(self):
        run = self.hard_stop_run()
        assert engine._hard_stop(run[1].duration) == 10.5
        fast, ref = run_both(run)
        assert_same_trace(fast, ref)
        assert fast.completion[1] == fast.service_start[2] == 10.5
        assert fast.issue[3] == 10.5
        np.testing.assert_array_equal(np.isnan(fast.issue),
                                      [0, 0, 0, 0, 1])
        np.testing.assert_array_equal(np.isnan(fast.service_start),
                                      [0, 0, 0, 1, 1])
        np.testing.assert_array_equal(np.isnan(fast.completion),
                                      [0, 0, 1, 1, 1])

    @pytest.mark.parametrize("name", ["img-dnn", "masstree", "silo",
                                      "specjbb", "sphinx"])
    def test_shipped_disk_free_specs(self, name):
        # Each disk-free shipped spec in the middle of its load range,
        # shortened: its TWO_ST run takes the constant-rate path and matches
        # the event engine. No shipped profile has smt_efficiency 1, so no
        # shipped TWO_SMT run qualifies.
        spec = load_experiment_spec(shipped_spec_path(name))
        qps = math.sqrt(spec.qps_range[0] * spec.qps_range[1])
        sched = build_schedule(spec.config.arrival, qps, 3.0, 5)
        scen = replace(spec.scenario, topology=Topology.TWO_SMT,
                       mode=OpenLoop(qps), duration=3.0)
        smt = simulate_open_loop(spec.profile, scen, spec.limits,
                                 spec.config.platform, sched, 3)
        assert smt.meta["engine"] == "event"
        scen = replace(scen, topology=Topology.TWO_ST)
        fast, ref = run_both((spec.profile, scen, spec.limits, sched, 3),
                             spec.config.platform)
        assert fast.meta["engine"] == "constant_rate"
        assert_same_trace(fast, ref)


class TestClientDiscipline:
    """Issue times derived from the schedule, the round-robin clients and
    the completions alone, on both engine paths and every topology.
    Both paths read one request store, so their agreement with each other
    cannot catch a fault in it; this oracle can. Closed loop runs only on
    the event engine: there the constant-rate profile goes through
    simulate_closed_loop and the other straight to engine._run."""

    RTT = 0.001
    DURATION = 2.0
    HARD_STOP = 2.0 * DURATION + 10.0  # runs truncate here

    def run(self, path, topology, closed, censoring):
        # The constant-rate path needs one rate per phase; the event path
        # is given a disk phase and, on TWO_SMT, a compute slowdown. The
        # profile follows path in both loop modes.
        prof = WorkloadProfile(
            name="d", cpu_work=(4.0 if closed else 0.02) if censoring
            else 0.002, mem_accesses=1e5 if censoring else 1e4,
            miss_min=0.5, miss_max=0.5, mem_stream_rate=400.0,
            disk_bytes=0.0 if path == "constant_rate" else 2e4,
            smt_efficiency=1.0 if path == "constant_rate" else 0.7,
            net_tx_bytes=1500.0, service_dist=ServiceDist("lognormal", 1.0))
        if closed:
            scen = ScenarioConfig(topology, 12, ClosedLoop(12, 0.001),
                                  self.DURATION, rtt=self.RTT)
            sched = None
        else:
            qps = 600.0 if censoring else 200.0
            scen = ScenarioConfig(topology, 4, OpenLoop(qps),
                                  self.DURATION, rtt=self.RTT)
            sched = build_schedule(ArrivalModel("poisson"), qps,
                                   self.DURATION, 5)
        if path == "event":
            tr = engine._run(prof, scen, FREE, PLATFORM, 5, schedule=sched)
        elif closed:
            tr = simulate_closed_loop(prof, scen, FREE, PLATFORM, 5)
        else:
            tr = simulate_open_loop(prof, scen, FREE, PLATFORM, sched, 5)
        assert tr.meta["engine"] == ("event" if closed else path)
        assert (tr.censored_count > 0) == censoring
        return tr, scen, sched

    @pytest.mark.parametrize("censoring", [False, True])
    @pytest.mark.parametrize("topology", list(Topology))
    @pytest.mark.parametrize("path", ["constant_rate", "event"])
    def test_open_loop_issues(self, path, topology, censoring):
        tr, scen, sched = self.run(path, topology, False, censoring)
        n_clients = scen.n_clients
        index = np.arange(len(sched))
        np.testing.assert_array_equal(tr.client, index % n_clients)
        np.testing.assert_array_equal(tr.scheduled, sched.times)
        first = index < n_clients
        np.testing.assert_array_equal(tr.issue[first], sched.times[first])
        # A later request waits for its client: the previous completion
        # plus a round trip (NaN when it never completed), and is never
        # issued past the hard stop.
        later = index[~first]
        ready = tr.completion[later - n_clients] + 2 * scen.rtt
        expected = np.maximum(sched.times[later], ready)
        expected[expected > self.HARD_STOP] = np.nan
        np.testing.assert_array_equal(tr.issue[later], expected)
        assert (tr.issue[later] > sched.times[later]).any()  # late clients

    @pytest.mark.parametrize("censoring", [False, True])
    @pytest.mark.parametrize("topology", list(Topology))
    @pytest.mark.parametrize("path", ["constant_rate", "event"])
    def test_closed_loop_issues(self, path, topology, censoring):
        tr, scen, _ = self.run(path, topology, True, censoring)
        think = scen.mode.think_time
        np.testing.assert_array_equal(tr.scheduled, tr.issue)
        assert (np.diff(tr.issue) >= 0.0).all()  # stored in issue order
        assert set(tr.client.tolist()) == set(range(scen.mode.sessions))
        chained = 0
        for session in range(scen.mode.sessions):
            rows = np.flatnonzero(tr.client == session)
            assert tr.issue[rows[0]] == 0.0
            # the next issue follows each completion by a round trip and
            # the think time, while that is before the duration
            following = tr.completion[rows] + 2 * scen.rtt + think
            np.testing.assert_array_equal(tr.issue[rows[1:]], following[:-1])
            assert (following[:-1] < scen.duration).all()
            assert not following[-1] < scen.duration
            chained += len(rows) - 1
        assert chained > 0


BLOCKS = pytest.mark.parametrize("block", [3, 7])


class TestRunBlocks:
    """One-worker runs in blocks of a few requests, so that block edges,
    the hard stop, censoring and the request in flight fall inside blocks
    and across their edges, and walked and settled blocks alternate."""

    @settings(max_examples=80, deadline=None)
    @given(open_loop_runs() | tied_runs((Topology.ONE_ST,)),
           st.sampled_from([3, 7]))
    def test_one_worker_walks_the_schedule(self, run, block):
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(engine, "_RUN_BLOCK", block)
            fast, ref = run_both(run)
        assert fast.meta["engine"] == "constant_rate"
        assert_same_trace(fast, ref)

    @BLOCKS
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_censored_runs_match_event_engine(self, block, seed,
                                              monkeypatch):
        monkeypatch.setattr(engine, "_RUN_BLOCK", block)
        TestConstantRatePath().test_censored_runs_match_event_engine(
            Topology.ONE_ST, False, seed)

    @BLOCKS
    @pytest.mark.parametrize("censoring", [False, True])
    def test_open_loop_issues(self, block, censoring, monkeypatch):
        monkeypatch.setattr(engine, "_RUN_BLOCK", block)
        TestClientDiscipline().test_open_loop_issues(
            "constant_rate", Topology.ONE_ST, censoring)

    @BLOCKS
    def test_events_on_the_hard_stop(self, block, monkeypatch):
        monkeypatch.setattr(engine, "_RUN_BLOCK", block)
        TestConstantRatePath().test_events_on_the_hard_stop()

    @BLOCKS
    def test_walked_and_settled_blocks_alternate(self, block, monkeypatch):
        monkeypatch.setattr(engine, "_RUN_BLOCK", block)
        run, platform = TestConstantRatePath.feedback_run(12, 5e-3)
        fast, ref = run_both(run, platform)
        assert 0 < fast.meta["walked"] < len(fast)
        assert_same_trace(fast, ref)

    def test_near_ties_settle_or_are_walked(self, monkeypatch):
        # Schedule times one ulp after or before the previous completion,
        # or equal to the previous schedule time: the closed-form first
        # guess misplaces some stretch heads. Each 10-request block
        # settles on its first pass or on the re-check, or is walked after
        # them; all three happen here.
        monkeypatch.setattr(engine, "_RUN_BLOCK", 10)
        passes = []

        def counted(*args):
            passes[-1] += 1
            return stretches(*args)

        def settle(*args):
            passes.append(0)
            return run_settle(*args)

        stretches, run_settle = engine._stretches, engine._settle
        monkeypatch.setattr(engine, "_stretches", counted)
        monkeypatch.setattr(engine, "_settle", settle)
        prof = WorkloadProfile(name="ulp", cpu_work=0.0007,
                               net_tx_bytes=1500.0)
        times, t, free = [], 1.0, -math.inf
        for step in np.random.default_rng(0).integers(0, 4, 400).tolist():
            if step < 2 and free > -math.inf:
                t = max(t, float(np.nextafter(free, (math.inf,
                                                     -math.inf)[step])))
            times.append(t)
            free = max(t, free) + prof.cpu_work
        sched = ArrivalSchedule(np.array(times), 1.0,
                                ArrivalModel("deterministic"), 0, 0.25)
        scen = ScenarioConfig(Topology.ONE_ST, 400, OpenLoop(1.0), 0.25,
                              rtt=0.0)
        fast, ref = run_both((prof, scen, FREE, sched, 0))
        assert_same_trace(fast, ref)
        assert set(passes) == {1, 2}
        walked = fast.meta["walked"]
        assert 0 < walked < len(fast)
        assert passes.count(2) > walked // 10  # some settle on the re-check


class TestEventCounts:
    """Event counts of the event engine, which records them."""

    def test_compute_only_two_st_has_no_stale_events(self):
        prof = WorkloadProfile(name="c", cpu_work=0.001,
                               service_dist=ServiceDist("exponential"))
        scen = ScenarioConfig(Topology.TWO_ST, 8, OpenLoop(900.0), 5.0)
        tr = run_event(prof, scen)
        assert tr.censored_count == 0
        # one issue and one phase end per request
        assert tr.meta["events"] == 2 * len(tr)

    def test_loaded_smt_rate_changes_are_no_events(self):
        # the SMT siblings' compute rates change whenever the other starts
        # or ends a request; the new phase end overwrites the old one, so
        # the run still counts one issue and one phase end per request
        prof = WorkloadProfile(name="c", cpu_work=0.001, smt_efficiency=0.7,
                               service_dist=ServiceDist("exponential"))
        scen = ScenarioConfig(Topology.TWO_SMT, 8, OpenLoop(1100.0), 5.0)
        tr = run_event(prof, scen)
        assert tr.censored_count == 0
        assert tr.meta["events"] == 2 * len(tr)

    def test_events_stop_at_the_hard_stop(self):
        prof = WorkloadProfile(name="slow", cpu_work=0.05)
        scen = ScenarioConfig(Topology.TWO_ST, 50, OpenLoop(500.0), 2.0)
        tr = run_event(prof, scen)
        assert tr.censored_count > 0
        issued = int((~np.isnan(tr.issue)).sum())
        done = int((~np.isnan(tr.completion)).sum())
        assert tr.meta["events"] == issued + done

    # compute at sigma beside a busy sibling, then 0.427 ms of memory
    SMT_MEM = WorkloadProfile(name="cm", cpu_work=0.001, mem_accesses=4e4,
                              miss_min=0.5, miss_max=0.5,
                              mem_stream_rate=3000.0, smt_efficiency=0.7,
                              service_dist=ServiceDist("exponential"))

    def test_uncontended_compute_ends_are_no_events(self):
        # a compute end changes no rate: the sibling computes at sigma
        # whether this worker computes or drains memory, and memory drains
        # at its lone rate, so the compute phase's slot end is its memory
        # end: one issue and one completion per request
        scen = ScenarioConfig(Topology.TWO_SMT, 8, OpenLoop(600.0), 5.0)
        tr = run_event(self.SMT_MEM, scen)
        assert tr.censored_count == 0
        assert tr.meta["events"] == 2 * len(tr)
        assert len(tr.mem_segments) == len(tr)

    def test_contended_memory_keeps_compute_end_events(self):
        # under a limit of 1.5 x the stream rate two memory phases drain
        # slower than one, so a compute end can change the sibling's rate:
        # one issue, one compute end and one completion per request
        scen = ScenarioConfig(Topology.TWO_SMT, 8, OpenLoop(600.0), 5.0)
        limits = ResourceLimits(11, mem_bw_limit=4500.0)
        tr = run_event(self.SMT_MEM, scen, limits)
        assert tr.censored_count == 0
        assert tr.meta["events"] == 3 * len(tr)
        # the rates did change mid-phase: some phases took two segments
        assert len(tr.mem_segments) > len(tr)

    def test_disk_phase_follows_a_hidden_compute_end(self):
        # two workers split the disk, so a memory end (the disk phase
        # starts) and a completion are events, but not the compute end:
        # three events per request
        prof = replace(self.SMT_MEM, disk_bytes=2e4)
        scen = ScenarioConfig(Topology.TWO_ST, 8, OpenLoop(600.0), 5.0)
        tr = run_event(prof, scen)
        assert tr.censored_count == 0
        assert tr.meta["events"] == 3 * len(tr)

    def test_censored_memory_segments_start_at_hidden_compute_ends(self):
        # Far past saturation on SMT siblings: the queue never empties once
        # the last requests started, so each computes at sigma throughout
        # and its compute ends at start + cpu / sigma, a time that is no
        # event. Both requests in flight at the hard stop have passed it;
        # the later of the two is the last event time, where the busy
        # intervals end, and the other's memory segment runs from its
        # compute end to that time.
        prof = replace(self.SMT_MEM, name="slow", cpu_work=0.004,
                       mem_accesses=1.5e5, mem_stream_rate=500.0,
                       smt_efficiency=0.5)
        scen = ScenarioConfig(Topology.TWO_SMT, 16, OpenLoop(1000.0), 2.0)
        sched = build_schedule(ArrivalModel("poisson"), 1000.0, 2.0, 7)
        tr = engine._run(prof, scen, FREE, PLATFORM, 0, schedule=sched)
        cpu = np.asarray(engine._request_store(prof, scen, 0, sched)[2])
        hard_stop = engine._hard_stop(scen.duration)
        started = ~np.isnan(tr.service_start)
        in_flight = np.flatnonzero(started & np.isnan(tr.completion))
        queued = ~started & ~np.isnan(tr.issue)
        assert len(in_flight) == 2
        assert tr.issue[queued].min() < tr.service_start[in_flight].min()
        # in worker order: each core's last busy interval is its request's
        in_flight = [in_flight[tr.service_start[in_flight] == b[-1, 0]][0]
                     for b in tr.cpu_busy]
        cend = tr.service_start[in_flight] + cpu[in_flight] / 0.5
        real = max(np.nanmax(tr.issue), np.nanmax(tr.completion))
        t_last = cend.max()
        assert real < cend.min() and t_last <= hard_stop
        for core, j in zip(tr.cpu_busy, in_flight):
            assert core[-1].tolist() == [tr.service_start[j], t_last]
        # one segment per memory phase: one per completion, and one for
        # the request in flight whose compute ended first
        mem_rate = prof.mem_stream_rate * MB
        assert tr.mem_segments[-1].tolist() == [cend.min(), t_last, mem_rate]
        done = int((~np.isnan(tr.completion)).sum())
        assert len(tr.mem_segments) == done + 1


def golden_runs():
    """Small runs of engine._run that take every rate rule: two workers
    splitting the disk, memory contending under a limit of 1.5 x the lone
    stream rate, SMT compute at sigma < 1 beside memory phases, a closed
    loop on SMT siblings, runs censored at the hard stop on both two-worker
    topologies, one worker with all three phases under a memory limit
    below the lone stream rate, a closed loop on one worker (the missing
    second worker stays idle), and two workers whose requests all start in
    their memory phase, with rates changing mid-phase under a limit."""
    mem_disk = WorkloadProfile(
        name="md", cpu_work=0.0004, mem_accesses=4e4, miss_min=0.5,
        miss_max=0.5, mem_stream_rate=3000.0, disk_bytes=3e4,
        smt_efficiency=0.8, net_tx_bytes=1500.0, net_rx_bytes=300.0,
        service_dist=ServiceDist("exponential"))
    disk = replace(mem_disk, name="d", mem_accesses=0.0)
    mem = replace(mem_disk, name="m", disk_bytes=0.0, mem_accesses=1e5)
    smt = replace(mem_disk, name="c", cpu_work=0.001, disk_bytes=0.0)
    contended = ResourceLimits(11, mem_bw_limit=4500.0)
    # a limit below the lone stream rate, where the lone rate min(stream,
    # limit) and stream x (limit / stream) differ in their last bit
    capped = ResourceLimits(11, mem_bw_limit=772.0)
    slow = replace(mem_disk, name="s", cpu_work=0.01,
                   service_dist=ServiceDist("lognormal", 1.0))

    def open_run(prof, topology, qps, limits=FREE, n_clients=8):
        scen = ScenarioConfig(topology, n_clients, OpenLoop(qps), 2.0)
        sched = build_schedule(ArrivalModel("poisson"), qps, 2.0, 7)
        return prof, scen, limits, sched

    closed = ScenarioConfig(Topology.TWO_SMT, 6, ClosedLoop(6, 0.002), 2.0)
    one_closed = ScenarioConfig(Topology.ONE_ST, 6, ClosedLoop(6, 0.002),
                                2.0)
    no_compute = replace(mem_disk, name="n", cpu_work=0.0)
    return {
        "two_st_disk": open_run(disk, Topology.TWO_ST, 9000.0),
        "two_st_mem_contended": open_run(mem, Topology.TWO_ST, 1500.0,
                                         contended),
        "two_smt_mem": open_run(smt, Topology.TWO_SMT, 900.0),
        "two_smt_closed": (mem_disk, closed, FREE, None),
        "two_st_censored": open_run(slow, Topology.TWO_ST, 2000.0,
                                    n_clients=16),
        "two_smt_censored": open_run(slow, Topology.TWO_SMT, 2000.0,
                                     n_clients=16),
        "one_st": open_run(mem_disk, Topology.ONE_ST, 300.0, capped),
        "one_st_closed": (mem_disk, one_closed, FREE, None),
        "two_st_no_compute": open_run(no_compute, Topology.TWO_ST, 4000.0,
                                      contended),
    }


def fingerprint(trace, tmp):
    """sha256 prefixes of the trace CSV, the memory and disk segments and
    the per-core busy intervals, and the event count."""
    def sha(data):
        return hashlib.sha256(data).hexdigest()[:16]

    export_trace_csv(trace, tmp / "trace.csv")
    return {"trace": sha((tmp / "trace.csv").read_bytes()),
            "mem": sha(trace.mem_segments.tobytes()),
            "disk": sha(trace.disk_segments.tobytes()),
            "cpu": sha(b"|".join(c.tobytes() for c in trace.cpu_busy)),
            "events": trace.meta["events"]}


class TestGolden:
    """engine._run's output, bit for bit: any change to the float
    operations, the times at which the remaining work is drained or the
    push order changes a digest or the event count."""

    GOLDEN = {
        "two_st_disk": {
            "trace": "101383d78d101577", "mem": "e3b0c44298fc1c14",
            "disk": "fdaa9b5f3b797431", "cpu": "bc44bd14fa205f1d",
            "events": 53754},
        "two_st_mem_contended": {
            "trace": "5dd10a10d898c020", "mem": "fbe1d9823fd4487c",
            "disk": "e3b0c44298fc1c14", "cpu": "103c37b78dcd29de",
            "events": 8937},
        "two_smt_mem": {
            "trace": "32a77e22b0e472ca", "mem": "c3048c5fa3595975",
            "disk": "e3b0c44298fc1c14", "cpu": "f8b53f8daa889eae",
            "events": 3600},
        "two_smt_closed": {
            "trace": "b10705a2b3ca9265", "mem": "da0504a670829233",
            "disk": "66a6f6deb45da7a1", "cpu": "e56b33de0aefdc12",
            "events": 10680},
        "two_st_censored": {
            "trace": "92a8aeb4c749eca2", "mem": "23e8eb07a5321046",
            "disk": "e64172d3c86c0e26", "cpu": "9fb3c369cf2222be",
            "events": 7981},
        "two_smt_censored": {
            "trace": "e1aded70b8837b99", "mem": "d91492e365459ef4",
            "disk": "3cc708c1d17f7e3f", "cpu": "17eebf03f399d5eb",
            "events": 6475},
        "one_st": {
            "trace": "c350dd47100a7c6d", "mem": "8bb7ef0b4eb23ac3",
            "disk": "b4280e89889d0351", "cpu": "b1bad3fe33c62c67",
            "events": 1791},
        "one_st_closed": {
            "trace": "dd11330da74a0e2e", "mem": "88a797ca69eba542",
            "disk": "106fe4bdad4822d7", "cpu": "bcc7192d82b7d49d",
            "events": 6873},
        "two_st_no_compute": {
            "trace": "0aec14185a14ccb3", "mem": "0849b7d30f472307",
            "disk": "42905b0f70e9445a", "cpu": "2754e9db9986f874",
            "events": 23877},
    }

    @pytest.mark.parametrize("name", list(GOLDEN))
    def test_event_engine_bits(self, name, tmp_path):
        prof, scen, limits, sched = golden_runs()[name]
        tr = engine._run(prof, scen, limits, PLATFORM, 11, schedule=sched)
        assert tr.meta["engine"] == "event"
        assert (tr.censored_count > 0) == name.endswith("_censored")
        assert fingerprint(tr, tmp_path) == self.GOLDEN[name]
