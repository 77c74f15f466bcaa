import dataclasses
import math

import numpy as np
import pytest

from tailsim.engine import (Trace, _sample_grid, export_series_csv,
                            simulate_closed_loop, simulate_open_loop)
from tailsim.experiments import load_experiment_spec, shipped_spec_path
from tailsim.loadgen import ArrivalModel, build_schedule
from tailsim.metrics import (MetricsError, _overlap_sum, default_warmup,
                             percentile, summarize, summary_csv_row,
                             SWEEP_CSV_COLUMNS)
from tailsim.model import (MB, ClosedLoop, OpenLoop, PlatformConfig,
                           ResourceLimits, ScenarioConfig, ServiceDist,
                           Topology, WorkloadProfile)

PLATFORM = PlatformConfig()
FREE = ResourceLimits.unconstrained(PLATFORM)


def run(profile, scenario, arrival=None, seed=11, limits=FREE):
    arrival = arrival or ArrivalModel("poisson")
    sched = build_schedule(arrival, scenario.mode.qps, scenario.duration, 7)
    return simulate_open_loop(profile, scenario, limits, PLATFORM, sched,
                              seed)


class TestPercentile:
    def test_uniform_grid_nearest_rank(self):
        values = list(range(1, 101))
        assert percentile(values, 95) == 95
        assert percentile(values, 50) == 50
        assert percentile(values, 99) == 99
        assert percentile(values, 100) == 100

    def test_single_value(self):
        for p in (1, 50, 95, 99.9, 100):
            assert percentile([42.0], p) == 42.0

    def test_returns_member_of_input(self):
        rng = np.random.default_rng(3)
        xs = rng.lognormal(0, 1.5, 997)
        for p in (50, 95, 99):
            assert percentile(xs, p) in xs

    def test_exponential_closed_form(self):
        # sojourn of M/M/1 is Exp(mu - lambda); p95 = ln(20)/(mu - lambda)
        rng = np.random.default_rng(5)
        xs = rng.exponential(1.0 / 500.0, 200_000)
        assert percentile(xs, 95) == pytest.approx(math.log(20) / 500,
                                                   rel=0.05)

    def test_errors(self):
        with pytest.raises(MetricsError):
            percentile([], 95)
        with pytest.raises(MetricsError):
            percentile([1.0], 0)
        with pytest.raises(MetricsError):
            percentile([1.0], 101)

    def test_ordering_property(self):
        rng = np.random.default_rng(11)
        for _ in range(20):
            xs = rng.lognormal(0, rng.uniform(0.1, 2.0),
                               rng.integers(1, 500))
            p50 = percentile(xs, 50)
            p95 = percentile(xs, 95)
            p99 = percentile(xs, 99)
            assert p50 <= p95 <= p99


class TestSummarize:
    def test_mm1_utilization(self):
        prof = WorkloadProfile(name="exp", cpu_work=0.001,
                               service_dist=ServiceDist("exponential"))
        scen = ScenarioConfig(Topology.ONE_ST, 200, OpenLoop(500.0), 60.0,
                              rtt=0.0)
        s = summarize(run(prof, scen), warmup=6.0)
        assert s.cpu_utilization == pytest.approx(0.50, abs=0.02)

    def test_disk_only_profile_zero_utilization(self):
        prof = WorkloadProfile(name="disk", disk_bytes=200000.0)
        scen = ScenarioConfig(Topology.ONE_ST, 40, OpenLoop(300.0), 10.0)
        s = summarize(run(prof, scen), warmup=1.0)
        assert s.cpu_utilization < 0.01

    def test_llc_occupancy_is_capped_footprint(self):
        prof = WorkloadProfile(name="m", cpu_work=0.001, footprint=10.0)
        scen = ScenarioConfig(Topology.ONE_ST, 10, OpenLoop(100.0), 5.0)
        s = summarize(run(prof, scen), warmup=0.5)
        assert s.llc_occupancy == 10.0
        s2 = summarize(run(prof, scen, limits=ResourceLimits(llc_ways=2)),
                       warmup=0.5)
        assert s2.llc_occupancy == pytest.approx(3.0)  # 2 ways x 1.5 MB

    def test_shipped_img_dnn_occupancy_in_observed_band(self):
        from tailsim.model import shipped_profile
        prof = shipped_profile("img-dnn")
        assert 6.0 <= min(prof.footprint, PLATFORM.llc_capacity) <= 12.0

    def test_purity(self):
        prof = WorkloadProfile(name="p", cpu_work=0.002,
                               service_dist=ServiceDist("lognormal", 1.0))
        scen = ScenarioConfig(Topology.ONE_ST, 10, OpenLoop(200.0), 8.0)
        tr = run(prof, scen)
        assert summarize(tr, warmup=1.0) == summarize(tr, warmup=1.0)

    def test_deterministic_one_st_service_time_exact(self):
        prof = WorkloadProfile(name="det", cpu_work=0.0015,
                               disk_bytes=110000.0)
        scen = ScenarioConfig(Topology.ONE_ST, 30, OpenLoop(100.0), 10.0)
        s = summarize(run(prof, scen), warmup=1.0)
        expected = 0.0015 + 110000.0 / (550e6)
        assert s.mean_service_time == pytest.approx(expected, rel=1e-9)

    def test_bandwidth_matches_series(self):
        prof = WorkloadProfile(name="m", cpu_work=0.0005,
                               mem_accesses=100000, miss_min=0.3,
                               miss_max=0.3, net_tx_bytes=5000.0)
        scen = ScenarioConfig(Topology.ONE_ST, 20, OpenLoop(400.0), 10.0)
        tr = run(prof, scen)
        s = summarize(tr, warmup=2.0)
        # per-request mem traffic: 100000 x 0.3 x 64 B at 400 QPS
        assert s.mem_bw == pytest.approx(100000 * 0.3 * 64 * 400 / 1e6,
                                         rel=0.05)
        assert s.net_tx_bw == pytest.approx(5000 * 400 / 1e6, rel=0.05)

    def test_warmup_validation(self):
        prof = WorkloadProfile(name="p", cpu_work=0.001)
        scen = ScenarioConfig(Topology.ONE_ST, 5, OpenLoop(100.0), 5.0)
        tr = run(prof, scen)
        with pytest.raises(MetricsError):
            summarize(tr, warmup=5.0)
        with pytest.raises(MetricsError):
            summarize(tr, warmup=4.999)  # no request scheduled in window

    def test_default_warmup_rule(self):
        assert default_warmup(100.0) == 10.0
        assert default_warmup(600.0) == 60.0
        assert default_warmup(20.0) == 5.0
        assert default_warmup(3.0) < 3.0


def overlap_loop(rows, a, b):
    """Busy time inside [a, b], one interval at a time."""
    total = 0.0
    for lo, hi in rows:
        lo, hi = max(lo, a), min(hi, b)
        if hi > lo:
            total += hi - lo
    return total


class TestBusyOverlap:
    def rows(self):
        rng = np.random.default_rng(3)
        starts = np.sort(rng.uniform(0.0, 12.0, 2000))
        rows = np.column_stack((starts,
                                starts + rng.exponential(0.003, 2000)))
        # intervals across the warmup (2 s) and the horizon (10 s) edges
        return np.vstack((rows, [[1.5, 2.5], [9.99, 10.2], [0.0, 12.0]]))

    def test_vectorised_sum_equals_scalar_loop(self):
        rows = self.rows()
        for a, b in ((2.0, 10.0), (0.0, 12.0), (5.0, 5.001), (11.0, 13.0)):
            assert _overlap_sum(rows, a, b) == overlap_loop(rows.tolist(),
                                                            a, b)
        assert _overlap_sum(np.empty((0, 2)), 2.0, 10.0) == 0.0

    def test_idle_core_counts_zero(self):
        prof = WorkloadProfile(name="p", cpu_work=0.001)
        scen = ScenarioConfig(Topology.TWO_ST, 4, OpenLoop(100.0), 10.0)
        rows = self.rows()
        tr = dataclasses.replace(run(prof, scen),
                                 cpu_busy=[rows, np.empty((0, 2))])
        s = summarize(tr, warmup=2.0)
        assert s.cpu_utilization == overlap_loop(rows.tolist(), 2.0,
                                                 10.0) / (8.0 * 2)


def hand_trace(scheduled, issue, completion, mem=(), disk=(),
               net_tx_bytes=0.0, net_rx_bytes=0.0, duration=10.0):
    """A one-core trace made by hand; mem and disk are [t0, t1, rate]
    rows."""
    scheduled, issue, completion = (np.array(x, dtype=float)
                                    for x in (scheduled, issue, completion))
    return Trace(client=np.zeros(len(scheduled), dtype=np.int64),
                 scheduled=scheduled, issue=issue, service_start=issue,
                 completion=completion,
                 timely=np.ones(len(scheduled), dtype=bool),
                 latency=completion - scheduled, n_cores=1,
                 duration=duration,
                 mem_segments=np.array(mem, dtype=float).reshape(-1, 3),
                 disk_segments=np.array(disk, dtype=float).reshape(-1, 3),
                 net_tx_bytes=net_tx_bytes, net_rx_bytes=net_rx_bytes,
                 cpu_busy=[np.empty((0, 2))])


def export_bins(trace, tmp_path):
    """export_series_csv's bin width and rows (t and four MB/s
    columns)."""
    path = tmp_path / "series.csv"
    export_series_csv(trace, path)
    return _sample_grid(trace.duration)[1], np.loadtxt(path, delimiter=",",
                                                       skiprows=1)


def shipped_run(name, topology):
    """A shipped spec's run at the geometric middle of its load range."""
    spec = load_experiment_spec(shipped_spec_path(name))
    qps = math.sqrt(spec.qps_range[0] * spec.qps_range[1])
    duration = spec.scenario.duration
    sched = build_schedule(spec.config.arrival, qps, duration, 5)
    scen = dataclasses.replace(spec.scenario, topology=topology,
                               mode=OpenLoop(qps))
    return simulate_open_loop(spec.profile, scen, spec.limits,
                              spec.config.platform, sched, 3)


class TestWindowIntegral:
    """Bandwidths are exact integrals over [warmup, horizon]."""

    def test_segments_are_clipped_to_the_window(self):
        tr = hand_trace([5.0], [5.0], [6.0], mem=[
            [0.0, 1.0, 5e6],     # before the window
            [1.5, 2.5, 4e6],     # straddles the warmup: 0.5 s inside
            [3.0, 4.0, 1e6],     # inside
            [9.5, 11.0, 2e6],    # straddles the horizon: 0.5 s inside
            [10.5, 12.0, 1e6],   # after the window
            [1.0, 11.0, 3e6],    # covers the window: 8 s inside
        ], disk=[[2.0, 10.0, 5e5]])
        s = summarize(tr, warmup=2.0)
        assert s.mem_bw == (2e6 + 1e6 + 1e6 + 24e6) / 8.0 / MB
        assert s.disk_bw == 4e6 / 8.0 / MB

    def test_network_counts_issues_and_completions_in_window(self):
        # an issue exactly at the warmup counts, one exactly at the horizon
        # does not, and a NaN (never issued or never completed) never does
        tr = hand_trace(scheduled=[2.0, 5.0, 9.0, 9.5, 1.5],
                        issue=[2.0, 5.0, 10.0, math.nan, 1.5],
                        completion=[3.0, 6.0, math.nan, math.nan, 2.0],
                        net_tx_bytes=3000.0, net_rx_bytes=1000.0)
        s = summarize(tr, warmup=2.0)
        assert s.net_rx_bw == 1000.0 * 2 / 8.0 / MB
        assert s.net_tx_bw == 3000.0 * 3 / 8.0 / MB

    @pytest.mark.parametrize("topology", [Topology.ONE_ST,
                                          Topology.TWO_SMT])
    def test_on_grid_window_equals_exported_bins(self, tmp_path, topology):
        # img-dnn: warmup 5 s and horizon 25 s lie on the 1 ms grid, so
        # the window is a whole number of bins
        tr = shipped_run("img-dnn", topology)
        s = summarize(tr)
        dt, rows = export_bins(tr, tmp_path)
        lo, hi = round(5.0 / dt), round(tr.duration / dt)
        window = tr.duration - 5.0
        binned = rows[lo:hi, 1:].sum(axis=0) * dt / window
        assert s.mem_bw > 0.0 and s.net_tx_bw > 0.0
        for got, want in zip((s.mem_bw, s.disk_bw, s.net_tx_bw, s.net_rx_bw),
                             binned):
            assert got == pytest.approx(want, rel=1e-12, abs=0.0)

    def test_off_grid_window_within_boundary_bins(self, tmp_path):
        # sphinx: warmup 240 s and horizon 2400 s fall inside bins of its
        # 0.02405 s grid; the window holds the bins strictly inside it and
        # parts of the two boundary bins, and nothing else
        tr = shipped_run("sphinx", Topology.ONE_ST)
        s = summarize(tr)
        warmup = default_warmup(tr.duration)
        dt, rows = export_bins(tr, tmp_path)
        lo, hi = int(warmup / dt), int(tr.duration / dt)
        assert lo * dt < warmup and hi * dt < tr.duration
        window = tr.duration - warmup
        inner = rows[lo + 1:hi, 1:].sum(axis=0) * dt / window
        edges = (rows[lo, 1:] + rows[hi, 1:]) * dt / window
        assert s.mem_bw > 0.0 and s.net_rx_bw > 0.0
        for got, low, edge in zip(
                (s.mem_bw, s.disk_bw, s.net_tx_bw, s.net_rx_bw), inner,
                edges):
            assert low * (1 - 1e-12) <= got <= (low + edge) * (1 + 1e-12)


class TestTimelyRatio:
    def test_enough_clients_is_fully_timely(self):
        prof = WorkloadProfile(name="p", cpu_work=0.001,
                               service_dist=ServiceDist("exponential"))
        scen = ScenarioConfig(Topology.ONE_ST, 500, OpenLoop(400.0), 20.0)
        tr = run(prof, scen)
        assert tr.timely.all()
        assert summarize(tr).timely_ratio == 1.0

    def test_single_client_overload_exact_hand_oracle(self):
        # 1 client, deterministic 2 ms service, deterministic 1 ms gaps:
        # only the first request is issued on time, every later one waits
        # on the client.
        prof = WorkloadProfile(name="slow", cpu_work=0.002)
        scen = ScenarioConfig(Topology.ONE_ST, 1, OpenLoop(1000.0), 1.0,
                              rtt=0.0)
        sched = build_schedule(ArrivalModel("deterministic"), 1000.0, 1.0, 0)
        assert len(sched) == 1000
        tr = simulate_open_loop(prof, scen, FREE, PLATFORM, sched, 3)
        np.testing.assert_array_equal(np.flatnonzero(tr.timely), [0])

    def test_closed_loop_ratio_is_one(self):
        prof = WorkloadProfile(name="c", cpu_work=0.01)
        scen = ScenarioConfig(Topology.ONE_ST, 2, ClosedLoop(2, 0.05), 2.0)
        tr = simulate_closed_loop(prof, scen, FREE, PLATFORM, 1)
        assert tr.timely.all()
        assert summarize(tr).timely_ratio == 1.0


class TestCsvRow:
    def test_stable_columns(self):
        assert SWEEP_CSV_COLUMNS == (
            "qps", "p50", "p95", "p99", "util", "mem_bw", "disk_bw",
            "net_tx", "net_rx", "llc_occ", "timely_ratio", "saturated")

    def test_row_formatting(self):
        prof = WorkloadProfile(name="p", cpu_work=0.001)
        scen = ScenarioConfig(Topology.ONE_ST, 5, OpenLoop(100.0), 5.0)
        s = summarize(run(prof, scen), warmup=0.5)
        row = summary_csv_row(100.0, s)
        assert len(row.split(",")) == len(SWEEP_CSV_COLUMNS)
        assert row.split(",")[-1] in ("0", "1")
