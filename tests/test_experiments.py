import concurrent.futures
import math
from dataclasses import astuple, replace

import pytest

from tailsim.loadgen import ArrivalModel
from tailsim.experiments import (CalibrationError, ExperimentError,
                                 RunConfig, calibrate_profile,
                                 compare_scenarios, constraint_study,
                                 derive_lqos, geometric_points, interpolate,
                                 load_experiment_spec, point_seed,
                                 qos_saturation, qps_at_utilization,
                                 qps_sweep, qps_sweeps, session_points,
                                 shipped_spec_path)
from tailsim.model import (ClosedLoop, FileFormatError, OpenLoop,
                           PlatformConfig, ResourceLimits, ScenarioConfig,
                           ServiceDist, Topology, WorkloadProfile,
                           shipped_profile)

PLATFORM = PlatformConfig()
FREE = ResourceLimits.unconstrained(PLATFORM)


def cfg(seed=9, support=200, warmup=None, **kw):
    return RunConfig(platform=PLATFORM,
                     arrival=ArrivalModel("zipf", 1.0, support), seed=seed,
                     warmup=warmup, **kw)


def scen(qps=100.0, clients=16, duration=10.0, topo=Topology.ONE_ST,
         rtt=0.0001):
    return ScenarioConfig(topo, clients, OpenLoop(qps), duration, rtt=rtt)


DET_1MS = WorkloadProfile(name="det1ms", cpu_work=0.001)


def cat_levels(ways_list):
    return [ResourceLimits(llc_ways=w) for w in ways_list]


def mba_levels(bw_limits, ways=11):
    return [ResourceLimits(llc_ways=ways, mem_bw_limit=b) for b in bw_limits]


def assert_same_points(a, b):
    """Every field of every point (qps, seed, summary, engine, events) of
    two sweeps, bit for bit; repr makes NaN equal to NaN."""
    assert len(a.points) == len(b.points)
    assert [repr(astuple(p)) for p in a.points] == [
        repr(astuple(p)) for p in b.points]


@pytest.fixture()
def inline_pool(monkeypatch):
    """Stands in for ProcessPoolExecutor: records each pool's max_workers
    and the loads and run counts of the jobs in the order they were given,
    and runs the jobs in this process."""

    class InlinePool:
        made: list[int] = []
        loads: list[list[float]] = []
        runs: list[list[int]] = []

        def __init__(self, max_workers):
            InlinePool.made.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, jobs):
            InlinePool.loads.append([job[-1] for job in jobs])
            InlinePool.runs.append([len(job[-2]) for job in jobs])
            return map(fn, jobs)

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor",
                        InlinePool)
    return InlinePool


@pytest.fixture()
def drawn(monkeypatch):
    """(qps, seed) of every arrival schedule the engine is given, once per
    draw: runs handed the same times array share one draw."""
    import tailsim.experiments as experiments
    given = []
    real = experiments.simulate_open_loop

    def spy(profile, scenario, limits, platform, schedule, seed):
        given.append(schedule)
        return real(profile, scenario, limits, platform, schedule, seed)

    monkeypatch.setattr(experiments, "simulate_open_loop", spy)

    class Drawn:
        def __call__(self):
            firsts = {id(s.times): s for s in reversed(given)}
            return [(s.target_qps, s.seed) for s in reversed(firsts.values())]

        runs = given

    return Drawn()


class TestInterpolate:
    def test_first_enclosing_segment_in_either_order(self):
        assert interpolate([0.0, 1.0, 3.0], [0.0, 10.0, 30.0], 2.0) == 20.0
        # a falling segment reads the same line from its left end
        assert interpolate([1.0, 0.5], [10.0, 20.0], 0.75) == 15.0
        assert interpolate([0.0, 1.0, 0.0], [0.0, 1.0, 2.0], 0.5) == 0.5
        assert interpolate([2.0, 2.0], [5.0, 7.0], 2.0) == 5.0
        assert interpolate([0.0, 1.0], [0.0, 1.0], 1.5) is None


class TestSpacing:
    def test_geometric_endpoints_exact(self):
        pts = geometric_points(100.0, 200.0, 2)
        assert pts == [100.0, 200.0]

    def test_geometric_ratio_constant(self):
        pts = geometric_points(100.0, 2000.0, 12)
        ratios = [b / a for a, b in zip(pts, pts[1:])]
        assert all(r == pytest.approx(ratios[0], rel=1e-9) for r in ratios)
        assert pts[0] == 100.0 and pts[-1] == 2000.0

    def test_session_points_integers(self):
        pts = session_points(1, 24, 10)
        assert pts[0] == 1 and pts[-1] == 24
        assert all(float(p).is_integer() for p in pts)
        assert pts == sorted(set(pts))

    def test_invalid(self):
        with pytest.raises(ExperimentError):
            geometric_points(100.0, 2000.0, 1)
        with pytest.raises(ExperimentError):
            geometric_points(0.0, 10.0, 3)

    def test_point_seed_stable(self):
        assert point_seed(42, 3) == point_seed(42, 3)
        assert point_seed(42, 3) != point_seed(42, 4)
        assert point_seed(41, 3) != point_seed(42, 3)


class TestSweep:
    def test_points_ordered_and_flagged_not_dropped(self):
        sw = qps_sweep(DET_1MS, scen(duration=8.0), FREE, (100.0, 1500.0),
                       8, cfg(warmup=1.0))
        qs = [p.qps for p in sw.points]
        assert qs == sorted(qs)
        assert len(sw.points) == 8
        # the top of this range is past saturation for a 1 ms server
        assert not sw.points[-1].gate_ok or sw.points[-1].summary.saturated

    def test_parallel_matches_serial(self):
        sw1 = qps_sweep(DET_1MS, scen(duration=5.0), FREE, (100.0, 500.0),
                        4, cfg(warmup=1.0))
        sw2 = qps_sweep(DET_1MS, scen(duration=5.0), FREE, (100.0, 500.0),
                        4, cfg(warmup=1.0, parallelism=2))
        assert_same_points(sw1, sw2)


class TestOnePool:
    """qps_sweeps runs every sweep's points as one job list: one pool for
    all of them when parallelism > 1, with outputs equal to a serial run."""

    MEM = WorkloadProfile(name="m", cpu_work=0.0006, mem_accesses=200000,
                          miss_min=0.1, miss_max=0.4, miss_shape=1.5,
                          mem_stream_rate=6000.0, footprint=6.0,
                          smt_efficiency=0.7)
    CLOSED = ScenarioConfig(Topology.TWO_SMT, 6, ClosedLoop(1, 0.02), 4.0)

    def test_compare_scenarios_parallel_matches_serial(self):
        args = (self.MEM, FREE, (100.0, 1500.0), 4, scen(duration=4.0))
        serial = compare_scenarios(*args, cfg(warmup=0.5))
        pooled = compare_scenarios(*args, cfg(warmup=0.5, parallelism=2))
        assert list(serial.sweeps) == list(pooled.sweeps)
        for topo in serial.sweeps:
            assert_same_points(serial.sweeps[topo], pooled.sweeps[topo])
        assert serial.saturation == pooled.saturation
        assert serial.ratios == pooled.ratios

    @pytest.mark.parametrize("closed", [False, True])
    def test_constraint_study_parallel_matches_serial(self, closed):
        levels = cat_levels([11, 2]) + mba_levels([None, 800.0])
        axes = ["llc_ways"] * 2 + ["mem_bw_limit"] * 2
        sc, qps = ((self.CLOSED, (1.0, 6.0)) if closed
                   else (scen(duration=4.0), (100.0, 1500.0)))
        serial, pooled = (
            constraint_study(self.MEM, sc, levels, qps, 4,
                             cfg(warmup=0.5, parallelism=par), axis=axes)
            for par in (1, 2))
        assert [e.constraint for e in pooled] == [11.0, 2.0, math.inf, 800.0]
        for a, b in zip(serial, pooled, strict=True):
            assert_same_points(a.sweep, b.sweep)
            assert (a.constraint, a.qos, a.saturation) == (
                b.constraint, b.qos, b.saturation)

    def test_one_pool_capped_at_the_job_count(self, inline_pool):
        config = cfg(warmup=0.5, parallelism=64)
        sw = qps_sweep(DET_1MS, scen(duration=2.0), FREE, (100.0, 400.0), 3,
                       config)
        assert inline_pool.made == [3]
        entries = constraint_study(self.MEM, scen(duration=2.0),
                                   cat_levels([11, 5, 2]), (100.0, 400.0), 3,
                                   config)
        # one job per point: three sweeps of three points make three jobs
        assert inline_pool.made == [3, 3]
        assert_same_points(sw, qps_sweep(DET_1MS, scen(duration=2.0), FREE,
                                         (100.0, 400.0), 3, cfg(warmup=0.5)))
        assert len(entries) == 3
        constraint_study(self.MEM, scen(duration=2.0), cat_levels([11, 5]),
                         (100.0, 400.0), 3, cfg(warmup=0.5, parallelism=2))
        assert inline_pool.made == [3, 3, 2]

    def test_largest_load_first_ties_in_job_order(self, inline_pool):
        runs = [(scen(duration=2.0, topo=t), FREE)
                for t in (Topology.ONE_ST, Topology.TWO_ST)]
        sweeps = qps_sweeps(DET_1MS, runs, (100.0, 400.0), 3,
                            cfg(warmup=0.5, parallelism=2))
        q = geometric_points(100.0, 400.0, 3)
        # one job per point, its load summed over its two runs
        assert inline_pool.loads == [[2 * q[2], 2 * q[1], 2 * q[0]]]
        assert inline_pool.runs == [[2, 2, 2]]
        # each result went back to its own sweep, in load order
        assert [sw.scenario.topology for sw in sweeps] == [
            Topology.ONE_ST, Topology.TWO_ST]
        for sw, serial in zip(sweeps, qps_sweeps(DET_1MS, runs,
                                                (100.0, 400.0), 3,
                                                cfg(warmup=0.5))):
            assert [p.qps for p in sw.points] == q
            assert_same_points(sw, serial)
        # a closed-loop sweep orders its jobs by session count
        qps_sweeps(DET_1MS, [(self.CLOSED, FREE)], (1.0, 6.0), 4,
                   cfg(warmup=0.5, parallelism=2))
        assert inline_pool.loads[1] == sorted(session_points(1.0, 6.0, 4),
                                              reverse=True)

    def test_one_schedule_per_point(self, inline_pool, drawn):
        q = geometric_points(100.0, 400.0, 4)
        config = cfg(seed=5, warmup=0.5)
        seeds = [point_seed(point_seed(5, i), 1) for i in range(4)]
        serial = compare_scenarios(self.MEM, FREE, (100.0, 400.0), 4,
                                   scen(duration=2.0), config)
        assert drawn() == list(zip(q, seeds)) and len(drawn.runs) == 12
        drawn.runs.clear()
        pooled = compare_scenarios(self.MEM, FREE, (100.0, 400.0), 4,
                                   scen(duration=2.0),
                                   replace(config, parallelism=2))
        assert drawn() == list(zip(q, seeds))[::-1]  # largest load first
        assert inline_pool.runs == [[3, 3, 3, 3]]
        for topo in serial.sweeps:
            assert_same_points(serial.sweeps[topo], pooled.sweeps[topo])
        for par in (1, 2):
            drawn.runs.clear()
            constraint_study(self.MEM, scen(duration=2.0),
                             cat_levels([11, 5, 2]), (100.0, 400.0), 4,
                             replace(config, parallelism=par))
            assert sorted(drawn()) == list(zip(q, seeds))
        # a closed-loop run is given no schedule
        drawn.runs.clear()
        constraint_study(self.MEM, self.CLOSED, cat_levels([11, 2]),
                         (1.0, 6.0), 4, replace(config, parallelism=2))
        assert drawn.runs == []

    def test_runs_of_a_point_share_a_schedule_only_when_equal(self, drawn):
        # the durations differ, so each run of a point gets its own draw
        runs = [(scen(duration=d), FREE) for d in (2.0, 1.5)]
        sweeps = qps_sweeps(DET_1MS, runs, (100.0, 400.0), 3,
                            cfg(warmup=0.5))
        assert len(drawn()) == 6
        for (sc, limits), sw in zip(runs, sweeps):
            assert_same_points(sw, qps_sweep(DET_1MS, sc, limits,
                                             (100.0, 400.0), 3,
                                             cfg(warmup=0.5)))

    def test_no_runs_start_no_pool(self, inline_pool):
        config = cfg(parallelism=2)
        assert qps_sweeps(DET_1MS, [], (100.0, 400.0), 3, config) == []
        assert constraint_study(DET_1MS, scen(), [], (100.0, 400.0), 3,
                                config) == []
        assert inline_pool.made == []

    def test_one_name_per_level(self):
        with pytest.raises(ExperimentError, match="one name per level"):
            constraint_study(DET_1MS, scen(), cat_levels([11, 2]),
                             (100.0, 400.0), 3, cfg(), axis=["llc_ways"])


class TestDeriveLqos:
    def test_deterministic_1ms_gives_5ms(self):
        sw = qps_sweep(DET_1MS, scen(duration=20.0), FREE, (50.0, 600.0),
                       10, cfg(warmup=2.0))
        qos = derive_lqos(sw, 5.0)
        assert qos.resolved and not qos.unreachable
        assert qos.basis_qps == pytest.approx(200.0, rel=0.05)
        assert qos.basis_service_time == pytest.approx(0.001, rel=0.01)
        assert qos.lqos == pytest.approx(0.005, rel=0.01)

    def test_unreachable_when_utilization_stays_low(self):
        # disk-dominated profile: CPU busy share stays under 20%
        prof = WorkloadProfile(name="d", cpu_work=0.0002,
                               disk_bytes=550000.0)
        sw = qps_sweep(prof, scen(duration=20.0, clients=64), FREE,
                       (20.0, 400.0), 8, cfg(warmup=2.0))
        qos = derive_lqos(sw, 5.0)
        assert qos.unreachable and not qos.resolved
        qos2 = derive_lqos(sw, 5.0, manual_override=0.025,
                           override_reason="latency knee")
        assert qos2.resolved and qos2.lqos == 0.025

    def test_shipped_shore_spec_is_unreachable_without_override(self):
        spec = load_experiment_spec(shipped_spec_path("shore"))
        sw = qps_sweep(spec.profile, spec.scenario, spec.limits,
                       spec.qps_range, spec.n_points, spec.config)
        qos = derive_lqos(sw, spec.profile.qos_multiplier)
        assert qos.unreachable
        qos_ovr = derive_lqos(sw, spec.profile.qos_multiplier,
                              manual_override=spec.lqos_override)
        assert qos_ovr.lqos == 0.025

    def test_closed_loop_sweep_has_no_target(self):
        sw = qps_sweep(WorkloadProfile(name="c", cpu_work=0.02),
                       ScenarioConfig(Topology.ONE_ST, 8, ClosedLoop(1, 0.1),
                                      5.0), FREE, (1.0, 8.0), 3,
                       cfg(warmup=1.0))
        assert derive_lqos(sw, 5.0) is None
        assert derive_lqos(sw, 5.0, manual_override=0.025) is None


class TestSaturation:
    def test_mm1_closed_form_inversion(self):
        # with lqos = 6 ms: lambda* = mu - ln(20)/0.006 ~ 500.7
        prof = WorkloadProfile(name="exp", cpu_work=0.001,
                               service_dist=ServiceDist("exponential"))
        config = RunConfig(platform=PLATFORM, arrival=ArrivalModel("poisson"),
                           seed=5, warmup=10.0)
        sc = scen(duration=120.0, clients=1000, rtt=0.0)
        sw = qps_sweep(prof, sc, FREE, (300.0, 700.0), 9, config)
        from tailsim.experiments import QosTarget
        qos = QosTarget(lqos=0.006, basis_qps=None, basis_service_time=None,
                        qos_multiplier=5.0)
        sat = qos_saturation(sw, qos)
        expected = 1000.0 - math.log(20) / 0.006
        assert sat.qps == pytest.approx(expected, rel=0.05)

    def test_all_points_violating_gives_zero_flagged(self):
        from tailsim.experiments import QosTarget
        sw = qps_sweep(DET_1MS, scen(duration=8.0), FREE, (100.0, 400.0),
                       4, cfg(warmup=1.0))
        qos = QosTarget(lqos=1e-9, basis_qps=None, basis_service_time=None,
                        qos_multiplier=5.0)
        sat = qos_saturation(sw, qos)
        assert sat.qps == 0.0
        assert not sat.qualified
        assert sat.binding == "none"

    def test_unresolved_qos_rejected(self):
        from tailsim.experiments import QosTarget
        sw = qps_sweep(DET_1MS, scen(duration=5.0), FREE, (100.0, 200.0),
                       2, cfg(warmup=1.0))
        sat = qos_saturation(sw, QosTarget(None, None, None, 5.0,
                                           unreachable=True))
        assert astuple(sat) == (0.0, False, "none")


class TestCompare:
    def test_sigma_one_topologies_equivalent(self):
        prof = WorkloadProfile(name="s1", cpu_work=0.001, smt_efficiency=1.0)
        comp = compare_scenarios(prof, FREE, (100.0, 1800.0), 8,
                                 scen(duration=8.0), cfg(warmup=1.0))
        sat_st = comp.saturation[Topology.TWO_ST].qps
        sat_smt = comp.saturation[Topology.TWO_SMT].qps
        assert sat_st == pytest.approx(sat_smt, rel=1e-9)
        assert comp.ratios["two_st_over_two_smt_at_20"] == pytest.approx(
            1.0, abs=1e-9)

    def test_shared_schedules_across_topologies(self):
        prof = WorkloadProfile(name="s", cpu_work=0.001, smt_efficiency=0.7)
        comp = compare_scenarios(prof, FREE, (100.0, 900.0), 4,
                                 scen(duration=6.0), cfg(warmup=1.0))
        seeds = {t: [p.seed for p in sw.points]
                 for t, sw in comp.sweeps.items()}
        assert seeds[Topology.ONE_ST] == seeds[Topology.TWO_ST]
        assert seeds[Topology.ONE_ST] == seeds[Topology.TWO_SMT]

    def test_utilization_crossings_present(self):
        prof = WorkloadProfile(name="u", cpu_work=0.001)
        sw = qps_sweep(prof, scen(duration=10.0), FREE, (50.0, 800.0), 8,
                       cfg(warmup=1.0))
        q20 = qps_at_utilization(sw, 0.20)
        q50 = qps_at_utilization(sw, 0.50)
        assert q20 == pytest.approx(200.0, rel=0.06)
        assert q50 == pytest.approx(500.0, rel=0.06)
        util = interpolate([p.qps for p in sw.points],
                           [p.summary.cpu_utilization for p in sw.points],
                           q20)
        assert util == pytest.approx(0.20, abs=0.01)


class TestConstraintStudies:
    FLAT = WorkloadProfile(name="flat", cpu_work=0.001, mem_accesses=50000,
                           miss_min=0.2, miss_max=0.2,
                           mem_stream_rate=6000.0, footprint=5.0)

    def test_flat_miss_profile_invariant_across_ways(self):
        entries = constraint_study(self.FLAT, scen(duration=8.0),
                                   cat_levels([11, 8, 5, 2]), (100.0, 700.0),
                                   5, cfg(warmup=1.0))
        sats = [e.saturation.qps for e in entries]
        assert all(s == pytest.approx(sats[0], rel=1e-12) for s in sats)

    def test_capacity_report_matches_way_count(self):
        entries = constraint_study(self.FLAT, scen(duration=5.0),
                                   cat_levels([11, 8, 5, 2]), (100.0, 300.0),
                                   2, cfg(warmup=1.0))
        occupancies = [e.sweep.points[0].summary.llc_occupancy
                       for e in entries]
        assert occupancies == [5.0, 5.0, 5.0, 3.0]  # capped by footprint

    def test_nonbinding_mba_limit_identical_to_unlimited(self):
        entries = constraint_study(self.FLAT, scen(duration=8.0),
                                   mba_levels([None, 50000.0]),
                                   (100.0, 700.0), 5, cfg(warmup=1.0),
                                   axis="mem_bw_limit")
        unlimited, limited = entries
        for a, b in zip(unlimited.sweep.points, limited.sweep.points):
            assert a.summary == b.summary

    def test_binding_mba_limit_reduces_saturation(self):
        prof = WorkloadProfile(name="mem", cpu_work=0.0004,
                               mem_accesses=800000, miss_min=0.3,
                               miss_max=0.3, mem_stream_rate=9000.0)
        entries = constraint_study(prof, scen(duration=8.0),
                                   mba_levels([None, 2000.0]), (50.0, 500.0),
                                   6, cfg(warmup=1.0), axis="mem_bw_limit")
        unlimited, limited = entries
        assert limited.saturation.qps < unlimited.saturation.qps
        assert max(p.summary.mem_bw
                   for p in limited.sweep.points) <= 2000.0 * 1.02


class TestCalibrate:
    def test_masstree_targets_within_tolerance(self):
        spec = load_experiment_spec(shipped_spec_path("masstree"))
        calibrated, report = calibrate_profile(
            spec.profile, {"saturation_qps": 1000.0, "lqos": 0.0014},
            spec.scenario, spec.qps_range, spec.n_points, spec.config)
        assert report.worst_residual <= 0.20
        assert calibrated.cpu_work > 0

    def test_silo_lqos_implies_basis_service(self):
        spec = load_experiment_spec(shipped_spec_path("silo"))
        calibrated, report = calibrate_profile(
            spec.profile, {"lqos": 0.0005}, spec.scenario, spec.qps_range,
            spec.n_points, spec.config)
        iso = calibrated.isolated_service_time(FREE, PLATFORM)
        assert iso == pytest.approx(0.0001, rel=0.01)

    def test_smt_ratio_reproduces_shipped_silo(self):
        # The SMT step is the bisection that fitted the shipped profile:
        # from silo's 1.23 target it lands on the shipped smt_efficiency.
        spec = load_experiment_spec(shipped_spec_path("silo"))
        calibrated, report = calibrate_profile(
            spec.profile, {"smt_ratio_20": 1.23},
            replace(spec.scenario, duration=5.0), spec.qps_range, 6,
            replace(spec.config, warmup=1.0))
        assert report.worst_residual <= 0.20
        assert (calibrated.smt_efficiency
                == shipped_profile("silo").smt_efficiency)

    def test_smt_fit_simulates_nothing_after_the_bisection(self,
                                                           monkeypatch):
        # The kept candidate's ratio is reused, and no residual reads a
        # verification sweep: the report is the one a fresh comparison of
        # the fitted profile gives.
        import tailsim.experiments as experiments

        spec = load_experiment_spec(shipped_spec_path("silo"))
        args = (replace(spec.scenario, duration=5.0), spec.qps_range, 6,
                replace(spec.config, warmup=1.0))
        calls = {"compare_scenarios": 0, "qps_sweep": 0}

        def counted(name):
            real = getattr(experiments, name)

            def wrapper(*a, **kw):
                calls[name] += 1
                return real(*a, **kw)
            monkeypatch.setattr(experiments, name, wrapper)

        counted("compare_scenarios")
        counted("qps_sweep")
        calibrated, report = calibrate_profile(
            spec.profile, {"smt_ratio_20": 1.23}, *args)
        assert calls == {"compare_scenarios": report.iterations,
                         "qps_sweep": 0}
        scenario, qps_range, n_points, config = args
        ratio = compare_scenarios(calibrated, FREE, qps_range, n_points,
                                  scenario, config).ratios[
                                      "two_st_over_two_smt_at_20"]
        assert report.achieved == {"smt_ratio_20": ratio}
        assert report.residuals == {"smt_ratio_20": (ratio - 1.23) / 1.23}

    def test_empty_and_unknown_targets_rejected(self):
        spec = load_experiment_spec(shipped_spec_path("silo"))
        with pytest.raises(CalibrationError):
            calibrate_profile(spec.profile, {}, spec.scenario,
                              spec.qps_range, 4, spec.config)
        with pytest.raises(CalibrationError, match="unknown"):
            calibrate_profile(spec.profile, {"latency_p42": 1.0},
                              spec.scenario, spec.qps_range, 4, spec.config)

    def test_infeasible_lqos_names_binding_constraint(self):
        prof = WorkloadProfile(name="heavy", cpu_work=0.001,
                               disk_bytes=5.5e6)  # 10 ms of disk alone
        with pytest.raises(CalibrationError, match="binding constraint"):
            calibrate_profile(prof, {"lqos": 0.005},
                              scen(duration=5.0), (50.0, 200.0), 2,
                              cfg(warmup=1.0))


    def test_lqos_target_rejected_in_closed_loop(self):
        with pytest.raises(CalibrationError, match="closed-loop"):
            calibrate_profile(WorkloadProfile(name="c", cpu_work=0.02),
                              {"lqos": 0.1},
                              ScenarioConfig(Topology.ONE_ST, 8,
                                             ClosedLoop(1, 0.1), 5.0),
                              (1.0, 8.0), 2, cfg(warmup=1.0))


class TestSpecFiles:
    def test_all_shipped_specs_parse(self):
        specs = shipped_spec_path("img-dnn").parent.glob("*.spec")
        names = sorted(p.stem for p in specs)
        assert len(names) == 12
        for name in names:
            spec = load_experiment_spec(shipped_spec_path(name))
            assert spec.n_points >= 2

    def test_table_ranges_match_shipped_specs(self):
        expected = {
            "img-dnn": (100.0, 2000.0), "masstree": (250.0, 2500.0),
            "moses": (10.0, 500.0), "shore": (10.0, 300.0),
            "silo": (250.0, 6000.0), "specjbb": (250.0, 7000.0),
            "sphinx": (0.2, 2.0), "xapian": (100.0, 1100.0),
        }
        # client pools sized as the minimum keeping 97.5% of requests
        # timely across each range (sphinx needs more than the reference
        # hardware did because this client model is strictly serial)
        clients = {"img-dnn": 12, "masstree": 12, "moses": 6, "shore": 12,
                   "silo": 18, "specjbb": 18, "sphinx": 6, "xapian": 4}
        for name, rng in expected.items():
            spec = load_experiment_spec(shipped_spec_path(name))
            assert spec.qps_range == rng
            assert spec.scenario.n_clients == clients[name]

    def test_media_spec_is_closed_loop_24_sessions(self):
        spec = load_experiment_spec(shipped_spec_path("media-streaming"))
        assert isinstance(spec.scenario.mode, ClosedLoop)
        assert spec.qps_range == (1.0, 24.0)

    def test_malformed_spec_reports_line(self, tmp_path):
        bad = tmp_path / "bad.spec"
        bad.write_text("profile img-dnn\n")
        with pytest.raises(FileFormatError, match=":1"):
            load_experiment_spec(bad)

    def test_missing_profile_reported(self, tmp_path):
        bad = tmp_path / "bad.spec"
        bad.write_text("profile: does-not-exist\nduration: 5\n"
                       "qps_min: 1\nqps_max: 2\n")
        with pytest.raises(FileFormatError, match="not found"):
            load_experiment_spec(bad)

    def test_typoed_key_rejected(self, tmp_path):
        bad = tmp_path / "bad.spec"
        bad.write_text("profile: img-dnn\nduration: 5\nqps_mim: 1\n"
                       "qps_max: 2\n")
        with pytest.raises(FileFormatError, match="unknown spec keys"):
            load_experiment_spec(bad)


class TestClosedLoopSaturation:
    def test_peak_throughput(self):
        prof = WorkloadProfile(name="c", cpu_work=0.02)
        sc = ScenarioConfig(Topology.ONE_ST, 8, ClosedLoop(1, 0.1), 30.0)
        sw = qps_sweep(prof, sc, FREE, (1.0, 8.0), 4, cfg(warmup=3.0))
        sat = qos_saturation(sw, None)
        # service 20 ms: plateau at 50/s
        assert sat.qps == pytest.approx(50.0, rel=0.05)
        assert sat.binding == "throughput"


class TestSweepMonotonicity:
    def test_deterministic_service_p95_nondecreasing(self):
        sw = qps_sweep(DET_1MS, scen(duration=15.0), FREE, (50.0, 900.0),
                       10, cfg(warmup=2.0))
        p95s = [p.summary.p95 for p in sw.points
                if not math.isnan(p.summary.p95)]
        assert all(a <= b for a, b in zip(p95s, p95s[1:]))

    def test_saturation_monotone_in_ways_for_decreasing_miss_curve(self):
        prof = WorkloadProfile(name="curve", cpu_work=0.0006,
                               mem_accesses=300000, miss_min=0.05,
                               miss_max=0.6, miss_shape=1.4,
                               mem_stream_rate=9000.0, footprint=6.0)
        entries = constraint_study(prof, scen(duration=10.0),
                                   cat_levels([11, 6, 2]), (50.0, 1200.0), 7,
                                   cfg(warmup=1.0))
        sats = [e.saturation.qps for e in entries]
        assert sats[0] > sats[1] > sats[2]

    def test_saturation_monotone_in_mem_limit(self):
        prof = WorkloadProfile(name="memy", cpu_work=0.0004,
                               mem_accesses=700000, miss_min=0.3,
                               miss_max=0.3, mem_stream_rate=9000.0)
        entries = constraint_study(prof, scen(duration=10.0),
                                   mba_levels([None, 6000.0, 3000.0]),
                                   (50.0, 800.0), 6, cfg(warmup=1.0),
                                   axis="mem_bw_limit")
        sats = [e.saturation.qps for e in entries]
        assert sats[0] >= sats[1] >= sats[2]
        assert sats[0] > sats[2]


class TestReproducibility:
    def test_lqos_and_saturation_identical_across_reruns(self):
        def once():
            sw = qps_sweep(DET_1MS, scen(duration=8.0), FREE,
                           (50.0, 700.0), 6, cfg(warmup=1.0))
            qos = derive_lqos(sw, 5.0)
            return qos.lqos, qos.basis_qps, qos_saturation(sw, qos).qps
        assert once() == once()


class TestShippedFeatureAnchors:
    def test_sphinx_features_at_saturation(self):
        from tailsim.taxonomy import extract_features
        spec = load_experiment_spec(shipped_spec_path("sphinx"))
        sw = qps_sweep(spec.profile, spec.scenario, spec.limits,
                       spec.qps_range, spec.n_points, spec.config)
        qos = derive_lqos(sw, spec.profile.qos_multiplier)
        f = extract_features(sw, qos)
        assert f.p95_at_saturation == pytest.approx(4.2754, rel=0.15)
        assert f.saturation_qps == pytest.approx(0.7, rel=0.20)
        assert f.max_cpu_utilization >= 0.95

    def test_moses_disk_bandwidth_scale(self):
        spec = load_experiment_spec(shipped_spec_path("moses"))
        sw = qps_sweep(spec.profile, spec.scenario, spec.limits,
                       spec.qps_range, spec.n_points, spec.config)
        # disk traffic around the 100-QPS region lands in the observed
        # single-digit MB/s band
        near = min(sw.points, key=lambda p: abs(p.qps - 100.0))
        per_req = spec.profile.disk_bytes / 1e6
        assert 4.0 <= near.qps * per_req <= 10.0
        assert near.summary.disk_bw == pytest.approx(near.qps * per_req,
                                                     rel=0.05)
