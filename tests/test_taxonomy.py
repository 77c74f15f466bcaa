import pytest

from tailsim.taxonomy import (Category, FeatureVector, Thresholds,
                              classify, extract_features)


def fv(**kw):
    base = dict(p95_at_saturation=0.001, saturation_qps=1200.0,
                max_cpu_utilization=0.8, mem_bw_at_saturation=100.0,
                disk_bw_at_saturation=0.0, net_tx_bw_peak=5.0, mode="open")
    base.update(kw)
    return FeatureVector(**base)


class TestRules:
    def test_streaming_fires_first(self):
        # a vector that would also satisfy the disk rule still classifies
        # as streaming because rule order is fixed
        f = fv(net_tx_bw_peak=500.0, disk_bw_at_saturation=10.0,
               p95_at_saturation=0.02, saturation_qps=50.0)
        r = classify(f)
        assert r.category is Category.STREAMING
        assert r.rule == "streaming"

    def test_high_processor_requires_all_three(self):
        heavy = fv(p95_at_saturation=2.0, saturation_qps=0.7,
                   max_cpu_utilization=1.0)
        assert classify(heavy).category is Category.HIGH_PROCESSOR
        assert classify(fv(p95_at_saturation=2.0, saturation_qps=0.7,
                           max_cpu_utilization=0.5)).category is Category.FAST
        assert classify(fv(p95_at_saturation=2.0, saturation_qps=50.0,
                           max_cpu_utilization=1.0)).category is Category.FAST
        assert classify(fv(p95_at_saturation=0.1, saturation_qps=0.7,
                           max_cpu_utilization=1.0)).category is Category.FAST

    def test_high_disk_conjuncts(self):
        disky = fv(disk_bw_at_saturation=3.0, p95_at_saturation=0.007,
                   saturation_qps=30.0)
        assert classify(disky).category is Category.HIGH_DISK
        # boundary search workload: ~2 MB/s of disk but sub-threshold at
        # its saturation point stays fast
        search = fv(disk_bw_at_saturation=0.6, p95_at_saturation=0.006,
                    saturation_qps=350.0)
        assert classify(search).category is Category.FAST
        # fast+disky but thousands of QPS stays fast
        assert classify(fv(disk_bw_at_saturation=3.0,
                           p95_at_saturation=0.004,
                           saturation_qps=2000.0)).category is Category.FAST

    def test_default_is_fast(self):
        assert classify(fv()).category is Category.FAST

    def test_totality(self):
        import random
        rnd = random.Random(1)
        for _ in range(300):
            f = fv(p95_at_saturation=rnd.uniform(0, 10),
                   saturation_qps=rnd.uniform(0, 5000),
                   max_cpu_utilization=rnd.uniform(0, 1),
                   mem_bw_at_saturation=rnd.uniform(0, 1000),
                   disk_bw_at_saturation=rnd.uniform(0, 20),
                   net_tx_bw_peak=rnd.uniform(0, 700))
            r = classify(f)
            assert isinstance(r.category, Category)
            assert r.trace  # audit trail always present

    def test_determinism(self):
        f = fv(net_tx_bw_peak=120.0)
        assert classify(f) == classify(f)


class TestThresholds:
    def test_raising_streaming_threshold_only_removes(self):
        vectors = [fv(net_tx_bw_peak=v) for v in
                   (5.0, 50.0, 99.0, 100.0, 150.0, 600.0)]
        low = {f.net_tx_bw_peak for f in vectors
               if classify(f, Thresholds(streaming_net_tx=100.0)).category
               is Category.STREAMING}
        high = {f.net_tx_bw_peak for f in vectors
                if classify(f, Thresholds(streaming_net_tx=300.0)).category
                is Category.STREAMING}
        assert high <= low

    def test_from_mapping_ignores_unknown(self):
        th = Thresholds.from_mapping({"streaming_net_tx": 42.0,
                                      "bogus": 1.0})
        assert th.streaming_net_tx == 42.0
        assert th.high_disk_bw == 2.0

    def test_trace_names_fired_rule(self):
        r = classify(fv(net_tx_bw_peak=200.0))
        assert "streaming" in r.trace[-1]
        assert r.to_dict()["category"] == "streaming"
        assert r.to_dict()["features"]["net_tx_bw_peak"] == 200.0


class TestExtractFeatures:
    def _sweep(self, with_gate=True):
        from tailsim.experiments import RunConfig, qps_sweep
        from tailsim.loadgen import ArrivalModel
        from tailsim.model import (OpenLoop, ResourceLimits,
                                   ScenarioConfig, Topology, WorkloadProfile)
        prof = WorkloadProfile(name="x", cpu_work=0.001, net_tx_bytes=2000.0)
        scen = ScenarioConfig(Topology.ONE_ST, 16, OpenLoop(1.0), 10.0)
        cfg = RunConfig(arrival=ArrivalModel("zipf", 1.0, 100), seed=3,
                        warmup=1.0)
        return qps_sweep(prof, scen,
                         ResourceLimits.unconstrained(cfg.platform),
                         (50.0, 800.0), 8, cfg)

    def test_features_at_saturation_point(self):
        from tailsim.experiments import derive_lqos, qos_saturation
        sw = self._sweep()
        qos = derive_lqos(sw, 5.0)
        f = extract_features(sw, qos)
        assert f.mode == "open"
        assert not f.flagged
        sat = qos_saturation(sw, qos)
        assert f.saturation_qps == sat.qps
        assert f.p95_at_saturation == pytest.approx(qos.lqos, rel=0.02)
        assert f.net_tx_bw_peak == max(p.summary.net_tx_bw
                                       for p in sw.points)

    def test_unresolved_qos_flags_features(self):
        from tailsim.experiments import QosTarget
        sw = self._sweep()
        f = extract_features(sw, QosTarget(None, None, None, 5.0,
                                           unreachable=True))
        assert f.flagged
        assert f.saturation_qps == 0.0
