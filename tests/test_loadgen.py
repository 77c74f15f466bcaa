import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from tailsim import engine
from tailsim.engine import export_trace_csv, simulate_open_loop
from tailsim.loadgen import ArrivalModel, build_schedule
from tailsim.model import (ModelError, OpenLoop, PlatformConfig,
                           ResourceLimits, ScenarioConfig, Topology,
                           WorkloadProfile)

PLATFORM = PlatformConfig()
FREE = ResourceLimits.unconstrained(PLATFORM)


class TestBuildSchedule:
    def test_deterministic_uniform_grid(self):
        s = build_schedule(ArrivalModel("deterministic"), 100.0, 1.0, seed=0)
        assert len(s) == 100
        np.testing.assert_allclose(s.times, np.arange(100) / 100.0)

    def test_poisson_rate_and_gap(self):
        s = build_schedule(ArrivalModel("poisson"), 1000.0, 100.0, seed=42)
        assert len(s) == pytest.approx(100_000, rel=0.01)
        gaps = np.diff(s.times)
        assert gaps.mean() == pytest.approx(0.001, rel=0.01)

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("model", [ArrivalModel("poisson"),
                                       ArrivalModel("zipf", 1.0, 50)])
    def test_gaps_past_the_largest_float_are_cut(self, model):
        # the smallest normal float as a load: a gap, or a sum of a few,
        # overflows to inf, past the horizon
        s = build_schedule(model, 2.2250738585072014e-308, 1.0, seed=3)
        assert len(s) == 0

    def test_zipf_rate_and_heavy_tail(self):
        s = build_schedule(ArrivalModel("zipf", 1.0, 1000), 500.0, 200.0,
                           seed=7)
        assert len(s) / s.duration == pytest.approx(500.0, rel=0.05)
        gaps = np.diff(s.times)
        assert gaps.max() > 20 * np.median(gaps)

    def test_times_nondecreasing_and_within_horizon(self):
        for kind in ("deterministic", "poisson", "zipf"):
            s = build_schedule(ArrivalModel(kind), 200.0, 10.0, seed=3)
            assert np.all(np.diff(s.times) >= 0)
            assert s.times[0] >= 0
            assert s.times[-1] < 10.0

    def test_determinism_bit_for_bit(self):
        a = build_schedule(ArrivalModel("zipf", 1.2, 500), 300.0, 50.0, 99)
        b = build_schedule(ArrivalModel("zipf", 1.2, 500), 300.0, 50.0, 99)
        assert np.array_equal(a.times, b.times)
        c = build_schedule(ArrivalModel("zipf", 1.2, 500), 300.0, 50.0, 98)
        assert not np.array_equal(a.times, c.times)

    def test_equal_inputs_share_one_read_only_draw(self):
        m = ArrivalModel("poisson")
        a = build_schedule(m, 300.0, 5.0, 4)
        b = build_schedule(m, 300.0, 5.0, 4)
        assert b.times is a.times and not a.times.flags.writeable
        c = build_schedule(m, 300.0, 5.0, 5)
        assert c.times is not a.times
        # only the last draw is kept: a's inputs are drawn again, equal
        d = build_schedule(m, 300.0, 5.0, 4)
        assert d.times is not a.times and np.array_equal(d.times, a.times)

    def test_invalid_inputs(self):
        with pytest.raises(ModelError):
            build_schedule(ArrivalModel("poisson"), 0.0, 1.0, 0)
        with pytest.raises(ModelError):
            build_schedule(ArrivalModel("poisson"), 10.0, -1.0, 0)
        with pytest.raises(ModelError):
            ArrivalModel("zipf", alpha=0.0)
        with pytest.raises(ModelError):
            ArrivalModel("uniform")

    @pytest.mark.parametrize("seed", [1, 17, 3023])
    def test_zipf_rate_accuracy_at_scale(self, seed):
        # >= 1e4 requests: realized rate within 5% of target
        s = build_schedule(ArrivalModel("zipf", 1.0, 1000), 400.0, 30.0,
                           seed)
        assert len(s) >= 10_000
        assert abs(len(s) / s.duration - 400.0) / 400.0 <= 0.05


def _client_indices(n_requests, n_clients):
    """Per client, the indices of the requests the engine gave it."""
    sched = build_schedule(ArrivalModel("deterministic"),
                           max(n_requests, 1) * 1.0, 1.0, 0)
    scen = ScenarioConfig(Topology.ONE_ST, n_clients,
                          OpenLoop(max(n_requests, 1) * 1.0), 1.0)
    tr = simulate_open_loop(WorkloadProfile(name="c", cpu_work=0.001), scen,
                            FREE, PLATFORM, sched, 0)
    assert len(tr.client) == len(sched)
    return [np.flatnonzero(tr.client == c) for c in range(n_clients)]


class TestAssignClients:
    def test_round_robin_exact(self):
        ix = _client_indices(6, 2)
        assert ix[0].tolist() == [0, 2, 4]
        assert ix[1].tolist() == [1, 3, 5]

    def test_single_client_gets_everything(self):
        ix = _client_indices(50, 1)
        assert ix[0].tolist() == list(range(50))

    @given(n=st.integers(0, 500), clients=st.integers(1, 40))
    @settings(max_examples=80, deadline=None)
    def test_partition_property(self, n, clients):
        ix = _client_indices(n, clients)
        seen = np.concatenate(ix)
        assert sorted(seen.tolist()) == list(range(max(n, 1)))
        sizes = [len(i) for i in ix]
        assert max(sizes) - min(sizes) <= 1  # no client gets two extra
        for i in ix:
            assert np.all(np.diff(i) > 0)  # per-client order preserved

    def test_request_j_belongs_to_client_j_mod_n(self, tmp_path):
        # On both engine paths and in the trace CSV, with more clients
        # than requests too.
        prof = WorkloadProfile(name="c", cpu_work=0.001)
        sched = build_schedule(ArrivalModel("poisson"), 50.0, 1.0, 3)
        n = len(sched)
        for topology in (Topology.ONE_ST, Topology.TWO_ST):
            for n_clients in (1, 2, 7, n, n + 5):
                scen = ScenarioConfig(topology, n_clients, OpenLoop(50.0),
                                      1.0)
                fast = simulate_open_loop(prof, scen, FREE, PLATFORM, sched,
                                          0)
                ref = engine._run(prof, scen, FREE, PLATFORM, 0,
                                  schedule=sched)
                assert fast.meta["engine"] == "constant_rate"
                assert ref.meta["engine"] == "event"
                expected = np.arange(n) % n_clients
                for tr in (fast, ref):
                    np.testing.assert_array_equal(tr.client, expected)
                    export_trace_csv(tr, tmp_path / "trace.csv")
                    rows = (tmp_path / "trace.csv").read_text().split()[1:]
                    assert [int(row.split(",")[1]) for row in rows] == (
                        expected.tolist())

    def test_rejects_zero_clients(self):
        with pytest.raises(ModelError, match="n_clients"):
            ScenarioConfig(Topology.ONE_ST, 0, OpenLoop(5.0), 1.0)


class TestShippedClientCounts:
    def test_img_dnn_spec_uses_twelve_clients(self):
        from tailsim.experiments import load_experiment_spec, shipped_spec_path
        spec = load_experiment_spec(shipped_spec_path("img-dnn"))
        assert spec.scenario.n_clients == 12
