import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from tailsim.loadgen import ArrivalModel, assign_clients, build_schedule
from tailsim.model import ModelError


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

    def test_zipf_rate_and_heavy_tail(self):
        s = build_schedule(ArrivalModel("zipf", 1.0, 1000), 500.0, 200.0,
                           seed=7)
        assert s.realized_qps == pytest.approx(500.0, rel=0.05)
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
        assert abs(s.realized_qps - 400.0) / 400.0 <= 0.05


class TestAssignClients:
    def test_round_robin_exact(self):
        s = build_schedule(ArrivalModel("deterministic"), 6.0, 1.0, 0)
        a = assign_clients(s, 2)
        assert a.client_indices[0].tolist() == [0, 2, 4]
        assert a.client_indices[1].tolist() == [1, 3, 5]

    def test_single_client_gets_everything(self):
        s = build_schedule(ArrivalModel("deterministic"), 50.0, 1.0, 0)
        a = assign_clients(s, 1)
        assert a.client_indices[0].tolist() == list(range(50))

    def test_rejects_zero_clients(self):
        s = build_schedule(ArrivalModel("deterministic"), 5.0, 1.0, 0)
        with pytest.raises(ModelError):
            assign_clients(s, 0)

    @given(n=st.integers(0, 500), clients=st.integers(1, 40))
    @settings(max_examples=80, deadline=None)
    def test_partition_property(self, n, clients):
        s = build_schedule(ArrivalModel("deterministic"), max(n, 1) * 1.0,
                           1.0, 0)
        a = assign_clients(s, clients)
        seen = np.concatenate(a.client_indices) if clients else []
        assert sorted(seen.tolist()) == list(range(len(s)))
        for ix in a.client_indices:
            assert np.all(np.diff(ix) > 0)  # per-client order preserved


class TestShippedClientCounts:
    def test_img_dnn_spec_uses_twelve_clients(self):
        from tailsim.experiments import load_experiment_spec, shipped_spec_path
        spec = load_experiment_spec(shipped_spec_path("img-dnn"))
        assert spec.scenario.n_clients == 12
