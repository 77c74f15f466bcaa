import math
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from tailsim.model import (_PROFILE_FLOAT_FIELDS, COMPUTE, DISK, IDLE, MB,
                           MEMORY, FileFormatError, ModelError,
                           PlatformConfig, ResourceLimits,
                           ServiceDist, Topology, WorkloadProfile,
                           drain_rates, kv_text, load_platform, load_profile,
                           mem_bytes, miss_ratio, parse_int,
                           parse_kv_text, platform_to_text,
                           profile_from_mapping, profile_to_text,
                           save_profile, validate_profile)

PLATFORM = PlatformConfig()


def make_profile(**kw):
    base = dict(name="p", cpu_work=0.001)
    base.update(kw)
    return WorkloadProfile(**base)


class TestPlatform:
    def test_defaults_match_documented_machine(self):
        assert PLATFORM.llc_total_ways == 11
        assert PLATFORM.llc_way_capacity == 1.5
        assert PLATFORM.llc_capacity == pytest.approx(16.5)
        assert PLATFORM.mem_bw_capacity == 111000.0
        assert PLATFORM.disk_bw_capacity == 550.0
        assert PLATFORM.cache_line == 64

    def test_rejects_nonpositive_capacity(self):
        with pytest.raises(ModelError, match="disk_bw_capacity"):
            PlatformConfig(disk_bw_capacity=0.0)
        with pytest.raises(ModelError, match="llc_total_ways"):
            PlatformConfig(llc_total_ways=0)


class TestValidateProfile:
    def test_miss_min_exceeding_miss_max_is_reported_by_name(self):
        p = make_profile(miss_min=0.6, miss_max=0.4)
        with pytest.raises(ModelError, match="miss_min: exceeds miss_max"):
            validate_profile(p, PLATFORM)

    def test_minimal_cpu_only_profile_accepted(self):
        p = make_profile(smt_efficiency=1.0)
        assert validate_profile(p, PLATFORM) is p

    def test_footprint_beyond_platform_llc_rejected(self):
        p = make_profile(footprint=20.0)
        with pytest.raises(ModelError, match="footprint"):
            validate_profile(p, PLATFORM)

    def test_all_zero_demands_rejected(self):
        p = WorkloadProfile(name="zero")
        with pytest.raises(ModelError, match="at least one demand"):
            validate_profile(p, PLATFORM)

    def test_multiple_violations_all_reported(self):
        p = make_profile(miss_min=0.8, miss_max=0.2, smt_efficiency=1.5,
                         footprint=-1.0)
        with pytest.raises(ModelError) as exc:
            validate_profile(p, PLATFORM)
        msg = str(exc.value)
        assert "miss_min" in msg
        assert "smt_efficiency" in msg
        assert "footprint" in msg

    @given(
        miss_min=st.floats(0, 1),
        miss_max=st.floats(0, 1),
        sigma=st.floats(0.01, 1.0),
        cpu=st.floats(0, 0.01),
        footprint=st.floats(0, 16.5),
    )
    @settings(max_examples=200, deadline=None)
    def test_accepts_exactly_the_invariant_set(self, miss_min, miss_max,
                                               sigma, cpu, footprint):
        p = WorkloadProfile(name="h", cpu_work=cpu, miss_min=miss_min,
                            miss_max=miss_max, smt_efficiency=sigma,
                            footprint=footprint)
        should_pass = miss_min <= miss_max and cpu > 0
        if should_pass:
            assert validate_profile(p, PLATFORM) is p
        else:
            with pytest.raises(ModelError):
                validate_profile(p, PLATFORM)


class TestMissRatio:
    def test_flat_curve_is_way_independent(self):
        p = make_profile(miss_min=0.1, miss_max=0.1)
        for ways in range(1, 12):
            assert miss_ratio(p, ways, 11) == 0.1

    def test_full_llc_gives_miss_min_exactly(self):
        p = make_profile(miss_min=0.07, miss_max=0.6, miss_shape=2.3)
        assert miss_ratio(p, 11, 11) == 0.07
        assert miss_ratio(p, 1, 11) == pytest.approx(0.6)

    def test_linear_curve_midpoint(self):
        p = make_profile(miss_min=0.05, miss_max=0.45, miss_shape=1.0)
        assert miss_ratio(p, 6, 11) == pytest.approx(0.25)

    def test_ways_out_of_range_rejected(self):
        p = make_profile(miss_min=0.1, miss_max=0.4)
        with pytest.raises(ModelError, match="ways"):
            miss_ratio(p, 0, 11)
        with pytest.raises(ModelError, match="ways"):
            miss_ratio(p, 12, 11)
        with pytest.raises(ModelError, match="total_ways"):
            miss_ratio(p, 1, 1)

    @given(
        miss_min=st.floats(0, 1),
        spread=st.floats(0, 1),
        k=st.floats(0.05, 8),
        total=st.integers(2, 24),
    )
    @settings(max_examples=300, deadline=None)
    def test_monotone_nonincreasing_in_ways(self, miss_min, spread, k, total):
        miss_max = min(miss_min + spread, 1.0)
        p = make_profile(miss_min=miss_min, miss_max=miss_max, miss_shape=k)
        values = [miss_ratio(p, w, total) for w in range(1, total + 1)]
        assert all(a >= b - 1e-12 for a, b in zip(values, values[1:]))
        assert values[-1] == miss_min
        for v in values:
            assert miss_min - 1e-12 <= v <= miss_max + 1e-12


class TestRequestDemands:
    def test_deterministic_no_memory(self):
        p = make_profile(cpu_work=0.004)
        assert mem_bytes(p, ResourceLimits(), PLATFORM) == 0.0
        assert p.phase_times(ResourceLimits(), PLATFORM) == (0.004, 0.0, 0.0)
        rng = np.random.default_rng(1)
        assert np.all(p.cpu_work * p.service_dist.sample(rng, 100) == 0.004)

    def test_memory_traffic_arithmetic(self):
        p = make_profile(mem_accesses=1e6, miss_min=0.25, miss_max=0.25)
        assert mem_bytes(p, ResourceLimits(llc_ways=11), PLATFORM) \
            == pytest.approx(16_000_000)

    def test_exponential_multiplier_mean_is_one(self):
        p = make_profile(cpu_work=0.002,
                         service_dist=ServiceDist("exponential"))
        rng = np.random.default_rng(7)
        cpu = p.cpu_work * p.service_dist.sample(rng, 10**6)
        assert cpu.mean() == pytest.approx(0.002, rel=0.01)
        assert p.phase_times(ResourceLimits(), PLATFORM)[0] == 0.002

    @given(a=st.integers(1, 11), b=st.integers(1, 11))
    @settings(max_examples=60, deadline=None)
    def test_mem_bytes_monotone_in_ways(self, a, b):
        if a > b:
            a, b = b, a
        p = make_profile(mem_accesses=5e5, miss_min=0.05, miss_max=0.5,
                         miss_shape=1.7)
        assert (mem_bytes(p, ResourceLimits(llc_ways=a), PLATFORM)
                >= mem_bytes(p, ResourceLimits(llc_ways=b), PLATFORM) - 1e-9)


class TestServiceDist:
    def test_lognormal_sample_mean_one(self):
        d = ServiceDist("lognormal", cv=1.5)
        rng = np.random.default_rng(3)
        xs = d.sample(rng, 200_000)
        assert xs.mean() == pytest.approx(1.0, rel=0.02)
        assert xs.std() == pytest.approx(1.5, rel=0.05)

    def test_inverse_cdf_matches_kind(self):
        # empirical medians of the drawn multipliers against each kind's
        # inverse CDF at 0.5
        rng = np.random.default_rng(11)
        det = ServiceDist("deterministic").sample(rng, 1000)
        assert np.all(det == 1.0)
        exp = ServiceDist("exponential").sample(rng, 200_000)
        assert np.median(exp) == pytest.approx(math.log(2), rel=0.02)
        med = np.median(ServiceDist("lognormal", cv=0.8).sample(rng, 200_000))
        # mean one: mu = -sigma^2 / 2 with sigma^2 = ln(1 + cv^2)
        assert med == pytest.approx(math.exp(-0.5 * math.log(1.64)),
                                    rel=0.02)
        assert med < 1.0  # median below mean

    def test_unknown_kind_rejected(self):
        with pytest.raises(ModelError):
            ServiceDist("weibull")

    def test_cv_whose_square_overflows_rejected(self):
        # past 1.34e154 the lognormal's sigma is inf and draws are nan
        assert np.isfinite(ServiceDist("lognormal", 1e150).sample(
            np.random.default_rng(1), 100)).all()
        with pytest.raises(ModelError, match="service_cv: too large"):
            ServiceDist("lognormal", 1e155)


class TestProfileFiles:
    def test_roundtrip(self, tmp_path):
        p = make_profile(cpu_work=0.0031, mem_accesses=12345.0,
                         miss_min=0.05, miss_max=0.4, footprint=3.5,
                         service_dist=ServiceDist("lognormal", 1.25))
        path = tmp_path / "x.profile"
        save_profile(p, path)
        q = load_profile(path)
        assert q == p

    def test_malformed_line_reports_lineno(self, tmp_path):
        path = tmp_path / "bad.profile"
        path.write_text("name: a\ncpu_work 3\n")
        with pytest.raises(ValueError, match=":2"):
            load_profile(path)

    @pytest.mark.parametrize("key,value,message", [
        ("bogus", "1", "unknown profile key 'bogus'"),
        ("cpu_work", "nan", "'cpu_work': not a finite number"),
        ("disk_bytes", "inf", "'disk_bytes': not a finite number"),
        ("service_cv", "nan", "'service_cv': not a finite number"),
        ("service_cv", "abc", "'service_cv': not a number")],
        ids=["unknown-key", "cpu_work-nan", "disk_bytes-inf",
             "service_cv-nan", "service_cv-abc"])
    def test_bad_entry_rejected(self, key, value, message):
        with pytest.raises(FileFormatError, match=message):
            profile_from_mapping({"name": "a", key: value})

    def test_isolated_service_time_sums_phases(self):
        p = make_profile(cpu_work=0.001, mem_accesses=1e6, miss_min=0.25,
                         miss_max=0.25, mem_stream_rate=8000.0,
                         disk_bytes=55000.0)
        lim = ResourceLimits()
        t = p.isolated_service_time(lim, PLATFORM)
        mem_t = 16e6 / (8000 * MB)
        disk_t = 55000 / (550 * MB)
        assert t == pytest.approx(0.001 + mem_t + disk_t)

    def test_isolated_service_time_under_limits(self):
        # 16 MB at the 4000 MB/s memory limit, below the 8000 MB/s stream
        # rate, and 55 kB at the 110 MB/s disk limit
        p = make_profile(cpu_work=0.001, mem_accesses=1e6, miss_min=0.25,
                         miss_max=0.25, mem_stream_rate=8000.0,
                         disk_bytes=55000.0)
        lim = ResourceLimits(mem_bw_limit=4000.0, disk_bw_limit=110.0)
        t = p.isolated_service_time(lim, PLATFORM)
        assert t == pytest.approx(0.001 + 0.004 + 0.0005, rel=1e-12)

    def test_drain_rates_by_phase_pair(self):
        p = make_profile(mem_stream_rate=6000.0, smt_efficiency=0.8)
        lim = ResourceLimits(mem_bw_limit=9000.0, disk_bw_limit=100.0)
        smt = drain_rates(p, Topology.TWO_SMT, lim, PLATFORM)
        assert smt[COMPUTE * 4 + IDLE] == ((0, COMPUTE, 1.0),)
        assert smt[COMPUTE * 4 + MEMORY] == ((0, COMPUTE, 0.8),
                                             (1, MEMORY, 6000.0 * MB))
        assert smt[COMPUTE * 4 + DISK] == ((0, COMPUTE, 1.0),
                                           (1, DISK, 100.0 * MB))
        # two streams share the limit in proportion, disks split evenly
        assert smt[MEMORY * 4 + MEMORY] == ((0, MEMORY, 4500.0 * MB),
                                            (1, MEMORY, 4500.0 * MB))
        assert smt[DISK * 4 + DISK] == ((0, DISK, 50.0 * MB),
                                        (1, DISK, 50.0 * MB))
        assert smt[IDLE * 4 + IDLE] == ()
        st2 = drain_rates(p, Topology.TWO_ST, lim, PLATFORM)
        assert st2[COMPUTE * 4 + COMPUTE] == ((0, COMPUTE, 1.0),
                                              (1, COMPUTE, 1.0))
        # one worker: the lone rows only, memory capped by the limit
        one = drain_rates(p, Topology.ONE_ST,
                          ResourceLimits(mem_bw_limit=5000.0), PLATFORM)
        assert one[MEMORY * 4 + IDLE] == ((0, MEMORY, 5000.0 * MB),)
        assert one[DISK * 4 + IDLE] == ((0, DISK, 550.0 * MB),)


class TestPlatformFiles:
    def test_platform_file_roundtrip(self, tmp_path):
        from tailsim.model import load_platform
        path = tmp_path / "box.platform"
        path.write_text("llc_total_ways: 20\nllc_way_capacity: 2.0\n"
                        "mem_bw_capacity: 200000\ncache_line: 128\n")
        p = load_platform(path)
        assert p.llc_total_ways == 20
        assert p.llc_capacity == pytest.approx(40.0)
        assert p.cache_line == 128
        assert p.disk_bw_capacity == 550.0  # unspecified keys keep defaults

    @pytest.mark.parametrize("key,value,message", [
        ("llc_ways", "4", "unknown platform key 'llc_ways'"),
        ("disk_bw_capacity", "nan", "'disk_bw_capacity': not a finite"),
        ("llc_total_ways", "inf", "'llc_total_ways': not a finite"),
        ("cache_line", "wide", "'cache_line': not a number"),
        ("llc_total_ways", "2.5", "'llc_total_ways': not an integer"),
        ("cache_line", "64.9", "'cache_line': not an integer")],
        ids=["unknown-key", "disk_bw_capacity-nan", "llc_total_ways-inf",
             "cache_line-wide", "llc_total_ways-2.5", "cache_line-64.9"])
    def test_platform_file_rejects_bad_entry(self, tmp_path, key, value,
                                             message):
        from tailsim.model import load_platform
        path = tmp_path / "bad.platform"
        path.write_text(f"{key}: {value}\n")
        with pytest.raises(FileFormatError, match=message):
            load_platform(path)


FINITE = st.floats(allow_nan=False, allow_infinity=False)
POSITIVE = st.floats(min_value=5e-324, allow_infinity=False)
# Integer text reads as an int, so a file holds integers past 2**53, the
# last that a float holds exactly.
EXACT_COUNT = st.integers(1, 2**64)


class TestFileReaderAndWriter:
    """One reader (parse_kv_text, then each kind's key table) and one
    writer (kv_text) for profile, platform and spec files."""

    SRC = Path(__file__).resolve().parent.parent / "src" / "tailsim"

    @pytest.mark.parametrize("path", sorted(
        (SRC / "profiles").glob("*.profile")), ids=lambda p: p.name)
    def test_shipped_profile_is_its_written_text(self, path):
        assert profile_to_text(load_profile(path)) == path.read_text()

    @pytest.mark.parametrize("path", sorted(
        (SRC / "specs").glob("*.spec")), ids=lambda p: p.name)
    def test_shipped_spec_is_its_written_text(self, path):
        text = path.read_text()
        assert kv_text(parse_kv_text(text)) == text

    @settings(max_examples=60, deadline=None)
    @given(name=st.text(min_size=1, max_size=12),
           values=st.lists(FINITE, min_size=12, max_size=12),
           dist=st.sampled_from(ServiceDist.KINDS),
           cv=st.floats(min_value=1e-300, max_value=1e150))
    def test_profile_round_trip(self, tmp_path_factory, name, values, dist,
                                cv):
        profile = WorkloadProfile(
            name, **dict(zip(_PROFILE_FLOAT_FIELDS, values)),
            service_dist=ServiceDist(dist, cv if dist == "lognormal"
                                     else 0.0))
        try:
            text = profile_to_text(profile)
        except FileFormatError:  # a name that would not read back
            assert "#" in name or name.strip().splitlines() != [name]
            return
        path = tmp_path_factory.mktemp("p") / "x.profile"
        path.write_text(text)
        assert load_profile(path) == profile

    @settings(max_examples=60, deadline=None)
    @given(ways=EXACT_COUNT, way_mb=POSITIVE, mem=POSITIVE, disk=POSITIVE,
           line=EXACT_COUNT)
    def test_platform_round_trip(self, tmp_path_factory, ways, way_mb, mem,
                                 disk, line):
        platform = PlatformConfig(ways, way_mb, mem, disk, line)
        path = tmp_path_factory.mktemp("p") / "x.platform"
        path.write_text(platform_to_text(platform))
        assert load_platform(path) == platform

    @pytest.mark.parametrize("raw,value", [
        ("9007199254740993", 2**53 + 1), ("-9007199254740993", -2**53 - 1),
        ("5.0", 5), ("1e1", 10), ("-0", 0), ("1e23", 10**23)])
    def test_integer_reads_exactly(self, raw, value):
        assert parse_int(raw) == value

    @pytest.mark.parametrize("raw,message", [
        ("1e400", "not a finite number"), ("9" * 400, "not a finite number"),
        ("2.5", "not an integer"), ("9007199254740993.5", "not an integer"),
        ("1e-400", "not an integer"), ("1e-" + "9" * 25, "not an integer"),
        ("x", "not a number")])
    def test_integer_rejects_what_is_not_a_finite_integer(self, raw, message):
        with pytest.raises(ValueError, match=message):
            parse_int(raw)

    @pytest.mark.parametrize("value", ["", " x", "x ", "a\nb", "a#b"])
    def test_writer_refuses_what_would_not_read_back(self, value):
        with pytest.raises(FileFormatError, match="does not read back"):
            kv_text({"name": value})

