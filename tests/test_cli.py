import json
import tempfile
from dataclasses import replace
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from tailsim.cli import VALIDATION_ERRORS, main
from tailsim.experiments import (_SPEC_KEYS, geometric_points,
                                 load_experiment_spec, point_seed, run_point,
                                 shipped_spec_path)
from tailsim.loadgen import ZIPF_SUPPORT_MAX
from tailsim.metrics import SWEEP_CSV_COLUMNS
from tailsim.model import (_PLATFORM_FIELDS, _PROFILE_FLOAT_FIELDS, OpenLoop,
                           PlatformConfig, load_platform, load_profile,
                           validate_profile)

FAST_PROFILE = """\
name: synth
cpu_work: 0.001
mem_accesses: 40000
miss_min: 0.1
miss_max: 0.4
miss_shape: 1.5
mem_stream_rate: 6000.0
footprint: 4.0
net_tx_bytes: 3000.0
smt_efficiency: 0.8
service_dist: lognormal
service_cv: 0.8
"""

FAST_SPEC = """\
name: synth
profile: synth.profile
topology: ONE_ST
mode: open_loop
qps_min: 60.0
qps_max: 700.0
points: 5
duration: 8.0
n_clients: 12
arrival: zipf
zipf_alpha: 1.0
zipf_support: 100
seed: 77
rtt: 0.0001
warmup: 1.0
"""


@pytest.fixture()
def spec_dir(tmp_path):
    (tmp_path / "synth.profile").write_text(FAST_PROFILE)
    (tmp_path / "synth.spec").write_text(FAST_SPEC)
    return tmp_path


def read(path: Path) -> bytes:
    return path.read_bytes()


class TestSweepCommand:
    def test_writes_bundle_and_exits_zero(self, spec_dir, tmp_path):
        out = tmp_path / "out"
        rc = main(["--out", str(out), "sweep", str(spec_dir / "synth.spec")])
        assert rc == 0
        csv = (out / "sweep.csv").read_text().splitlines()
        assert csv[0] == ",".join(SWEEP_CSV_COLUMNS)
        assert len(csv) == 6  # header + 5 points
        summary = json.loads((out / "summary.json").read_text())
        assert summary["workload"] == "synth"
        assert summary["qos"]["lqos_s"] > 0
        manifest = json.loads((out / "manifest.json").read_text())
        assert set(manifest["outputs"]) == {"sweep.csv", "summary.json"}
        assert manifest["command"] == "sweep"

    def test_manifest_records_numpy_version(self, spec_dir, tmp_path):
        # numpy versions may change the Generator streams behind a run
        import numpy as np
        out = tmp_path / "out"
        assert main(["--out", str(out), "--points", "2", "sweep",
                     str(spec_dir / "synth.spec")]) == 0
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["versions"]["numpy"] == np.__version__

    def test_manifest_counts_events(self, spec_dir, tmp_path):
        # SMT compute at 0.8 beside a memory phase varies the rates, so
        # every point runs on the event engine, which counts its events
        spec = spec_dir / "smt.spec"
        spec.write_text(FAST_SPEC.replace("ONE_ST", "TWO_SMT"))
        out = tmp_path / "out"
        assert main(["--out", str(out), "--points", "3", "sweep",
                     str(spec)]) == 0
        status = json.loads((out / "manifest.json").read_text())["status"]
        loaded = load_experiment_spec(spec)
        expected = 0
        for i, qps in enumerate(geometric_points(*loaded.qps_range, 3)):
            trace, _ = run_point(loaded.profile,
                                 replace(loaded.scenario, mode=OpenLoop(qps)),
                                 loaded.limits, loaded.config,
                                 point_seed(loaded.config.seed, i))
            assert trace.meta["engine"] == "event"
            expected += trace.meta["events"]
        assert status["sweep"]["engine"] == {"event": 3}
        assert status["sweep"]["events"] == expected > 0

    def test_manifest_counts_walked_requests(self, tmp_path):
        # Every block of the shipped img-dnn ONE_ST sweep settles, so no
        # request is walked and the status has no count. With one client
        # and a round trip, a client's previous completion can set every
        # start: every request of every point is walked.
        shipped = shipped_spec_path("img-dnn")
        out = tmp_path / "shipped"
        assert main(["--out", str(out), "sweep", str(shipped)]) == 0
        status = json.loads((out / "manifest.json").read_text())["status"]
        assert status["sweep"]["engine"] == {"constant_rate": 12}
        assert "walked" not in status["sweep"]
        spec = tmp_path / "one-client.spec"
        spec.write_text(shipped.read_text()
                        .replace("n_clients: 12", "n_clients: 1")
                        .replace("duration: 25.0", "duration: 3.0"))
        out = tmp_path / "one"
        assert main(["--out", str(out), "--points", "3", "sweep",
                     str(spec)]) == 0
        status = json.loads((out / "manifest.json").read_text())["status"]
        loaded = load_experiment_spec(spec)
        requests = 0
        for i, qps in enumerate(geometric_points(*loaded.qps_range, 3)):
            trace, _ = run_point(loaded.profile,
                                 replace(loaded.scenario, mode=OpenLoop(qps)),
                                 loaded.limits, loaded.config,
                                 point_seed(loaded.config.seed, i))
            assert trace.meta["walked"] == len(trace)
            requests += len(trace)
        assert status["sweep"]["walked"] == requests > 0

    def test_unknown_profile_exit_2(self, tmp_path):
        bad = tmp_path / "bad.spec"
        bad.write_text(FAST_SPEC.replace("synth.profile", "nope.profile"))
        rc = main(["--out", str(tmp_path / "o"), "sweep", str(bad)])
        assert rc == 2
        assert not (tmp_path / "o").exists()  # no partial output dir

    @pytest.mark.parametrize("ref", [".", ".."])
    def test_profile_naming_a_directory_exit_2(self, tmp_path, capsys, ref):
        bad = tmp_path / "bad.spec"
        bad.write_text(FAST_SPEC.replace("synth.profile", ref))
        rc = main(["--out", str(tmp_path / "o"), "sweep", str(bad)])
        assert rc == 2
        assert f"profile {ref!r} not found" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    def test_malformed_spec_exit_2(self, tmp_path):
        bad = tmp_path / "bad.spec"
        bad.write_text("profile synth\n")
        rc = main(["--out", str(tmp_path / "o"), "sweep", str(bad)])
        assert rc == 2

    def test_invalid_point_count_exit_2(self, spec_dir, tmp_path):
        rc = main(["--out", str(tmp_path / "o1"), "--points", "1", "sweep",
                   str(spec_dir / "synth.spec")])
        assert rc == 2

    def test_module_entry_point(self, spec_dir, tmp_path):
        import subprocess
        import sys as _sys
        out = tmp_path / "mod"
        proc = subprocess.run(
            [_sys.executable, "-m", "tailsim", "--out", str(out), "sweep",
             str(spec_dir / "synth.spec")], capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr
        assert (out / "sweep.csv").exists()

    def test_unreachable_without_override_exit_3(self, spec_dir, tmp_path,
                                                 capsys):
        # disk-dominated profile never reaches 20% utilization
        (spec_dir / "disky.profile").write_text(
            "name: disky\ncpu_work: 0.0002\ndisk_bytes: 600000\n")
        spec = FAST_SPEC.replace("synth.profile", "disky.profile")
        spec = spec.replace("qps_min: 60.0", "qps_min: 20.0")
        spec = spec.replace("qps_max: 700.0", "qps_max: 300.0")
        (spec_dir / "disky.spec").write_text(spec)
        rc = main(["--out", str(tmp_path / "o3"), "sweep",
                   str(spec_dir / "disky.spec")])
        assert rc == 3
        assert "UNREACHABLE" in capsys.readouterr().err

    def test_override_resolves_exit_0(self, spec_dir, tmp_path):
        (spec_dir / "disky.profile").write_text(
            "name: disky\ncpu_work: 0.0002\ndisk_bytes: 600000\n")
        spec = FAST_SPEC.replace("synth.profile", "disky.profile")
        spec += "lqos_override: 0.02\noverride_reason: knee\n"
        (spec_dir / "disky.spec").write_text(spec)
        rc = main(["--out", str(tmp_path / "o4"), "sweep",
                   str(spec_dir / "disky.spec")])
        assert rc == 0

    def test_byte_identical_reruns(self, spec_dir, tmp_path):
        out1, out2 = tmp_path / "r1", tmp_path / "r2"
        assert main(["--out", str(out1), "sweep",
                     str(spec_dir / "synth.spec")]) == 0
        assert main(["--out", str(out2), "sweep",
                     str(spec_dir / "synth.spec")]) == 0
        assert read(out1 / "sweep.csv") == read(out2 / "sweep.csv")
        assert read(out1 / "summary.json") == read(out2 / "summary.json")

    def test_global_flag_overrides_change_run(self, spec_dir, tmp_path):
        base, seeded, warm = (tmp_path / d for d in ("b", "s", "w"))
        assert main(["--out", str(base), "sweep",
                     str(spec_dir / "synth.spec")]) == 0
        assert main(["--out", str(seeded), "--seed", "123", "sweep",
                     str(spec_dir / "synth.spec")]) == 0
        assert read(base / "sweep.csv") != read(seeded / "sweep.csv")
        assert main(["--out", str(warm), "--warmup", "2.0", "sweep",
                     str(spec_dir / "synth.spec")]) == 0
        assert read(base / "sweep.csv") != read(warm / "sweep.csv")

    def test_out_root_env_default(self, spec_dir, tmp_path, monkeypatch):
        monkeypatch.setenv("TAILSIM_OUT", str(tmp_path / "root"))
        assert main(["sweep", str(spec_dir / "synth.spec")]) == 0
        assert (tmp_path / "root" / "sweep-synth" / "sweep.csv").exists()


class TestReplay:
    def test_replay_reproduces_outputs(self, spec_dir, tmp_path):
        out = tmp_path / "orig"
        assert main(["--out", str(out), "sweep",
                     str(spec_dir / "synth.spec")]) == 0
        replay_out = tmp_path / "replayed"
        rc = main(["--out", str(replay_out), "replay",
                   str(out / "manifest.json")])
        assert rc == 0
        manifest = json.loads((out / "manifest.json").read_text())
        for name in manifest["outputs"]:
            assert read(out / name) == read(replay_out / name), name


    def _replay_matches(self, flags, spec, tmp_path):
        out = tmp_path / "orig"
        assert main(["--out", str(out), *flags, "sweep", str(spec)]) == 0
        replay_out = tmp_path / "replayed"
        assert main(["--out", str(replay_out), "replay",
                     str(out / "manifest.json")]) == 0
        assert read(out / "sweep.csv") == read(replay_out / "sweep.csv")
        return json.loads((out / "manifest.json").read_text())

    def test_replay_keeps_warmup_override(self, spec_dir, tmp_path):
        manifest = self._replay_matches(["--warmup", "3", "--points", "3"],
                                        spec_dir / "synth.spec", tmp_path)
        assert manifest["warmup"] == 3.0

    def test_replay_keeps_platform_file(self, spec_dir, tmp_path):
        box = spec_dir / "box.platform"
        box.write_text("mem_bw_capacity: 250\n")
        manifest = self._replay_matches(["--platform", str(box)],
                                        spec_dir / "synth.spec", tmp_path)
        assert "mem_bw_capacity: 250.0" in manifest["platform_content"]
        # the platform binds, so a replay on the default one would differ
        default = tmp_path / "default"
        assert main(["--out", str(default), "sweep",
                     str(spec_dir / "synth.spec")]) == 0
        assert read(default / "sweep.csv") != read(
            tmp_path / "orig" / "sweep.csv")

    def test_replay_of_non_json_exit_2(self, tmp_path, capsys):
        bad = tmp_path / "manifest.json"
        bad.write_text("not json")
        assert main(["--out", str(tmp_path / "r"), "replay", str(bad)]) == 2
        err = capsys.readouterr().err
        assert str(bad) in err and "not a JSON manifest" in err

    def test_replay_of_manifest_without_key_exit_2(self, spec_dir, tmp_path,
                                                   capsys):
        out = tmp_path / "orig"
        assert main(["--out", str(out), "--points", "2", "sweep",
                     str(spec_dir / "synth.spec")]) == 0
        manifest = json.loads((out / "manifest.json").read_text())
        bad = tmp_path / "manifest.json"
        for key in ("command", "spec_content", "profile_content", "seed",
                    "points", "out_dir"):
            bad.write_text(json.dumps({k: v for k, v in manifest.items()
                                       if k != key}))
            assert main(["replay", str(bad)]) == 2, key
            err = capsys.readouterr().err
            assert str(bad) in err and f"lacks key '{key}'" in err
        bad.write_text('{"seed": 1}')
        assert main(["--out", str(tmp_path / "r"), "replay", str(bad)]) == 2
        assert "lacks key 'command'" in capsys.readouterr().err


class TestSpecValidation:
    CLOSED_SPEC = """\
name: closed
profile: synth.profile
mode: closed_loop
sessions_min: 1
sessions_max: 8
duration: 5.0
"""

    @pytest.mark.parametrize("key,value", [
        ("points", "2.7"), ("n_clients", "1.5"), ("llc_ways", "5.5"),
        ("seed", "7.5"), ("zipf_support", "100.5"),
        ("sessions_min", "1.5"), ("sessions_max", "8.5")])
    def test_non_integral_count_exit_2(self, spec_dir, tmp_path, capsys,
                                       key, value):
        base = (self.CLOSED_SPEC if key.startswith("sessions")
                else FAST_SPEC)
        lines = [l for l in base.splitlines()
                 if not l.startswith(key + ":")]
        (spec_dir / "bad.spec").write_text(
            "\n".join(lines + [f"{key}: {value}"]) + "\n")
        rc = main(["--out", str(tmp_path / "o"), "sweep",
                   str(spec_dir / "bad.spec")])
        assert rc == 2
        assert f"'{key}': not an integer" in capsys.readouterr().err

    @pytest.mark.parametrize("key,value", [
        ("mem_bw_limit", "abc"), ("disk_bw_limit", "fast"),
        ("bw_limits", "unlimited,lots"), ("warmup", "soon"),
        ("lqos_override", "2ms"), ("duration", "inf"), ("rtt", "nan"),
        ("zipf_alpha", "nan"), ("qps_max", "-inf"), ("points", "inf")])
    def test_non_number_exit_2(self, spec_dir, tmp_path, capsys, key,
                               value):
        lines = [l for l in FAST_SPEC.splitlines()
                 if not l.startswith(key + ":")]
        (spec_dir / "bad.spec").write_text(
            "\n".join(lines + [f"{key}: {value}"]) + "\n")
        rc = main(["--out", str(tmp_path / "o"), "sweep",
                   str(spec_dir / "bad.spec")])
        assert rc == 2
        finite = "finite " if value.lstrip("-") in ("inf", "nan") else ""
        assert f"'{key}': not a {finite}number" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("key,value,message", [
        ("seed", "-1", "'seed': must be a non-negative integer"),
        ("warmup", "500", "'warmup': must lie in [0, duration)"),
        ("warmup", "8.0", "'warmup': must lie in [0, duration)"),
        ("warmup", "nan", "'warmup': must lie in [0, duration)"),
        ("warmup", "-1", "'warmup': must lie in [0, duration)"),
        ("lqos_override", "-1", "'lqos_override': must be positive"),
        ("lqos_override", "0", "'lqos_override': must be positive")])
    def test_out_of_range_exit_2(self, spec_dir, tmp_path, capsys, key,
                                 value, message):
        lines = [l for l in FAST_SPEC.splitlines()
                 if not l.startswith(key + ":")]
        (spec_dir / "bad.spec").write_text(
            "\n".join(lines + [f"{key}: {value}"]) + "\n")
        rc = main(["--out", str(tmp_path / "o"), "sweep",
                   str(spec_dir / "bad.spec")])
        assert rc == 2
        assert message in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("mode,key,value", [
        ("open_loop", "think_time", "3.0"), ("open_loop", "sessions_min", "1"),
        ("open_loop", "sessions_max", "8"), ("closed_loop", "qps_min", "10"),
        ("closed_loop", "qps_max", "100"), ("closed_loop", "n_clients", "7"),
        ("closed_loop", "arrival", "poisson"),
        ("closed_loop", "zipf_alpha", "1.2"),
        ("closed_loop", "zipf_support", "100")])
    def test_key_the_mode_does_not_read_exit_2(self, spec_dir, tmp_path,
                                               capsys, mode, key, value):
        base = self.CLOSED_SPEC if mode == "closed_loop" else FAST_SPEC
        lines = [l for l in base.splitlines() if not l.startswith(key + ":")]
        (spec_dir / "bad.spec").write_text(
            "\n".join(lines + [f"{key}: {value}"]) + "\n")
        rc = main(["--out", str(tmp_path / "o"), "sweep",
                   str(spec_dir / "bad.spec")])
        assert rc == 2
        assert f"key '{key}': not read in {mode} mode" in (
            capsys.readouterr().err)
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("arrival", ["poisson", "deterministic"])
    @pytest.mark.parametrize("key,value", [("zipf_alpha", "-5"),
                                           ("zipf_support", "1")])
    def test_zipf_key_under_another_arrival_exit_2(
            self, spec_dir, tmp_path, capsys, arrival, key, value):
        lines = [l for l in FAST_SPEC.splitlines()
                 if not l.startswith(("arrival:", "zipf_"))]
        (spec_dir / "bad.spec").write_text("\n".join(
            lines + [f"arrival: {arrival}", f"{key}: {value}"]) + "\n")
        rc = main(["--out", str(tmp_path / "o"), "sweep",
                   str(spec_dir / "bad.spec")])
        assert rc == 2
        assert f"key '{key}': not read with arrival {arrival}" in (
            capsys.readouterr().err)
        assert not (tmp_path / "o").exists()

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("where,key,value", [
        ("platform", "mem_bw_capacity", "5e-324"),
        ("platform", "mem_bw_capacity", "2.2250738585072014e-308"),
        ("platform", "disk_bw_capacity", "5e-324"),
        ("profile", "mem_stream_rate", "5e-324"),
        ("profile", "cpu_work", "1e308"),
        ("spec", "mem_bw_limit", "5e-324"),
        ("spec", "rtt", "8.98e307")])
    def test_time_the_run_cannot_hold_exit_2(self, spec_dir, tmp_path,
                                             capsys, where, key, value):
        # Each value passes its key's own range check, but makes a phase
        # or a round trip last inf s, or so long that the engine's sums
        # of them overflow.
        args = ["--out", str(tmp_path / "o"), "--points", "2"]
        if where == "platform":
            (spec_dir / "box.platform").write_text(f"{key}: {value}\n")
            args += ["--platform", str(spec_dir / "box.platform")]
        profile = FAST_PROFILE + "disk_bytes: 1000.0\n"
        if where == "profile":
            profile = with_value(profile, key, value)
        (spec_dir / "synth.profile").write_text(profile)
        spec = with_value(FAST_SPEC, key, value) if where == "spec" else (
            FAST_SPEC)
        (spec_dir / "bad.spec").write_text(spec)
        rc = main(args + ["sweep", str(spec_dir / "bad.spec")])
        assert rc == 2
        err = capsys.readouterr().err
        assert key in err and "hard stop" in err
        assert not (tmp_path / "o").exists()

    def test_window_without_requests_exit_2(self, tmp_path, capsys):
        # So short a run schedules no request in its summary window.
        lines = [l for l in shipped_spec_path("img-dnn").read_text()
                 .splitlines() if not l.startswith("duration:")]
        spec = tmp_path / "tiny.spec"
        spec.write_text("\n".join(lines + ["duration: 1e-6"]) + "\n")
        rc = main(["--out", str(tmp_path / "o"), "--points", "3", "sweep",
                   str(spec)])
        assert rc == 2
        assert capsys.readouterr().err == (
            "error: summarize: no requests scheduled in the window\n")

    @pytest.mark.parametrize("option,value", [
        ("--seed", "-1"), ("--warmup", "1000"), ("--warmup", "8"),
        ("--warmup", "nan"), ("--warmup", "-1")])
    def test_out_of_range_option_exit_2(self, spec_dir, tmp_path, capsys,
                                        option, value):
        rc = main(["--out", str(tmp_path / "o"), option, value, "sweep",
                   str(spec_dir / "synth.spec")])
        assert rc == 2
        assert f"error: {option}: must" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("value", ["0", "-3"])
    def test_parallelism_below_one_exit_2(self, spec_dir, tmp_path, capsys,
                                          value):
        rc = main(["--out", str(tmp_path / "o"), "--parallelism", value,
                   "sweep", str(spec_dir / "synth.spec")])
        assert rc == 2
        assert "--parallelism: must be at least 1" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("key,value,message", [
        ("zipf_support", str(ZIPF_SUPPORT_MAX + 1),
         f"zipf_support: must be at most {ZIPF_SUPPORT_MAX}"),
        ("zipf_support", "99999999999999999999999",
         f"zipf_support: must be at most {ZIPF_SUPPORT_MAX}"),
        ("n_clients", "99999999999999999999999",
         "n_clients: must be at most 2**63 - 1")])
    def test_oversized_count_exit_2(self, spec_dir, tmp_path, capsys, key,
                                    value, message):
        lines = [l for l in FAST_SPEC.splitlines()
                 if not l.startswith(key + ":")]
        (spec_dir / "bad.spec").write_text(
            "\n".join(lines + [f"{key}: {value}"]) + "\n")
        rc = main(["--out", str(tmp_path / "o"), "--points", "2", "sweep",
                   str(spec_dir / "bad.spec")])
        assert rc == 2
        assert capsys.readouterr().err == f"error: {message}\n"
        assert not (tmp_path / "o").exists()

    def test_limit_words_accepted(self, spec_dir):
        from tailsim.experiments import load_experiment_spec
        (spec_dir / "ok.spec").write_text(
            FAST_SPEC + "mem_bw_limit: none\ndisk_bw_limit: default\n"
            "bw_limits: unlimited, none, 300\n")
        spec = load_experiment_spec(spec_dir / "ok.spec")
        assert spec.limits.mem_bw_limit is None
        assert spec.limits.disk_bw_limit is None
        assert spec.bw_limits == (None, None, 300.0)

    def test_integral_float_accepted(self, spec_dir):
        from tailsim.experiments import load_experiment_spec
        (spec_dir / "ok.spec").write_text(
            FAST_SPEC.replace("points: 5", "points: 5.0"))
        assert load_experiment_spec(spec_dir / "ok.spec").n_points == 5

    def test_ways_list_checked_at_load(self, spec_dir, tmp_path, capsys):
        from tailsim.experiments import load_experiment_spec
        from tailsim.model import FileFormatError
        (spec_dir / "part.spec").write_text(FAST_SPEC
                                            + "ways_list: 11,0,99\n")
        with pytest.raises(FileFormatError, match="ways_list: 0 outside"):
            load_experiment_spec(spec_dir / "part.spec")
        rc = main(["--out", str(tmp_path / "p"), "partition",
                   str(spec_dir / "part.spec")])
        assert rc == 2
        assert "ways_list" in capsys.readouterr().err

    @pytest.mark.parametrize("key", ["threshold_streaming_nettx",
                                     "target_saturation"])
    def test_unknown_prefixed_key_exit_2(self, spec_dir, tmp_path, capsys,
                                         key):
        (spec_dir / "bad.spec").write_text(FAST_SPEC + f"{key}: 0.0001\n")
        rc = main(["--out", str(tmp_path / "o"), "classify",
                   str(spec_dir / "bad.spec")])
        assert rc == 2
        assert key in capsys.readouterr().err
        assert not (tmp_path / "o").exists()


# Values a hand-edited file may hold: signs, zero, nan, inf, numbers past
# every float and int64 range, empty and stray strings, paths, and lists
# with bad members.
ADVERSARIAL = st.one_of(
    st.sampled_from([
        "-1", "0", "-0.0", "nan", "inf", "-inf", "1e-300", "1e23", "1e200",
        "99999999999999999999999", "1e308", "abc", "", ".", "..", ",",
        "1,,2", "none", "unlimited", "ONE_ST", "closed_loop", "poisson"]),
    st.integers(-2**80, 2**80).map(str),
    st.floats().map(repr),
    st.lists(st.sampled_from(["1", "0", "-1", "2.5", "nan", "inf", "x", "",
                              "1e23", "unlimited"]),
             min_size=1, max_size=4).map(",".join))

FUZZ_SPECS = {
    "open_loop": FAST_SPEC.replace("qps_min: 60.0", "qps_min: 20.0")
    .replace("qps_max: 700.0", "qps_max: 200.0")
    .replace("duration: 8.0", "duration: 1.0")
    .replace("warmup: 1.0", "warmup: 0.2"),
    "closed_loop": "name: closed\nprofile: synth.profile\nmode: closed_loop\n"
    "sessions_min: 1\nsessions_max: 4\nthink_time: 0.01\nduration: 1.0\n"
    "warmup: 0.2\nseed: 77\n",
}
PROFILE_KEYS = ("name", "service_dist", "service_cv") + _PROFILE_FLOAT_FIELDS


def with_value(text: str, key: str, value: str) -> str:
    """text with key's line, if any, replaced by key: value at the end."""
    lines = [l for l in text.splitlines() if not l.startswith(key + ":")]
    return "\n".join(lines + [f"{key}: {value}"]) + "\n"


def accepted(load, *args):
    """What the loader returns, or None when it raises one of the errors
    the CLI reports with exit 2; any other error fails the test."""
    try:
        return load(*args)
    except VALIDATION_ERRORS:
        return None


def check_input(spec_text: str, profile_text: str = FAST_PROFILE,
                platform_text: str | None = None) -> None:
    """Each loader of the input returns or raises an exit-2 error. An
    accepted spec runs --points 2 sweep end to end when its size is
    bounded: at most 2 s and 1e4 QPS or sessions, whose run time and
    memory are small whatever the other keys hold."""
    with tempfile.TemporaryDirectory() as tmp:
        root = Path(tmp)
        (root / "synth.profile").write_text(profile_text)
        (root / "fuzz.spec").write_text(spec_text)
        args = ["--out", str(root / "out"), "--points", "2"]
        platform = PlatformConfig()
        if platform_text is not None:
            (root / "fuzz.platform").write_text(platform_text)
            platform = accepted(load_platform, root / "fuzz.platform")
            if platform is None:
                return
            args += ["--platform", str(root / "fuzz.platform")]
        profile = accepted(load_profile, root / "synth.profile")
        if (profile is None
                or accepted(validate_profile, profile, platform) is None):
            return
        spec = accepted(load_experiment_spec, root / "fuzz.spec", platform)
        if spec is None:
            return
        # No accepted spec asks for an unbounded zipf support table.
        assert spec.config.arrival.support_n <= ZIPF_SUPPORT_MAX
        if spec.scenario.duration <= 2.0 and spec.qps_range[1] <= 1e4:
            # 3: an unreachable QoS target, a result of the run
            assert main(args + ["sweep", str(root / "fuzz.spec")]) in (
                0, 2, 3)


@pytest.mark.filterwarnings("error::RuntimeWarning")
class TestAdversarialInput:
    """Bad values in any key of a spec, profile or platform file exit 2
    with a message; they never end in a traceback, a numpy RuntimeWarning
    or exhausted memory."""

    @pytest.mark.parametrize("mode", sorted(FUZZ_SPECS))
    @pytest.mark.parametrize("key", sorted(_SPEC_KEYS))
    @settings(max_examples=12, deadline=None)
    @given(value=ADVERSARIAL)
    def test_spec_key(self, mode, key, value):
        check_input(with_value(FUZZ_SPECS[mode], key, value))

    @pytest.mark.parametrize("key", PROFILE_KEYS)
    @settings(max_examples=12, deadline=None)
    @given(value=ADVERSARIAL)
    def test_profile_key(self, key, value):
        check_input(FUZZ_SPECS["open_loop"],
                    profile_text=with_value(FAST_PROFILE, key, value))

    @pytest.mark.parametrize("key", _PLATFORM_FIELDS)
    @settings(max_examples=12, deadline=None)
    @given(value=ADVERSARIAL)
    def test_platform_key(self, key, value):
        check_input(FUZZ_SPECS["open_loop"],
                    platform_text=with_value("", key, value))


class TestCharacterize:
    def test_bundle_contents(self, spec_dir, tmp_path):
        out = tmp_path / "char"
        rc = main(["--out", str(out), "--points", "4", "characterize",
                   str(spec_dir / "synth.spec")])
        assert rc == 0
        for topo in ("one_st", "two_st", "two_smt"):
            assert (out / f"sweep_{topo}.csv").exists()
        for panel in ("p95", "util", "net_tx", "disk", "mem", "llc"):
            svg = (out / f"plot_{panel}.svg").read_text()
            assert svg.startswith("<svg")
            assert "ONE_ST" in svg
        summary = json.loads((out / "summary.json").read_text())
        assert summary["classification"]["category"] in (
            "fast", "streaming", "high_disk", "high_processor")
        assert "ONE_ST" in summary["saturation"]

    def test_smt_degenerate_profile_panels_coincide(self, spec_dir,
                                                    tmp_path):
        profile = FAST_PROFILE.replace("smt_efficiency: 0.8",
                                       "smt_efficiency: 1.0")
        (spec_dir / "synth.profile").write_text(profile)
        out = tmp_path / "char1"
        rc = main(["--out", str(out), "--points", "3", "characterize",
                   str(spec_dir / "synth.spec")])
        assert rc == 0
        import csv
        rows_st = list(csv.DictReader(
            (out / "sweep_two_st.csv").open()))
        rows_smt = list(csv.DictReader(
            (out / "sweep_two_smt.csv").open()))
        assert rows_st == rows_smt

    def test_manifest_counts_engine_paths(self, tmp_path):
        # img-dnn has no disk phase and its memory never contends, so ONE_ST
        # and TWO_ST take the constant-rate path; its SMT slowdown keeps
        # TWO_SMT on the event engine
        out = tmp_path / "imgdnn"
        rc = main(["--out", str(out), "--points", "3", "characterize",
                   str(shipped_spec_path("img-dnn"))])
        assert rc == 0
        status = json.loads((out / "manifest.json").read_text())["status"]
        events = status["TWO_SMT"]["events"]
        assert events > 0
        assert status == {
            "ONE_ST": {"points": 3, "engine": {"constant_rate": 3},
                       "events": 0},
            "TWO_ST": {"points": 3, "engine": {"constant_rate": 3},
                       "events": 0},
            "TWO_SMT": {"points": 3, "engine": {"event": 3},
                        "events": events},
        }
        for name in ("summary.json", "features.json"):
            assert "engine" not in (out / name).read_text()

    def test_closed_loop_spec(self, tmp_path):
        out = tmp_path / "media"
        rc = main(["--out", str(out), "--points", "3", "characterize",
                   str(shipped_spec_path("media-streaming"))])
        assert rc == 0
        summary = json.loads((out / "summary.json").read_text())
        assert summary["mode"] == "closed_loop"
        assert summary["classification"]["category"] == "streaming"
        latency_panel = (out / "plot_p95.svg").read_text()
        assert ">sessions<" in latency_panel
        assert "transfer+response" in latency_panel

    def test_closed_loop_saturation_is_peak_throughput(self, tmp_path):
        # A closed-loop sweep has no latency QoS: every topology reports
        # its peak completion rate, the one the classifier reads.
        out = tmp_path / "media"
        rc = main(["--out", str(out), "--points", "3", "characterize",
                   str(shipped_spec_path("media-streaming"))])
        assert rc == 0
        summary = json.loads((out / "summary.json").read_text())
        features = json.loads((out / "features.json").read_text())
        sat = summary["saturation"]
        assert {s["binding"] for s in sat.values()} == {"throughput"}
        assert sat["ONE_ST"]["qps"] == features["features"]["saturation_qps"]
        assert summary["ratios"]["two_st_over_one_st_saturation"] == (
            sat["TWO_ST"]["qps"] / sat["ONE_ST"]["qps"])


    def test_closed_loop_reports_no_qos(self, tmp_path):
        # A closed-loop sweep has no latency QoS: no command derives an
        # LQoS from its session sweep, and no panel draws one.
        spec = str(shipped_spec_path("media-streaming-partition"))
        for command in ("sweep", "characterize", "partition"):
            rc = main(["--out", str(tmp_path / command), "--points", "2",
                       command, spec])
            assert rc == 0, command
        summary = json.loads((tmp_path / "sweep/summary.json").read_text())
        assert summary["qos"] is None
        summary = json.loads(
            (tmp_path / "characterize/summary.json").read_text())
        assert summary["qos"] == {"ONE_ST": None, "TWO_ST": None,
                                  "TWO_SMT": None}
        assert "LQoS" not in (
            tmp_path / "characterize/plot_p95.svg").read_text()
        summary = json.loads(
            (tmp_path / "partition/summary.json").read_text())
        assert [e["qos"] for e in summary["entries"]] == [None, None]


class TestPartition:
    def test_cat_and_mba_bundle(self, spec_dir, tmp_path):
        spec = FAST_SPEC + "ways_list: 11,5,2\nbw_limits: unlimited,300\n"
        (spec_dir / "part.spec").write_text(spec)
        out = tmp_path / "part"
        rc = main(["--out", str(out), "--points", "3", "partition",
                   str(spec_dir / "part.spec")])
        assert rc == 0
        for name in ("cat_w11.csv", "cat_w5.csv", "cat_w2.csv",
                     "mba_unlimited.csv", "mba_300.csv",
                     "plot_p95.svg", "plot_llc.svg", "plot_mem.svg",
                     "plot_util.svg"):
            assert (out / name).exists(), name
        summary = json.loads((out / "summary.json").read_text())
        assert len(summary["entries"]) == 5
        caps = {e["label"]: e["llc_capacity_mb"]
                for e in summary["entries"]}
        assert caps["cat_w11"] == pytest.approx(16.5)
        assert caps["cat_w5"] == pytest.approx(7.5)
        assert caps["cat_w2"] == pytest.approx(3.0)
        assert caps["mba_300"] is None

    def test_override_reason_reaches_summary(self, spec_dir, tmp_path):
        spec = (FAST_SPEC + "ways_list: 5,2\nlqos_override: 0.02\n"
                "override_reason: knee\n")
        (spec_dir / "part.spec").write_text(spec)
        out = tmp_path / "part"
        assert main(["--out", str(out), "--points", "3", "partition",
                     str(spec_dir / "part.spec")]) == 0
        summary = json.loads((out / "summary.json").read_text())
        for entry in summary["entries"]:
            assert entry["qos"]["manual_override_s"] == 0.02
            assert entry["qos"]["override_reason"] == "knee"

    def test_partition_without_lists_exit_2(self, spec_dir, tmp_path):
        rc = main(["--out", str(tmp_path / "p2"), "partition",
                   str(spec_dir / "synth.spec")])
        assert rc == 2

    def test_ways_outside_platform_exit_2(self, spec_dir, tmp_path):
        spec = FAST_SPEC + "ways_list: 14,2\n"
        (spec_dir / "part.spec").write_text(spec)
        rc = main(["--out", str(tmp_path / "p3"), "partition",
                   str(spec_dir / "part.spec")])
        assert rc == 2


class TestClassifyCommand:
    def test_classification_json(self, spec_dir, tmp_path):
        out = tmp_path / "cls"
        rc = main(["--out", str(out), "classify",
                   str(spec_dir / "synth.spec")])
        assert rc == 0
        payload = json.loads((out / "classification.json").read_text())
        assert payload["category"] == "fast"
        assert payload["rule"] == "fast"
        assert payload["features"]["saturation_qps"] > 0
        assert payload["trace"]

    def test_threshold_override_in_spec(self, spec_dir, tmp_path):
        spec = FAST_SPEC + "threshold_streaming_net_tx: 0.5\n"
        (spec_dir / "s2.spec").write_text(spec)
        out = tmp_path / "cls2"
        rc = main(["--out", str(out), "classify", str(spec_dir / "s2.spec")])
        assert rc == 0
        payload = json.loads((out / "classification.json").read_text())
        assert payload["category"] == "streaming"


class TestCalibrateCommand:
    def test_calibrate_writes_profile_and_residuals(self, spec_dir,
                                                    tmp_path):
        spec = FAST_SPEC + "target_lqos: 0.005\n"
        (spec_dir / "cal.spec").write_text(spec)
        out = tmp_path / "cal"
        rc = main(["--out", str(out), "calibrate",
                   str(spec_dir / "cal.spec")])
        assert rc == 0
        payload = json.loads((out / "calibration.json").read_text())
        assert abs(payload["residuals"]["lqos"]) <= 0.2
        from tailsim.model import load_profile
        prof = load_profile(out / "calibrated.profile")
        assert prof.cpu_work > 0

    def test_missing_targets_exit_2(self, spec_dir, tmp_path):
        rc = main(["--out", str(tmp_path / "c2"), "calibrate",
                   str(spec_dir / "synth.spec")])
        assert rc == 2


@pytest.fixture()
def pools(monkeypatch):
    """max_workers of every process pool made while the test runs; the
    pools are real and run their jobs in worker processes."""
    import concurrent.futures
    made = []
    real = concurrent.futures.ProcessPoolExecutor

    class Counted(real):
        def __init__(self, max_workers=None, **kwargs):
            made.append(max_workers)
            super().__init__(max_workers=max_workers, **kwargs)

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", Counted)
    return made


class TestOnePoolPerCommand:
    SPEC = FAST_SPEC.replace("duration: 8.0", "duration: 3.0") + (
        "ways_list: 11,2\nbw_limits: unlimited,300\n")

    @pytest.mark.parametrize("command", ["sweep", "classify",
                                         "characterize", "partition"])
    def test_one_pool_and_same_outputs(self, command, spec_dir, tmp_path,
                                       pools):
        (spec_dir / "part.spec").write_text(self.SPEC)
        outs = {}
        for par in ("1", "2"):
            outs[par] = tmp_path / f"p{par}"
            assert main(["--out", str(outs[par]), "--points", "3",
                         "--parallelism", par, command,
                         str(spec_dir / "part.spec")]) == 0
        # one sweep, 3 topologies or 4 levels of 3 points: one pool of 2
        assert pools == [2]
        names = sorted(p.name for p in outs["1"].iterdir())
        assert names == sorted(p.name for p in outs["2"].iterdir())
        for name in names:
            if name != "manifest.json":
                assert read(outs["1"] / name) == read(outs["2"] / name), name
