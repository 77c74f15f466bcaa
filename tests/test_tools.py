"""The maintenance scripts under tools/ import the library's API; importing
them here keeps an API removal from breaking them unnoticed."""

import hashlib
import importlib.util
import io
import json
import math
import re
import shutil
import subprocess
from pathlib import Path

import pytest

TOOLS = Path(__file__).resolve().parent.parent / "tools"


def load_tool(name):
    spec = importlib.util.spec_from_file_location(name, TOOLS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_tune_profiles_imports_and_measures():
    tune = load_tool("tune_profiles")
    w = dict(tune.WORKLOADS["img-dnn"], duration=2.0, qps_range=(50.0, 800.0))
    sat, qos, sweep = tune.measure_sat(tune.build_profile("img-dnn", w, 0.0),
                                       w, support=50)
    assert len(sweep.points) == 12
    assert sat == 0.0 or qos.resolved


def test_tune_profiles_pins_shipped_cpu_work():
    from tailsim.model import shipped_profile
    tune = load_tool("tune_profiles")
    pinned = [n for n, w in tune.WORKLOADS.items() if "cpu_work" not in w]
    assert len(pinned) == 7
    for name in pinned:
        prof = tune.build_profile(name, tune.WORKLOADS[name], 0.0)
        assert prof.cpu_work == shipped_profile(name).cpu_work, name


def test_tune_profiles_rewrites_shipped_files(tmp_path, monkeypatch):
    # xapian pins cpu_work and bisects cv, sphinx has a fixed cv and
    # support, shore searches its disk bandwidth.
    from tailsim.experiments import shipped_spec_path
    from tailsim.model import shipped_profile_path
    tune = load_tool("tune_profiles")
    monkeypatch.setattr(tune, "PROFILE_DIR", tmp_path)
    monkeypatch.setattr(tune, "SPEC_DIR", tmp_path)
    names = ["xapian", "sphinx", "shore"]
    tune.main(names)
    written = sorted(p.name for p in tmp_path.iterdir())
    assert written == sorted([f"{n}.profile" for n in names]
                             + [f"{n}.spec" for n in names])
    for name in names:
        assert ((tmp_path / f"{name}.profile").read_bytes()
                == shipped_profile_path(name).read_bytes()), name
        assert ((tmp_path / f"{name}.spec").read_bytes()
                == shipped_spec_path(name).read_bytes()), name


def test_tune_profiles_spec_writers_give_shipped_specs(tmp_path,
                                                       monkeypatch):
    # Given what the search chose (the shipped zipf_support, and shore's
    # disk bandwidth), each spec writer writes the shipped file and
    # returns the fields it wrote.
    from tailsim.experiments import load_experiment_spec, shipped_spec_path
    from tailsim.model import kv_text
    tune = load_tool("tune_profiles")
    monkeypatch.setattr(tune, "SPEC_DIR", tmp_path)
    written = {"media-streaming": tune.write_media_spec()}
    for name, w in tune.WORKLOADS.items():
        shipped = load_experiment_spec(shipped_spec_path(name))
        written[name] = tune.write_spec(name, dict(
            w, support=shipped.config.arrival.support_n,
            disk_limit=shipped.limits.disk_bw_limit))
    assert len(written) == 9
    for name, fields in written.items():
        text = shipped_spec_path(name).read_text()
        assert (tmp_path / f"{name}.spec").read_text() == text, name
        assert kv_text(fields) == text, name


def write_root(root, p95, binding, wall):
    (root / "sweep-x").mkdir(parents=True)
    (root / "sweep-x" / "sweep.csv").write_text(
        f"qps,p95,gate_ok\n100.0,0.002,True\n200.0,{p95},False\n")
    (root / "sweep-x" / "summary.json").write_text(json.dumps(
        {"saturation": {"qps": 150.0, "binding": binding},
         "points": [{"qps": 100.0}, {"qps": 200.0}]}))
    (root / "sweep-x" / "manifest.json").write_text(
        json.dumps({"wall_clock_s": wall}))
    (root / "sweep-x" / "plot_p95.svg").write_text("<svg/>\n")


def test_compare_outputs_reports_changed_cells(tmp_path):
    tool = load_tool("compare_outputs")
    a, b, c = tmp_path / "a", tmp_path / "b", tmp_path / "c"
    write_root(a, 0.004, "qos", 1.0)
    write_root(b, 0.004, "qos", 2.0)  # only the manifest's wall clock
    write_root(c, 0.005, "throughput", 1.0)
    (c / "sweep-x" / "plot_p95.svg").write_text("<svg></svg>\n")
    (c / "extra.csv").write_text("x\n1\n")

    out = io.StringIO()
    assert tool.compare(a, b, out) == 0
    assert out.getvalue() == ("4 of 4 files identical (manifest.json "
                              "without wall_clock_s and out_dir), 0 differ\n")
    assert tool.main([str(a), str(b)]) == 0

    out = io.StringIO()
    assert tool.compare(a, c, out) == 4
    lines = out.getvalue().splitlines()
    assert lines == [
        "extra.csv: only in B",
        "sweep-x/plot_p95.svg: differs",
        "sweep-x/summary.json: .saturation.binding: 'qos' -> 'throughput'",
        "sweep-x/sweep.csv: row 2 p95: '0.004' -> '0.005' (rel 0.25)",
        "1 of 5 files identical (manifest.json without wall_clock_s and "
        "out_dir), 4 differ",
        "largest change: sweep-x/sweep.csv p95: rel 0.25",
    ]
    assert tool.main([str(a), str(c)]) == 1


def test_compare_outputs_tolerates_numbers_within_rel(tmp_path):
    tool = load_tool("compare_outputs")
    a, b, c = tmp_path / "a", tmp_path / "b", tmp_path / "c"
    write_root(a, 0.004, "qos", 1.0)
    write_root(b, 0.004000000001, "qos", 1.0)  # p95 moves by rel 2.5e-10
    write_root(c, 0.004, "throughput", 1.0)  # only a string differs

    out = io.StringIO()
    assert tool.compare(a, b, out, tol=1e-9) == 0
    assert out.getvalue().splitlines()[-3:] == [
        "3 of 4 files identical (manifest.json without wall_clock_s and "
        "out_dir), 1 differ",
        "1 differ only in numbers within rel 1e-09",
        "largest change: sweep-x/sweep.csv p95: rel 2.5e-10",
    ]
    assert tool.main([str(a), str(b), "--rel", "1e-9"]) == 0
    # outside the tolerance, and with none, the file still fails
    assert tool.compare(a, b, io.StringIO(), tol=1e-11) == 1
    assert tool.main([str(a), str(b), "--rel", "1e-11"]) == 1
    assert tool.main([str(a), str(b)]) == 1
    # a string must match exactly whatever the tolerance
    assert tool.compare(a, c, io.StringIO(), tol=1.0) == 1


def test_compare_outputs_checks_manifest(tmp_path):
    tool = load_tool("compare_outputs")
    manifest = {"command": "sweep", "out_dir": "a/sweep-x",
                "outputs": ["sweep.csv", "summary.json"],
                "status": {"sweep": {"points": 2, "gated": 1}},
                "wall_clock_s": 1.0}
    changed = {
        "same": dict(manifest, out_dir="b/sweep-x", wall_clock_s=2.5),
        "status": dict(manifest, status={"sweep": {"points": 2,
                                                   "gated": 2}}),
        "outputs": dict(manifest, outputs=["sweep.csv"]),
    }
    (tmp_path / "a").mkdir()
    (tmp_path / "a" / "manifest.json").write_text(json.dumps(manifest))
    for name, m in changed.items():
        (tmp_path / name).mkdir()
        (tmp_path / name / "manifest.json").write_text(json.dumps(m))
    out = io.StringIO()
    assert tool.compare(tmp_path / "a", tmp_path / "same", out) == 0
    out = io.StringIO()
    assert tool.compare(tmp_path / "a", tmp_path / "status", out) == 1
    assert out.getvalue().splitlines()[0] == (
        "manifest.json: .status.sweep.gated: 1 -> 2 (rel 1)")
    out = io.StringIO()
    assert tool.compare(tmp_path / "a", tmp_path / "outputs", out) == 1
    assert out.getvalue().splitlines()[0] == (
        "manifest.json: .outputs[1]: 'summary.json' -> '<missing>'")


SHORT_SPEC = """\
name: short
profile: img-dnn.profile
topology: ONE_ST
mode: open_loop
qps_min: 100.0
qps_max: 1500.0
points: 3
duration: 2.0
n_clients: 4
arrival: poisson
seed: 5
ways_list: 5,2
"""


def short_checkout(root):
    """A checkout whose only shipped spec is a short partition spec."""
    checkout = root / "checkout"
    shutil.copytree(TOOLS.parent / "src" / "tailsim",
                    checkout / "src" / "tailsim",
                    ignore=shutil.ignore_patterns("*.spec", "__pycache__"))
    (checkout / "src" / "tailsim" / "specs" / "short.spec").write_text(
        SHORT_SPEC)
    return checkout


def test_shipped_outputs_runs_every_command(tmp_path, capsys):
    from tailsim.cli import main as cli_main
    checkout = short_checkout(tmp_path)
    tool = load_tool("shipped_outputs")
    for out in ("a", "b"):
        assert tool.main([str(checkout), str(tmp_path / out)]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert [line.split(":")[0] for line in lines[:4]] == [
        "sweep short", "characterize short", "classify short",
        "partition short"]
    assert lines[4] == f"4 of 4 commands ran -> {tmp_path / 'a'}"
    for command in ("sweep", "characterize", "classify", "partition"):
        assert (tmp_path / "a" / f"{command}-short" /
                "manifest.json").is_file()
    compare = load_tool("compare_outputs")
    assert compare.compare(tmp_path / "a", tmp_path / "b", io.StringIO()) == 0
    # each manifest replays into a tree equal to its run's, manifest too
    for manifest in (tmp_path / "a").glob("*/manifest.json"):
        assert cli_main(["--out", str(tmp_path / "replayed" /
                                      manifest.parent.name),
                         "replay", str(manifest)]) == 0
    assert compare.compare(tmp_path / "a", tmp_path / "replayed",
                           io.StringIO()) == 0
    assert tool.main([str(tmp_path / "empty"), str(tmp_path / "c")]) == 2


def test_shipped_outputs_passes_parallelism(tmp_path, monkeypatch):
    checkout = short_checkout(tmp_path)
    tool = load_tool("shipped_outputs")
    argvs = []
    real_run = tool.subprocess.run

    def run(argv, **kwargs):
        argvs.append(argv[3:5])
        return real_run(argv, **kwargs)

    monkeypatch.setattr(tool.subprocess, "run", run)
    assert tool.main([str(checkout), str(tmp_path / "serial")]) == 0
    assert tool.main([str(checkout), str(tmp_path / "pooled"),
                      "--parallelism", "2"]) == 0
    assert argvs == ([["--parallelism", "1"]] * 4
                     + [["--parallelism", "2"]] * 4)
    # the pool changes no output file
    compare = load_tool("compare_outputs")
    assert compare.compare(tmp_path / "serial", tmp_path / "pooled",
                           io.StringIO()) == 0


def test_relative_change():
    tool = load_tool("compare_outputs")
    assert tool.relative_change("2.0", "2.0") == 0.0
    assert tool.relative_change(4.0, 3.0) == 0.25
    assert tool.relative_change("0", "1e-9") == math.inf
    assert tool.relative_change("nan", "1.0") == math.inf
    assert tool.relative_change("nan", "nan") == 0.0
    assert tool.relative_change("", "1.0") is None
    assert tool.relative_change("qos", "range") is None
    assert tool.relative_change(True, 1.0) is None


STUB_RUN = """\
import json, sys
from pathlib import Path

import pytest
with open({log!r}, "a") as f:
    f.write({side!r} + " " + " ".join(sys.argv[1:]) + "\\n")
print("env " + json.dumps({{"commit": {side!r}}}))
print("workload ...")
print(json.dumps({{"correct": True, "attempted": 3, "failed": 0,
                  "metrics": {metrics}}}))
"""


def stub_checkout(root, side, log, metrics):
    (root / "perfbench").mkdir(parents=True)
    (root / "perfbench" / "run.py").write_text(STUB_RUN.format(
        log=str(log), side=side, metrics=json.dumps(metrics)))
    (root / "BENCHMARK.json").write_text(json.dumps({
        "end_to_end": [{"name": "wall_s", "better": "lower"},
                       {"name": "sim_req_per_s", "better": "higher"}]}))


def test_bench_pairs_alternates_and_summarizes(tmp_path, capsys):
    tool = load_tool("bench_pairs")
    log = tmp_path / "order.log"
    stub_checkout(tmp_path / "p", "parent", log, {
        "wall_s": {"value": 2.0, "unit": "s"},
        "sim_req_per_s": {"value": 100.0, "unit": "req/s"},
        "extra": {"value": 1.0, "unit": "count"}})
    stub_checkout(tmp_path / "c", "change", log, {
        "wall_s": {"value": 1.5, "unit": "s"},
        "sim_req_per_s": {"value": 90.0, "unit": "req/s"},
        "extra": {"value": 1.0, "unit": "count"}})
    out = tmp_path / "BENCH.json"
    argv = [str(tmp_path / "p"), str(tmp_path / "c"), "--workload", "w",
            "--pairs", "3", "--seed", "7", "--seconds", "5", "--out",
            str(out)]
    assert tool.main(argv) == 0
    flags = "--workload w --seconds 5.0 --trace 0 --seed 7"
    assert log.read_text().splitlines() == [
        f"{side} {flags}" for side in ("parent", "change", "change",
                                       "parent", "parent", "change")]
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == "pair 0: parent wall_s 2, change wall_s 1.5"
    assert lines[3:] == [
        "extra [count]: parent 1 [1, 1], change 1 [1, 1], change wins ?/3, "
        "|median gap| > parent IQR: no",
        "sim_req_per_s [req/s]: parent 100 [100, 100], change 90 [90, 90], "
        "change wins 0/3, |median gap| > parent IQR: yes",
        "wall_s [s]: parent 2 [2, 2], change 1.5 [1.5, 1.5], change wins "
        "3/3, |median gap| > parent IQR: yes",
        "runs failed or incorrect: 0 of 6",
    ]
    saved = json.loads(out.read_text())["sets"]
    assert len(saved) == 1
    assert saved[0]["workload"] == "w" and saved[0]["seed"] == 7
    assert saved[0]["sources"] == {
        side: tool.source_id(tmp_path / d)
        for side, d in (("parent", "p"), ("change", "c"))}
    assert [p["first"] for p in saved[0]["pairs"]] == [
        "parent", "change", "parent"]
    assert saved[0]["pairs"][1]["change"]["env"] == {"commit": "change"}
    assert saved[0]["pairs"][1]["parent"]["result"]["metrics"][
        "wall_s"]["value"] == 2.0

    # a second set is added beside the first; the same set again replaces it
    assert tool.main(argv[:-4] + ["--seconds", "9", "--out", str(out)]) == 0
    assert tool.main(argv) == 0
    saved = json.loads(out.read_text())["sets"]
    assert [s["seconds"] for s in saved] == [9.0, 5.0]


def canned_checkout(root, walls, slowness):
    """A checkout whose perfbench/run.py prints perfbench's output for
    command runs of the given raw walls at one host slowness."""
    runs = [f"run {i}: wall {w:.3f} s, cpu {2 * w:.3f} s, peak rss 37.4 "
            f"MB, host slowness {slowness:.3f}, ok"
            for i, w in enumerate(walls)]
    scaled = sorted(w / slowness for w in walls)[len(walls) // 2]
    result = {"correct": True, "attempted": len(walls), "failed": 0,
              "metrics": {"wall_s": {"value": scaled, "unit": "s"}}}
    text = "\n".join(["env {}", "workload imgdnn-cat-partition: ...",
                      "requests simulated per command: 10", *runs,
                      "failed_ratio 0 (0/3)", f"wall_s {scaled:.6g} s",
                      json.dumps(result)])
    (root / "perfbench").mkdir(parents=True)
    (root / "perfbench" / "run.py").write_text(f"print({text!r})\n")
    (root / "BENCHMARK.json").write_text(json.dumps({"end_to_end": [
        {"name": "wall_s", "better": "lower"},
        {"name": "cpu_s", "better": "lower"}]}))
    return runs


def test_bench_pairs_keeps_raw_figures(tmp_path, capsys):
    # the change runs faster, but its probe reads the host as faster too,
    # so its scaled wall is the worse one; the raw figures show both
    tool = load_tool("bench_pairs")
    canned_checkout(tmp_path / "p", [0.40, 0.39, 0.41], 0.950)
    runs = canned_checkout(tmp_path / "c", [0.38, 0.37, 0.39], 0.880)
    out = tmp_path / "BENCH.json"
    assert tool.main([str(tmp_path / "p"), str(tmp_path / "c"),
                      "--workload", "w", "--pairs", "2",
                      "--out", str(out)]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[2:] == [
        "cpu_s.raw [s]: parent 0.8 [0.8, 0.8], change 0.76 [0.76, 0.76], "
        "change wins 2/2, |median gap| > parent IQR: yes",
        "host_slowness []: parent 0.95 [0.95, 0.95], change 0.88 [0.88, "
        "0.88], change wins ?/2, |median gap| > parent IQR: yes",
        "wall_s [s]: parent 0.421053 [0.421053, 0.421053], change 0.431818 "
        "[0.431818, 0.431818], change wins 0/2, |median gap| > parent IQR: "
        "yes",
        "wall_s.raw [s]: parent 0.4 [0.4, 0.4], change 0.38 [0.38, 0.38], "
        "change wins 2/2, |median gap| > parent IQR: yes",
        "runs failed or incorrect: 0 of 4",
    ]
    pair = json.loads(out.read_text())["sets"][0]["pairs"][0]
    assert pair["change"]["runs"] == runs


def test_bench_pairs_counts_failed_runs(tmp_path, capsys):
    tool = load_tool("bench_pairs")
    stub_checkout(tmp_path / "p", "parent", tmp_path / "log", {})
    (tmp_path / "c" / "perfbench").mkdir(parents=True)
    (tmp_path / "c" / "perfbench" / "run.py").write_text(
        "import sys\nsys.exit('broken')\n")
    assert tool.main([str(tmp_path / "p"), str(tmp_path / "c"),
                      "--workload", "w", "--pairs", "1", "--out",
                      str(tmp_path / "o.json")]) == 1
    out = capsys.readouterr().out
    assert "change exit 1: broken" in out
    assert "runs failed or incorrect: 1 of 2" in out


def test_source_id_names_the_code_a_checkout_holds(tmp_path):
    tool = load_tool("bench_pairs")
    a = tmp_path / "a"
    (a / "src" / "pkg" / "__pycache__").mkdir(parents=True)
    (a / "src" / "pkg" / "m.py").write_text("x = 1\n")
    (a / "src" / "pkg" / "b.txt").write_text("b\n")
    (a / "README.md").write_text("not source\n")
    lines = "".join(
        f"{hashlib.sha256(text.encode()).hexdigest()}  {name}\n"
        for name, text in (("src/pkg/b.txt", "b\n"),
                           ("src/pkg/m.py", "x = 1\n")))
    expected = "src-sha256 " + hashlib.sha256(lines.encode()).hexdigest()
    assert tool.source_id(a) == expected
    # bytecode caches and files outside src/ leave it alone
    (a / "src" / "pkg" / "__pycache__" / "m.pyc").write_bytes(b"\0")
    (a / "README.md").write_text("edited\n")
    assert tool.source_id(a) == expected
    (a / "src" / "pkg" / "m.py").write_text("x = 2\n")
    assert tool.source_id(a) != expected

    # a git checkout is named by its commit
    git = ["git", "-C", str(a), "-c", "user.name=t", "-c", "user.email=t@t"]
    subprocess.run(git + ["init", "-q"], check=True)
    subprocess.run(git + ["add", "-A"], check=True)
    subprocess.run(git + ["commit", "-q", "-m", "c"], check=True)
    head = subprocess.run(git + ["rev-parse", "HEAD"], check=True,
                          capture_output=True, text=True).stdout.strip()
    assert tool.source_id(a) == f"commit {head}"


def test_engine_time_against_itself(tmp_path, capfd):
    # The checkout against itself, loaded as a second package: both sides
    # run the same paths and give the same events and bits, and each
    # round gives one ratio.
    checkout = short_checkout(tmp_path)
    tool = load_tool("engine_time")
    assert tool.main([str(checkout), "--spec", "short", "--rounds", "2",
                      "--against", str(checkout)]) == 0
    lines = [line.split(", ")
             for line in capfd.readouterr().out.splitlines()]
    assert [line[0].split(":")[0] for line in lines] == [
        "ONE_ST constant_rate", "TWO_ST constant_rate", "TWO_SMT event"]
    for line in lines:
        assert line[0].split(": ")[1].startswith("parent ")
        assert line[1].startswith("change ")
        assert len(line[2].split()[3:]) == 2
        word, parent, arrow, change = line[3].split()
        assert (word, arrow) == ("events", "->") and parent == change
        assert line[4] == "digests equal"
    assert int(lines[2][3].split()[1]) > 0
    # a parent whose spec draws other schedules gives other bits
    parent = tmp_path / "parent"
    shutil.copytree(checkout, parent)
    spec = parent / "src" / "tailsim" / "specs" / "short.spec"
    spec.write_text(SHORT_SPEC.replace("seed: 5", "seed: 6"))
    assert tool.main([str(checkout), "--spec", "short", "--rounds", "1",
                      "--against", str(parent)]) == 0
    assert [line.split(", ")[-1] for line in
            capfd.readouterr().out.splitlines()] == ["digests differ"] * 3
    with pytest.raises(SystemExit):
        tool.main([str(checkout), "--spec", "short",
                   "--against", str(tmp_path / "nowhere")])


def test_engine_time_overrides_clients_and_round_trip(tmp_path, capfd):
    # The short spec walks no request. With one client and a round trip
    # every point is replaced on both sides, and ONE_ST walks every
    # request it issues: each side's count shows.
    checkout = short_checkout(tmp_path)
    tool = load_tool("engine_time")
    argv = [str(checkout), "--spec", "short", "--rounds", "1"]
    runs = []
    for extra in ([], ["--n-clients", "1", "--rtt", "1e-4"]):
        assert tool.main(argv + extra) == 0
        runs.append([line.split(", ") for line in
                     capfd.readouterr().out.splitlines()])
    plain, one = runs
    assert [line[0].split(": ")[1].split(" s ")[1] for line in plain] == [
        "(0 walked)"] * 3
    walked = int(one[0][0].split("(")[1].split()[0])
    assert walked == int(one[0][1].split()[0]) > 0  # all of its requests
    assert [line[0].split(" s ")[1] for line in one[1:]] == [
        "(0 walked)"] * 2
    assert all(a[-1] != b[-1] for a, b in zip(plain, one))
    assert tool.main(argv + ["--against", str(checkout), "--n-clients", "1",
                             "--rtt", "1e-4"]) == 0
    lines = [line.split(", ") for line in
             capfd.readouterr().out.splitlines()]
    assert lines[0][0].endswith(f" s ({walked} walked)")
    assert lines[0][1].endswith(f" s ({walked} walked)")
    assert [line[4] for line in lines] == ["digests equal"] * 3
    for bad in (["--n-clients", "0"], ["--rtt", "-1e-4"], ["--rtt", "nan"]):
        with pytest.raises(SystemExit):
            tool.main(argv + bad)


def test_engine_time_reports_each_topology(tmp_path, capfd):
    checkout = short_checkout(tmp_path)
    tool = load_tool("engine_time")
    argv = [str(checkout), "--spec", "short", "--rounds", "1"]
    runs = []
    for _ in range(2):
        assert tool.main(argv) == 0
        runs.append([line.split(", ") for line in
                     capfd.readouterr().out.splitlines()])
    lines = runs[0]
    assert [line[0].split(":")[0] for line in lines] == [
        "ONE_ST constant_rate", "TWO_ST constant_rate", "TWO_SMT event"]
    # every topology runs the same schedules; only the event engine counts
    # events
    assert len({line[1] for line in lines}) == 1
    assert [line[3] for line in lines[:2]] == ["0 events"] * 2
    assert int(lines[2][3].split()[0]) > 0
    # the digests repeat run to run and tell the topologies apart
    digests = [[line[-1] for line in run] for run in runs]
    assert digests[0] == digests[1]
    assert len(set(digests[0])) == 3
    assert all(d.startswith("sha256 ") and len(d) == 71 for d in digests[0])
    with pytest.raises(SystemExit):
        tool.main([str(tmp_path / "nowhere"), "--spec", "short"])

    # Deterministic quarter-millisecond work (2**-12 s) on arrivals 2**-10,
    # 2**-11 and 2**-12 s apart: at the last point each completion falls
    # on the next issue, so two workers leave that point to the event
    # engine, and the path names each path's point count.
    tailsim = checkout / "src" / "tailsim"
    (tailsim / "profiles" / "ties.profile").write_text(
        "name: ties\ncpu_work: 0.000244140625\nmem_accesses: 0.0\n"
        "smt_efficiency: 0.75\n")
    (tailsim / "specs" / "ties.spec").write_text(
        "name: ties\nprofile: ties.profile\ntopology: ONE_ST\n"
        "mode: open_loop\nqps_min: 1024.0\nqps_max: 4096.0\npoints: 3\n"
        "duration: 2.0\nn_clients: 4\narrival: deterministic\nseed: 5\n"
        "rtt: 0.0\n")
    assert tool.main([str(checkout), "--spec", "ties", "--rounds", "1"]) == 0
    lines = capfd.readouterr().out.splitlines()
    assert [line.split(":")[0] for line in lines] == [
        "ONE_ST constant_rate", "TWO_ST constant_rate 2+event 1",
        "TWO_SMT event"]


def test_exit_time_against_itself(tmp_path, capsys):
    # The benchmark's workloads, each on the short spec under its spec's
    # name: one line per workload, with both sides' medians.
    checkout = short_checkout(tmp_path)
    specs = checkout / "src" / "tailsim" / "specs"
    for name in ("img-dnn", "img-dnn-partition", "shore"):
        (specs / f"{name}.spec").write_text(SHORT_SPEC)
    tool = load_tool("exit_time")
    assert tool.main([str(checkout), "--rounds", "1", "--against",
                      str(checkout)]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert [line.split(":")[0] for line in lines] == [
        "imgdnn-characterize", "imgdnn-cat-partition", "shore-characterize"]
    for line in lines:
        figures = re.fullmatch(
            r"[\w-]+: set-up parent (\S+) ms, change (\S+) ms; "
            r"teardown parent (\S+) ms, change (\S+) ms", line).groups()
        assert all(float(ms) > 0 for ms in figures)
    assert tool.main([str(checkout), "--rounds", "1"]) == 0
    for line in capsys.readouterr().out.splitlines():
        assert re.fullmatch(r"[\w-]+: set-up \S+ ms; teardown \S+ ms", line)
    # a process that fails stops the tool
    (specs / "img-dnn.spec").write_text("name: broken\n")
    assert tool.main([str(checkout), "--rounds", "1"]) == 1
    assert "error: " in capsys.readouterr().err
    with pytest.raises(SystemExit):
        tool.main([str(tmp_path / "nowhere")])


def test_code_lines_counts_code_only(tmp_path, capsys):
    tool = load_tool("code_lines")
    root = TOOLS.parent
    assert tool.main([str(root), "--against", str(root)]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[-1].startswith("total: ")
    assert all(re.fullmatch(r"\S+: lines (\d+) -> \1 \(\+0\), "
                            r"code (\d+) -> \2 \(\+0\)", line)
               for line in lines), lines

    def tree(name, text):
        package = tmp_path / name / "src" / "tailsim"
        package.mkdir(parents=True)
        (package / "m.py").write_text(text)
        return str(tmp_path / name)

    base = "def f(x):\n    return x\n"
    parent = tree("parent", base)
    documented = tree("documented", '"""A module."""\n\n\ndef f(x):\n'
                      '    """One line,\n    then two."""\n'
                      '    # a comment\n    return x  # another\n')
    grown = tree("grown", base + "\n\nY = f(1)\n")
    for change, diff in ((documented, "lines 2 -> 8 (+6), code 2 -> 2 (+0)"),
                         (grown, "lines 2 -> 5 (+3), code 2 -> 3 (+1)")):
        assert tool.main([change, "--against", parent]) == 0
        assert capsys.readouterr().out.splitlines() == [
            f"m.py: {diff}", f"total: {diff}"]
