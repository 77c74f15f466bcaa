"""The maintenance scripts under tools/ import the library's API; importing
them here keeps an API removal from breaking them unnoticed."""

import importlib.util
import io
import json
import math
import shutil
from pathlib import Path

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
    write_root(b, 0.004, "qos", 2.0)  # only the manifest differs
    write_root(c, 0.005, "throughput", 1.0)
    (c / "sweep-x" / "plot_p95.svg").write_text("<svg></svg>\n")
    (c / "extra.csv").write_text("x\n1\n")

    out = io.StringIO()
    assert tool.compare(a, b, out) == 0
    assert out.getvalue() == ("3 of 3 files byte-identical (manifest.json "
                              "skipped), 0 differ\n")
    assert tool.main([str(a), str(b)]) == 0

    out = io.StringIO()
    assert tool.compare(a, c, out) == 4
    lines = out.getvalue().splitlines()
    assert lines == [
        "extra.csv: only in B",
        "sweep-x/plot_p95.svg: differs",
        "sweep-x/summary.json: .saturation.binding: 'qos' -> 'throughput'",
        "sweep-x/sweep.csv: row 2 p95: '0.004' -> '0.005' (rel 0.25)",
        "0 of 4 files byte-identical (manifest.json skipped), 4 differ",
        "largest change: sweep-x/sweep.csv p95: rel 0.25",
    ]
    assert tool.main([str(a), str(c)]) == 1


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


def test_shipped_outputs_runs_every_command(tmp_path, capsys):
    # a checkout whose only shipped spec is a short partition spec
    checkout = tmp_path / "checkout"
    shutil.copytree(TOOLS.parent / "src" / "tailsim",
                    checkout / "src" / "tailsim",
                    ignore=shutil.ignore_patterns("*.spec", "__pycache__"))
    (checkout / "src" / "tailsim" / "specs" / "short.spec").write_text(
        SHORT_SPEC)
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
    assert tool.main([str(tmp_path / "empty"), str(tmp_path / "c")]) == 2


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
