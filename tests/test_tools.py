"""The maintenance scripts under tools/ import the library's API; importing
them here keeps an API removal from breaking them unnoticed."""

import importlib.util
import io
import json
import math
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
