"""Tests of the benchmark's own logic: its definition file, the span
arithmetic, the host-speed scaling and the output check. They spawn no
process.

    python3 -m pytest perfbench
"""

import json
import re
import shutil
from pathlib import Path

import pytest

import hostspeed
import outcheck
import run
import tracing

BENCH = Path(__file__).resolve().parent
NAME = re.compile(r"[A-Za-z0-9_.-]+")


@pytest.fixture(scope="module")
def definition():
    return json.loads((BENCH.parent / "BENCHMARK.json").read_text())


def test_definition_parses_and_names_are_valid(definition):
    assert set(definition) == {"command", "paths", "run_seconds",
                               "workloads", "end_to_end", "per_layer"}
    names = [w["name"] for w in definition["workloads"]]
    names += [m["name"] for m in definition["end_to_end"]]
    names += [m["name"] for m in definition["per_layer"]]
    assert len(names) == len(set(names))
    for name in names:
        assert NAME.fullmatch(name), name
    assert [w["name"] for w in definition["workloads"]] == list(run.WORKLOADS)
    e2e = {m["name"]: m for m in definition["end_to_end"]}
    assert e2e["setup_s"]["unit"] == "s"
    assert e2e["setup_s"]["better"] == "lower"
    assert all(0 < m["bound"] <= 0.25 for m in e2e.values())


def _span(i, name, parent, start, end, **attrs):
    return {"id": i, "name": name, "parent": parent, "start": start,
            "end": end, "attrs": attrs}


def test_self_times_on_hand_built_tree():
    spans = [
        _span(0, "cli.main", None, 0.0, 10.0),
        _span(1, "experiments.qps_sweep", 0, 1.0, 8.0),
        _span(2, "engine.simulate_open_loop", 1, 2.0, 5.0),
        _span(3, "experiments.run_point", 1, 5.5, 7.5),  # same layer nested
        _span(4, "metrics.summarize", 3, 6.0, 7.0),
        _span(5, "svgplot.line_plot", 0, 8.5, 9.0),
    ]
    own = tracing.self_times(spans)
    assert own == pytest.approx({0: 10.0 - 7.0 - 0.5, 1: 7.0 - 3.0 - 2.0,
                                 2: 3.0, 3: 1.0, 4: 1.0, 5: 0.5})
    layers = tracing.layer_self_times(spans)
    assert layers == pytest.approx({"cli": 2.5, "experiments": 3.0,
                                    "engine": 3.0, "metrics": 1.0,
                                    "svgplot": 0.5})
    assert sum(layers.values()) == pytest.approx(10.0)


def test_self_time_counts_overlapping_children_once():
    spans = [_span(0, "a.f", None, 0.0, 4.0),
             _span(1, "b.g", 0, 1.0, 3.0),
             _span(2, "b.h", 0, 2.0, 3.5)]
    assert tracing.self_times(spans)[0] == pytest.approx(1.5)


def test_layer_metrics_names_match_definition(definition):
    w = run.WORKLOADS["imgdnn-cat-partition"]
    engine = dict(topology="ONE_ST", requests=10, late=2, censored=1)
    spans = [
        _span(0, "cli.main", None, 0.0, 5.0),
        _span(1, "loadgen.build_schedule", 0, 0.5, 1.0, requests=10),
        _span(2, "engine.simulate_open_loop", 0, 1.0, 3.0, **engine),
        _span(3, "metrics.summarize", 0, 3.0, 3.5, requests=10),
        _span(4, "experiments.qps_sweep", 0, 3.5, 4.0),
        _span(5, "svgplot.line_plot", 0, 4.0, 4.5),
    ]
    metrics, problems = run.layer_metrics(w, spans, 10, 5.5, 0.5)
    assert problems == []
    assert list(metrics) == [m["name"] for m in definition["per_layer"]]
    assert metrics["engine.ONE_ST.req_per_s"][0] == pytest.approx(5.0)
    assert metrics["trace.outside_s"][0] == pytest.approx(0.5)


def test_layer_metrics_flag_a_missing_layer():
    w = run.WORKLOADS["imgdnn-characterize"]
    spans = [_span(0, "cli.main", None, 0.0, 1.0)]
    _, problems = run.layer_metrics(w, spans, 0, 1.0, 0.0)
    assert "layer engine: no span recorded" in problems
    assert "engine TWO_SMT: no span recorded" in problems


@pytest.fixture
def outputs(tmp_path):
    ref = BENCH / "reference" / "imgdnn-characterize"
    out = tmp_path / "out"
    shutil.copytree(ref, out)
    return ref, out


def _edit_cell(path: Path, row: int, col: int, fn) -> None:
    lines = path.read_text().splitlines()
    cells = lines[row].split(",")
    cells[col] = fn(cells[col])
    lines[row] = ",".join(cells)
    path.write_text("\n".join(lines) + "\n")


def test_reference_matches_itself(outputs):
    ref, out = outputs
    assert outcheck.compare_to_reference(ref, out) == ([], True)
    assert outcheck.check_invariants(ref, out, 12, "fast", None) == []


def test_one_cell_perturbation_is_flagged(outputs):
    ref, out = outputs
    _edit_cell(out / "sweep_two_smt.csv", 5, 2,
               lambda c: repr(float(c) * (1 + 1e-6)))
    diffs, identical = outcheck.compare_to_reference(ref, out)
    assert len(diffs) == 1 and "sweep_two_smt.csv row 5 col 2" in diffs[0]
    assert not identical


def test_reordered_sum_noise_passes_but_is_not_byte_identical(outputs):
    ref, out = outputs
    _edit_cell(out / "sweep_one_st.csv", 3, 4,
               lambda c: repr(float(c) * (1 + 1e-13)))
    assert outcheck.compare_to_reference(ref, out) == ([], False)


def test_strings_compare_exactly(outputs):
    ref, out = outputs
    summary = json.loads((out / "summary.json").read_text())
    summary["saturation"]["ONE_ST"]["binding"] = "timely"
    (out / "summary.json").write_text(json.dumps(summary))
    diffs, _ = outcheck.compare_to_reference(ref, out)
    assert diffs == ["summary.json.saturation.ONE_ST.binding: 'timely', "
                     "reference 'qos'"]


def test_invariants_flag_missing_p95_and_wrong_category(outputs):
    ref, out = outputs
    _edit_cell(out / "sweep_one_st.csv", 1, 2, lambda c: "")
    problems = outcheck.check_invariants(ref, out, 12, "high_disk", None)
    assert len(problems) == 2
    assert "unsaturated point" in problems[0]
    assert "category 'fast'" in problems[1]


def test_digests_leave_out_the_manifest(outputs):
    _, out = outputs
    (out / "manifest.json").write_text("{}")
    assert "manifest.json" not in outcheck.digests(out)


def test_host_slowness_uses_samples_inside_the_interval():
    probes = hostspeed.Probes([], BENCH)
    ref = hostspeed.REFERENCE_CHUNK_S
    probes.samples = [(float(t), ref * (2.0 if 10 <= t <= 20 else 1.0))
                      for t in range(40)]
    assert probes.factor(10.0, 20.0) == pytest.approx(2.0)
    assert probes.factor(30.0, 39.0) == pytest.approx(1.0)
    # Too few samples inside: the nearest ones around the middle decide.
    assert probes.factor(15.2, 15.4) == pytest.approx(2.0)
