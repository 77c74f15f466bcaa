"""The maintenance scripts under tools/ import the library's API; importing
them here keeps an API removal from breaking them unnoticed."""

import importlib.util
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
