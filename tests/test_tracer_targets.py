"""The benchmark's traced runs wrap ksum3 functions and methods by name
(perfbench/tracer.py); a renamed or deleted one would fail only there."""

import importlib.util
from pathlib import Path

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    return tracer


def test_every_traced_name_exists():
    tracer = load_tracer()
    names = {name for name, *_ in tracer._targets()}   # KeyError on a missing method
    for layer, classes in tracer.METHODS.items():
        for attrs in classes.values():
            assert {f"{layer}.{attr}" for attr in attrs} <= names
    assert tracer.PER_STEP <= names
    assert set(tracer.RESULT_TOTALS) <= names
