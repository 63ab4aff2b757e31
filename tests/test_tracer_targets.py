"""The benchmark's traced runs wrap ksum3 functions and methods by name
(perfbench/tracer.py); a renamed or deleted one would fail only there."""

import importlib.util
import sys
from pathlib import Path
from types import SimpleNamespace

import pytest

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def load(name):
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module   # run.py's dataclasses look their module up
    spec.loader.exec_module(module)
    return module


def load_tracer():
    return load("tracer")


def test_every_traced_name_exists():
    tracer = load_tracer()
    names = {name for name, *_ in tracer._targets()}   # KeyError on a missing method
    for layer, classes in tracer.METHODS.items():
        for attrs in classes.values():
            assert {f"{layer}.{attr}" for attr in attrs} <= names
    assert tracer.PER_STEP <= names
    assert set(tracer.RESULT_TOTALS) <= names


class NameRecorder:
    """A stand-in tracer that records every function name it is asked for
    and answers each count with `value`."""

    def __init__(self, value):
        self.value, self.names, self.layers = value, [], []

    def _ask(self, *names):
        self.names.extend(names)
        return self.value

    calls = self_s = total = ok_calls = span_seconds = calls_inside = _ask

    def layer_self_s(self, layer):
        self.layers.append(layer)
        return self.value


@pytest.mark.parametrize("value", [0, 1])
def test_every_name_run_py_reads_is_traced(value):
    """perfbench/run.py's layer_metrics reads the tracer by function name,
    and a name the tracer does not wrap fails only in a traced run; with
    every count 0 and then 1, both of its `cli.main` branches run."""
    names = {name for name, *_ in load_tracer()._targets()}
    tr = NameRecorder(value)
    load("run").layer_metrics(tr, SimpleNamespace(workers=1), SimpleNamespace(q=9), 1.0, 1.0)
    assert "cli.main" in tr.names and tr.names
    assert set(tr.names) <= names
    assert all(any(n.startswith(layer + ".") for n in names) for layer in tr.layers)
