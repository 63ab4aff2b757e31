"""scripts/bench_pairs.py's summary, fed canned perfbench result lines."""

import importlib.util
import json
from pathlib import Path

SCRIPT = Path(__file__).resolve().parents[1] / "scripts" / "bench_pairs.py"

END_TO_END = [
    {"name": "throughput_per_s", "unit": "1/s", "better": "higher", "bound": 0.25},
    {"name": "latency_p50_ms", "unit": "ms", "better": "lower", "bound": 0.25},
]


def load():
    spec = importlib.util.spec_from_file_location("bench_pairs", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def result(throughput, p50, failed=0, attempted=100):
    """A result line as perfbench/run.py prints it last."""
    metrics = {"throughput_per_s": {"value": throughput, "unit": "1/s"},
               "latency_p50_ms": {"value": p50, "unit": "ms"}}
    return json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                       "metrics": metrics})


def test_summary_counts_wins_by_direction_and_ties_for_neither():
    pairs = [  # (parent, change)
        (result(100, 2.0), result(120, 1.5)),     # change wins both
        (result(110, 2.0), result(110, 2.5)),     # a tie, and a loss
        (result(90, 1.0), result(130, 1.0, failed=3, attempted=200)),   # a win, a tie
        (result(120, 3.0), result(100, 2.0)),     # a loss, a win
    ]
    lines = load().summarize(pairs, END_TO_END)
    assert lines == [
        "throughput_per_s (1/s, higher is better): parent median 105 [97.5, 112.5]  "
        "change median 115 [107.5, 122.5]  change wins 2 of 4",
        "latency_p50_ms (ms, lower is better): parent median 2 [1.75, 2.25]  "
        "change median 1.75 [1.375, 2.125]  change wins 2 of 4",
        "failed share: parent 0 (0 of 400)  change 0.006 (3 of 500)",
    ]


def test_one_pair_and_one_run_line():
    bench = load()
    pair = (result(100, 2.0), result(100, 2.0))
    assert bench.summarize([pair], END_TO_END[:1]) == [
        "throughput_per_s (1/s, higher is better): parent median 100 [100, 100]  "
        "change median 100 [100, 100]  change wins 0 of 1",
        "failed share: parent 0 (0 of 100)  change 0 (0 of 100)",
    ]
    assert bench.run_line(3, 503, "change", result(26322, 0.0173, 1, 4700)) == (
        "pair 3 seed 503 change throughput_per_s=26322 latency_p50_ms=0.0173 failed=1/4700")
