#!/usr/bin/env python3
"""Benchmark of ksum3 on three workloads (see workloads.py).

Run from the repository root:

    python3 perfbench/run.py --workload descent-m10 --seed 1 --seconds 30 --trace 0

`--trace 0` measures the end-to-end metrics with nothing traced.
`--trace 1` runs a fixed number of items, each once untraced and once
under `Tracer`, and reports the per-layer metrics, the tracing overhead
(traced minus untraced wall time) and field micro-timings; it writes the
spans to perfbench/out/.  Either way the program's answers are checked,
one line per metric goes to stdout as `name = value unit`, then one line
of run facts, and last one JSON object with the keys `correct`,
`attempted`, `failed` and `metrics`.  The exit code is 0 when the run
completed, whatever `correct` says.

End-to-end metrics (wall clock):
  setup_s           median of three fresh interpreters timing `import ksum3`
                    plus the build of the workload's field
  throughput_per_s  elements of GF(3^m)* finished per second of timed work
  latency_p50_ms    median time per item, and latency_tail_ms the highest
                    percentile with at least ten items beyond it (the
                    maximum when there are ten or fewer); an item is one
                    element, except on scan-m8, where it is one whole-field
                    scan, so a run there has a single latency sample
  peak_rss_mb       peak resident memory of this process
error_rate (failed / attempted) is printed but is not a metric of the
JSON result: it is 0 whenever the program is right.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field as dc_field
from itertools import islice
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

E2E = [  # name, unit
    ("setup_s", "s"),
    ("throughput_per_s", "1/s"),
    ("latency_p50_ms", "ms"),
    ("latency_tail_ms", "ms"),
    ("peak_rss_mb", "MB"),
]

PER_LAYER = [  # name, unit
    ("field.code_add.calls", "count"),
    ("field.code_neg.calls", "count"),
    ("field.code_mul.calls", "count"),
    ("field.code_inv.calls", "count"),
    ("field.code_pow.calls", "count"),
    ("field.self_s", "s"),
    ("field.vector.calls", "count"),
    ("field.vector.self_s", "s"),
    ("field.build_s", "s"),
    ("field.mul_us", "us"),
    ("field.inv_us", "us"),
    ("field.cube_root_us", "us"),
    ("field.sqrt_us", "us"),
    ("field.solve_artin_schreier_us", "us"),
    ("curve.triple_x.calls", "count"),
    ("curve.triple_x.self_s", "s"),
    ("curve.solve_tripling_cubic.calls", "count"),
    ("curve.solve_tripling_cubic.self_s", "s"),
    ("curve.sample_generator_candidate.attempts", "count"),
    ("curve.sample_generator_candidate.accept_ratio", "ratio"),
    ("curve.sample_generator_candidate.self_s", "s"),
    ("valuation.kval.calls", "count"),
    ("valuation.kval.steps", "count"),
    ("valuation.kval.self_s", "s"),
    ("valuation.descent.levels", "count"),
    ("valuation.descent.self_s", "s"),
    ("valuation.div27.self_s", "s"),
    ("valuation.div27.walk_fallbacks", "count"),
    ("oracle.kloosterman_sum.calls", "count"),
    ("oracle.kloosterman_sum.self_s", "s"),
    ("oracle.points_walked", "count"),
    ("cli.overhead_s", "s"),
    ("cli.cpu_util", "ratio"),
    ("trace.overhead_s", "s"),
    ("trace.overhead_share", "ratio"),
]

# A fresh interpreter times `import ksum3` plus the field build.
SETUP_SCRIPT = """\
import sys, time
t = time.perf_counter()
sys.path.insert(0, sys.argv[1])
import ksum3
ksum3.get_field(int(sys.argv[2]), None if sys.argv[3] == "builtin" else sys.argv[3])
print(time.perf_counter() - t)
"""


def import_ksum3():
    """Put this checkout's src/ first on the path, or exit nonzero."""
    init = SRC / "ksum3" / "__init__.py"
    if not init.is_file():
        sys.exit(f"perfbench: no ksum3 sources at {init}")
    sys.path[:0] = [str(SRC), str(HERE)]
    import ksum3
    if Path(ksum3.__file__).resolve() != init.resolve():
        sys.exit(f"perfbench: imported ksum3 from {ksum3.__file__}, not {init}")


@dataclass
class Pass:
    """Items run one after another, each timed alone (seconds)."""

    latencies: list = dc_field(default_factory=list)
    answers: list = dc_field(default_factory=list)
    attempted: int = 0
    failed: int = 0
    finished: int = 0
    cpu_s: float = 0.0

    @property
    def timed_s(self) -> float:
        return sum(self.latencies)

    def run(self, wl, fld, item, gate: bool = True) -> None:
        """Time one item; with `gate`, check its answer afterwards."""
        from ksum3.errors import Ksum3Error

        units = wl.units(fld, item)
        cpu = time.process_time()
        t = time.perf_counter()
        try:
            ans = wl.run(fld, item)
        except Ksum3Error:
            ans = None
        self.latencies.append(time.perf_counter() - t)
        self.cpu_s += time.process_time() - cpu
        self.answers.append(ans)
        self.attempted += units
        if ans is None:
            self.failed += units
            return
        self.finished += units
        if gate:
            try:
                self.failed += wl.check(fld, item, ans)
            except Ksum3Error:
                self.failed += units


def run_loop(wl, fld, items, seconds: float) -> Pass:
    """Closed loop over items; stop before the next item would take the
    loop, checks included, past `seconds`.  At least one item runs."""
    p = Pass()
    start = time.perf_counter()
    for item in items:
        n = len(p.latencies)
        if n and (time.perf_counter() - start) * (n + 1) / n > seconds:
            break
        p.run(wl, fld, item)
    return p


def tail(latencies: list) -> tuple:
    """(value, percentile): the highest percentile with at least ten
    samples beyond it, or the maximum when there are ten or fewer."""
    s = sorted(latencies)
    i = len(s) - 11 if len(s) > 10 else len(s) - 1
    return s[i], 100.0 * (i + 1) / len(s)


def setup_seconds(wl) -> list:
    """Fresh-process set-up times, one per repeat."""
    times = []
    for _ in range(wl.setup_repeats):
        r = subprocess.run(
            [sys.executable, "-c", SETUP_SCRIPT, str(SRC), str(wl.m), wl.modulus or "builtin"],
            cwd=ROOT, capture_output=True, text=True, timeout=150, check=True)
        times.append(float(r.stdout.split()[-1]))
    return times


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def untraced(wl, fld, seed: int, seconds: float):
    setups = setup_seconds(wl)
    p = run_loop(wl, fld, wl.inputs(fld, seed), seconds)
    tail_s, tail_pct = tail(p.latencies)
    metrics = {
        "setup_s": statistics.median(setups),
        "throughput_per_s": p.finished / p.timed_s,
        "latency_p50_ms": statistics.median(p.latencies) * 1e3,
        "latency_tail_ms": tail_s * 1e3,
        "peak_rss_mb": peak_rss_mb(),
    }
    facts = {
        "samples": {"setup_s": len(setups), "throughput_per_s": p.finished,
                    "latency_p50_ms": len(p.latencies),
                    "latency_tail_ms": len(p.latencies)},
        "latency_tail_percentile": tail_pct,
        "timed_s": p.timed_s,
        "error_rate": p.failed / p.attempted,
    }
    return p, metrics, facts


def op_us(fn, args_list, budget_s: float = 0.1, repeats: int = 5) -> float:
    """Per-call time of fn in µs: the median over `repeats` batches, each
    sized to take about `budget_s`."""
    t = time.perf_counter()
    fn(*args_list[0])
    one = time.perf_counter() - t
    n = max(1, min(len(args_list), int(budget_s / max(one, 1e-9))))
    per_call = []
    for r in range(repeats):
        batch = args_list[r % len(args_list):] + args_list[:r % len(args_list)]
        t = time.perf_counter()
        for args in batch[:n]:
            fn(*args)
        per_call.append((time.perf_counter() - t) / n)
    return statistics.median(per_call) * 1e6


def field_micro(fld, seed: int) -> dict:
    """Field operation times on the workload's own field."""
    import random
    from ksum3.field import Field

    rng = random.Random(seed)
    xs = [fld.el(rng.randrange(1, fld.q)) for _ in range(64)]
    ys = [fld.el(rng.randrange(1, fld.q)) for _ in range(64)]
    builds = []
    for _ in range(3):
        t = time.perf_counter()
        Field(fld.m, fld.modulus)
        builds.append(time.perf_counter() - t)
    return {
        "field.build_s": statistics.median(builds),
        "field.mul_us": op_us(lambda x, y: x * y, list(zip(xs, ys))),
        "field.inv_us": op_us(lambda x: x.inv(), [(x,) for x in xs]),
        "field.cube_root_us": op_us(lambda x: x.cube_root(), [(x,) for x in xs]),
        "field.sqrt_us": op_us(lambda x: x.sqrt(), [(x * x,) for x in xs[:8]]),
        "field.solve_artin_schreier_us": op_us(
            fld.solve_artin_schreier, [(x ** 3 - x,) for x in xs[:8]]),
    }


def layer_metrics(tr, wl, fld, wall_s: float, cpu_s: float) -> dict:
    calls, self_s = tr.calls, tr.self_s
    m = {f"field.{op}.calls": calls(f"field.{op}")
         for op in ("code_add", "code_neg", "code_mul", "code_inv", "code_pow")}
    m["field.self_s"] = tr.layer_self_s("field")
    vector = ("field.add_codes", "field.mul_codes", "field.pow_codes")
    m["field.vector.calls"] = sum(calls(n) for n in vector)
    m["field.vector.self_s"] = sum(self_s(n) for n in vector)
    for n in ("curve.triple_x", "curve.solve_tripling_cubic", "valuation.kval",
              "oracle.kloosterman_sum"):
        m[f"{n}.calls"] = calls(n)
        m[f"{n}.self_s"] = self_s(n)
    sgc = "curve.sample_generator_candidate"
    draws = tr.calls_inside("field.random_element", sgc)
    m[f"{sgc}.attempts"] = draws
    m[f"{sgc}.accept_ratio"] = tr.ok_calls(sgc) / draws if draws else 0.0
    m[f"{sgc}.self_s"] = self_s(sgc)
    m["valuation.kval.steps"] = tr.total("valuation.kval")
    m["valuation.descent.levels"] = tr.total("valuation.descent")
    m["valuation.descent.self_s"] = self_s("valuation.descent")
    m["valuation.div27.self_s"] = self_s("valuation.div27")
    m["valuation.div27.walk_fallbacks"] = tr.calls_inside("valuation.kval", "valuation.div27")
    m["oracle.points_walked"] = calls("oracle.kloosterman_sum") * fld.q
    if calls("cli.main"):
        inside = tr.span_seconds("valuation.kval") + tr.span_seconds("oracle.kloosterman_sum")
        m["cli.overhead_s"] = wall_s - inside / wl.workers
        m["cli.cpu_util"] = cpu_s / (wall_s * wl.workers)
    else:
        m["cli.overhead_s"] = 0.0
        m["cli.cpu_util"] = 0.0
    return m


def traced(wl, fld, seed: int, seconds: float):
    """Each item runs untraced, then again traced; alternating the two
    keeps drift in machine speed out of the overhead."""
    from tracer import Tracer

    items = list(islice(wl.inputs(fld, seed), wl.trace_items(seconds)))
    base, again, tr = Pass(), Pass(), Tracer()
    for item in items:
        base.run(wl, fld, item)
        with tr:
            again.run(wl, fld, item, gate=False)
    changed = sum(wl.units(fld, item) for item, a, b in zip(items, base.answers, again.answers)
                  if (a is None) != (b is None) or (a is not None and wl.key(a) != wl.key(b)))
    base.failed = min(base.attempted, base.failed + changed)

    metrics = layer_metrics(tr, wl, fld, again.timed_s, again.cpu_s)
    metrics["trace.overhead_s"] = again.timed_s - base.timed_s
    metrics["trace.overhead_share"] = metrics["trace.overhead_s"] / base.timed_s
    metrics.update(field_micro(fld, seed))
    OUT.mkdir(exist_ok=True)
    spans_path = OUT / f"{wl.name}-seed{seed}.spans.npz"
    facts = {
        "samples": {"per_layer": len(items), "field.build_s": 3, "field.*_us": 5},
        "untraced_s": base.timed_s,
        "traced_s": again.timed_s,
        "spans": tr.write_spans(spans_path),
        "spans_file": str(spans_path.relative_to(ROOT)),
        "error_rate": base.failed / base.attempted,
    }
    return base, metrics, facts


def environment(wl, fld, seed: int) -> dict:
    import numpy
    import sympy

    cpu = ""
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), "")
    except OSError:
        pass
    return {
        "workload": wl.name, "seed": seed, "m": fld.m,
        "modulus": fld.modulus_string(),
        "python": platform.python_version(), "numpy": numpy.__version__,
        "sympy": sympy.__version__, "nproc": os.cpu_count(),
        "cpu": cpu or platform.processor(),
    }


def run(wl, seed: int, seconds: float, trace: bool) -> dict:
    """Run one workload; print the metric lines and run facts; return the
    result object."""
    fld = wl.build_field()
    p, metrics, facts = (traced if trace else untraced)(wl, fld, seed, seconds)
    units = dict(PER_LAYER if trace else E2E)
    for name, value in metrics.items():
        print(f"{name} = {value:.6g} {units[name]}")
    print(f"error_rate = {facts['error_rate']:.6g} ratio  ({p.failed} of {p.attempted})")
    print(json.dumps({"run": {**environment(wl, fld, seed), **facts}}))
    return {
        "correct": p.failed == 0,
        "attempted": p.attempted,
        "failed": p.failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = ap.parse_args(argv)
    import_ksum3()
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        ap.error(f"unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}")
    result = run(WORKLOADS[args.workload], args.seed, args.seconds, bool(args.trace))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
