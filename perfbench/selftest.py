#!/usr/bin/env python3
"""Self-test of the benchmark at tiny sizes, in about a minute.

    python3 perfbench/selftest.py

For each workload, shrunk to a tiny field, it checks that:
  - untraced and traced runs emit exactly the metrics BENCHMARK.json names,
    each with its unit, both in the result and as a printed line;
  - the answers pass their gates;
  - two traced runs of one seed report identical counts;
  - a deliberately wrong reference value raises error_rate above 0.
It also checks that the tracer replaces names bound by `from .x import y`
and puts them back, and that run.py exits nonzero, printing no result, in a
copy of the benchmark that has no ksum3 sources beside it.  Exits 0 when
all hold.
"""

from __future__ import annotations

import contextlib
import dataclasses
import io
import json
import re
import shutil
import subprocess
import sys

import run as bench

TINY = {"scan-m8": dict(m=3), "descent-m10": dict(m=4),
        "divtest-m40": dict(m=5, modulus=None, trace_rate=4.0)}


def with_wrong_reference(wl):
    """A copy of wl whose reference answer is off by one (or negated)."""
    base = type(wl)

    class WrongReference(base):
        def reference(self, *args):
            right = base.reference(self, *args)
            return (not right) if isinstance(right, bool) else right + 1

    return WrongReference(**dataclasses.asdict(wl))


def quiet_run(wl, trace: bool):
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        result = bench.run(wl, seed=5, seconds=1, trace=trace)
    return result, buf.getvalue()


def tracer_rebinds() -> bool:
    from ksum3 import cli, curve, oracle, valuation
    from tracer import Tracer

    copies = [(valuation, "triple_x", curve.triple_x), (cli, "kval", valuation.kval),
              (cli, "kloosterman_sum", oracle.kloosterman_sum)]
    with Tracer():
        replaced = all(getattr(mod, name) is not orig for mod, name, orig in copies)
    return replaced and all(getattr(mod, name) is orig for mod, name, orig in copies)


def bare_copy_fails() -> bool:
    bare = bench.OUT / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(bench.HERE, bare / "perfbench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(bench.ROOT / "BENCHMARK.json", bare)
    try:
        r = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "descent-m10",
                            "--seed", "1", "--seconds", "1", "--trace", "0"],
                           cwd=bare, capture_output=True, text=True, timeout=120)
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    return r.returncode != 0 and '"correct"' not in r.stdout


def main() -> int:
    bench.import_ksum3()
    from workloads import WORKLOADS

    spec = json.loads((bench.ROOT / "BENCHMARK.json").read_text())
    want = {False: {m["name"]: m["unit"] for m in spec["end_to_end"]},
            True: {m["name"]: m["unit"] for m in spec["per_layer"]}}
    problems = []
    if sorted(w["name"] for w in spec["workloads"]) != sorted(WORKLOADS):
        problems.append("BENCHMARK.json workloads differ from workloads.WORKLOADS")

    for name, wl in WORKLOADS.items():
        tiny = dataclasses.replace(wl, name=f"selftest-{name}", setup_repeats=1, **TINY[name])
        counts = []
        for trace in (False, True, True):
            result, text = quiet_run(tiny, trace)
            got = {k: v["unit"] for k, v in result["metrics"].items()}
            if got != want[trace]:
                problems.append(f"{name} trace={int(trace)}: metrics {got} != {want[trace]}")
            for metric, unit in got.items():
                if not re.search(rf"^{re.escape(metric)} = \S+ {re.escape(unit)}$", text, re.M):
                    problems.append(f"{name}: no printed line for {metric} in {unit}")
            if not re.search(r"^error_rate = \S+ ratio", text, re.M):
                problems.append(f"{name}: no printed error_rate line")
            if not result["correct"] or result["failed"]:
                problems.append(f"{name} trace={int(trace)}: {result['failed']} failed")
            if trace:
                counts.append({k: v["value"] for k, v in result["metrics"].items()
                               if v["unit"] == "count"})
        if counts[0] != counts[1]:
            problems.append(f"{name}: counts differ between two traced runs: {counts}")
        result, _ = quiet_run(with_wrong_reference(tiny), trace=False)
        if not (result["failed"] > 0 and not result["correct"]):
            problems.append(f"{name}: a wrong reference left error_rate at 0")
        print(f"{name}: checked at m={tiny.m}")

    if not tracer_rebinds():
        problems.append("tracer did not replace and restore imported names")
    if not bare_copy_fails():
        problems.append("run.py did not fail in a copy without ksum3 sources")
    for p in problems:
        print("FAIL", p)
    print("selftest:", "FAIL" if problems else "ok")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
