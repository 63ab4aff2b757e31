#!/usr/bin/env python3
"""Paired benchmark runs of two checkouts of this repository.

    python3 scripts/bench_pairs.py PARENT_DIR CHANGE_DIR --workload descent-m10 \\
        --pairs 10 --seed 500

Pair i = 1..N runs each tree's own `perfbench/run.py --trace 0` at seed
S + i, the parent first in odd pairs and the change first in even ones, so
that drift in machine speed falls on both sides alike.  Every run lasts
the `run_seconds` of CHANGE_DIR's BENCHMARK.json and prints one line.
Then, for each end-to-end metric of that file, the summary gives each
side's median and quartiles and the change's wins over the parent run of
its pair (ties count for neither), and last each side's failed share.  The script only reads perfbench's output: the last line a
run prints, its JSON result.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

SIDES = ("parent", "change")


def run_once(tree: Path, workload: str, seed: int, seconds: int) -> str:
    """One untraced run of the tree's own harness; its JSON result line."""
    r = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", "0"],
        cwd=tree, capture_output=True, text=True, check=True)
    return r.stdout.strip().splitlines()[-1]


def run_line(pair: int, seed: int, side: str, line: str) -> str:
    result = json.loads(line)
    values = " ".join(f"{k}={v['value']:.6g}" for k, v in result["metrics"].items())
    return f"pair {pair} seed {seed} {side:6} {values} failed={result['failed']}/{result['attempted']}"


def quartiles(values: list) -> tuple:
    """(first quartile, median, third quartile), inclusive method."""
    if len(values) == 1:
        return values[0], values[0], values[0]
    return tuple(statistics.quantiles(values, n=4, method="inclusive"))


def summarize(pairs: list, end_to_end: list) -> list:
    """Summary lines for pairs of (parent, change) JSON result lines.
    end_to_end is BENCHMARK.json's list of {name, unit, better}."""
    results = [tuple(json.loads(line) for line in pair) for pair in pairs]
    out = []
    for spec in end_to_end:
        name, sign = spec["name"], 1 if spec["better"] == "higher" else -1
        values = [[r[k]["metrics"][name]["value"] for r in results] for k in range(2)]
        wins = sum(1 for p, c in zip(*values) if sign * (c - p) > 0)
        sides = "  ".join("{} median {:.6g} [{:.6g}, {:.6g}]".format(side, q[1], q[0], q[2])
                          for side, q in zip(SIDES, map(quartiles, values)))
        out.append(f"{name} ({spec['unit']}, {spec['better']} is better): {sides}  "
                   f"change wins {wins} of {len(results)}")
    shares = []
    for k, side in enumerate(SIDES):
        failed = sum(r[k]["failed"] for r in results)
        attempted = sum(r[k]["attempted"] for r in results)
        shares.append(f"{side} {failed / attempted if attempted else 0:.6g} "
                      f"({failed} of {attempted})")
    out.append("failed share: " + "  ".join(shares))
    return out


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("parent", type=Path)
    ap.add_argument("change", type=Path)
    ap.add_argument("--workload", required=True)
    ap.add_argument("--pairs", type=int, required=True)
    ap.add_argument("--seed", type=int, required=True)
    args = ap.parse_args(argv)
    bench = json.loads((args.change / "BENCHMARK.json").read_text())
    end_to_end, seconds = bench["end_to_end"], bench["run_seconds"]
    trees = dict(zip(SIDES, (args.parent, args.change)))
    pairs = []
    for i in range(1, args.pairs + 1):
        seed, lines = args.seed + i, {}
        for side in SIDES if i % 2 else SIDES[::-1]:
            lines[side] = run_once(trees[side], args.workload, seed, seconds)
            print(run_line(i, seed, side, lines[side]), flush=True)
        pairs.append((lines["parent"], lines["change"]))
    print("\n".join(summarize(pairs, end_to_end)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
