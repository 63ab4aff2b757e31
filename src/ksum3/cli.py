"""Command-line frontend.

Global flags pick the field, element and run configuration; a subcommand
picks the computation.  `--output` is `json` (the default: json-lines,
one record per line) or `table` (aligned columns); `descent` ignores it
and always emits DOT.  Exit codes: 0 success, 1 verification failure,
2 usage error.

Examples:
    ksum3 --m 5 --a p:31 ksum
    ksum3 --m 5 --a p:31 --seed 7 kval
    ksum3 --m 4 scan
    ksum3 --m 5 --a p:31 descent --full
    ksum3 --m 2 tower --n 3 --all
    ksum3 --m 5 verify
"""

from __future__ import annotations

import argparse
import hashlib
import json
import random
import sys
from typing import List, Optional

from . import verify as verify_mod
from .curve import CurveParams
from .errors import Ksum3Error
from .field import TABLE_CAP, Fe, Field, get_field
from .oracle import kloosterman_sum, val3
from .tower import lifting_law_check
from .valuation import descent, kval


def _task_seed(seed: int, index: int) -> int:
    """Per-element seed, a function of the global seed and the index only."""
    h = hashlib.blake2b(f"{seed}:{index}".encode(), digest_size=8)
    return int.from_bytes(h.digest(), "big")


def _emit(records: List[dict], output: str, out) -> None:
    if output == "table":
        if not records:
            return
        keys = list(records[0].keys())
        rows = [[json.dumps(r.get(k)) if not isinstance(r.get(k), str) else str(r.get(k))
                 for k in keys] for r in records]
        widths = [max(len(k), *(len(row[i]) for row in rows)) for i, k in enumerate(keys)]
        print("  ".join(k.ljust(w) for k, w in zip(keys, widths)), file=out)
        for row in rows:
            print("  ".join(c.ljust(w) for c, w in zip(row, widths)), file=out)
    else:
        for r in records:
            print(json.dumps(r), file=out)


def _element_fields(a: Fe) -> dict:
    return {"a": a.trit_str, "a_pow": a.power_str}


def _require_a(args, field: Field) -> Fe:
    if args.a is None:
        raise Ksum3Error("this subcommand needs --a")
    return field.parse(args.a)


def _ksum_record(field: Field, a: Fe) -> dict:
    kv = kloosterman_sum(field, a)
    return {
        **_element_fields(a),
        "K": kv.value,
        "counts": list(kv.counts),
        "val3": val3(kv.value, field.m),
    }


def _kval_record(field: Field, a: Fe, seed: int) -> dict:
    rep = kval(CurveParams.make(field, a), random.Random(seed))
    return {
        **_element_fields(a),
        "k": rep.k,
        "case": rep.case,
        "r": rep.r,
        "u1": rep.u1.trit_str,
        "trail": [u.trit_str for u in rep.trail],
        "seed": seed,
        "kloosterman_zero": rep.kloosterman_is_zero,
    }


def cmd_ksum(args, field: Field, out) -> int:
    _emit([_ksum_record(field, _require_a(args, field))], args.output, out)
    return 0


def cmd_kval(args, field: Field, out) -> int:
    _emit([_kval_record(field, _require_a(args, field), args.seed)], args.output, out)
    return 0


def cmd_scan(args, field: Field, out) -> int:
    with_oracle = field.q <= args.oracle_cap and field.exp is not None
    records = []
    for code in range(1, field.q):
        a = field.el(code)
        rep = kval(CurveParams.make(field, a), random.Random(_task_seed(args.seed, code)))
        rec = {
            "index": code,
            **_element_fields(a),
            "k": rep.k,
            "case": rep.case,
            "r": rep.r,
        }
        if with_oracle:
            K = kloosterman_sum(field, a).value
            rec["K"] = K
            rec["agree"] = rep.k == val3(K, field.m)
        records.append(rec)
    hist: dict = {}
    zeros = []
    for r in records:
        hist[r["k"]] = hist.get(r["k"], 0) + 1
        if r["case"] == "hit_order_three" and r["k"] == field.m:
            zeros.append(r["a"])
    summary = {
        "summary": {
            "m": field.m,
            "histogram": {str(k): hist[k] for k in sorted(hist)},
            "zeros": zeros,
        }
    }
    _emit(records + [summary] if args.output == "json" else records, args.output, out)
    if args.output == "table":
        print(json.dumps(summary), file=out)
    return 0


def cmd_descent(args, field: Field, out) -> int:
    a = _require_a(args, field)
    graph = descent(CurveParams.make(field, a), full=args.full)
    print(graph.to_dot(), file=out)
    return 0


def cmd_tower(args, field: Field, out) -> int:
    if args.n is None:
        raise Ksum3Error("tower needs --n")

    def record(a: Fe) -> dict:
        rep = lifting_law_check(field, a, args.n, oracle_cap=args.oracle_cap)
        return {
            **_element_fields(a),
            "m": rep.m,
            "n": rep.n,
            "h": rep.h,
            "s": rep.s,
            "H": rep.H,
            "H_n": rep.H_n,
            "consistent": rep.consistent,
        }

    if args.all:
        records = [record(a) for a in field.nonzero_elements()]
    else:
        records = [record(_require_a(args, field))]
    _emit(records, args.output, out)
    return 0 if all(r["consistent"] for r in records) else 1


def cmd_verify(args, field: Field, out) -> int:
    results = verify_mod.run_all(args.seed)
    _emit(results, args.output, out)
    failures = [r["check"] for r in results if not r["ok"]]
    if failures:
        print(json.dumps({"failures": failures}), file=out)
        return 1
    return 0


COMMANDS = {
    "ksum": cmd_ksum,
    "kval": cmd_kval,
    "scan": cmd_scan,
    "descent": cmd_descent,
    "tower": cmd_tower,
    "verify": cmd_verify,
}


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(prog="ksum3", description=__doc__,
                                formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("--m", type=int, required=True, help="extension degree of GF(3^m)")
    p.add_argument("--modulus", default="builtin",
                   help="trit string of length m+1, or 'builtin'")
    p.add_argument("--a", help="element, 't:<trits>' or 'p:<k>'")
    p.add_argument("--seed", type=int, default=0, help="global RNG seed")
    p.add_argument("--workers", type=int, default=1,
                   help="accepted for compatibility; scan runs in one thread, "
                        "and the value changes neither output nor speed")
    p.add_argument("--output", choices=["json", "table"], default="json")
    p.add_argument("--oracle-cap", type=int, default=TABLE_CAP,
                   help="largest field size the brute-force oracle may walk")
    sub = p.add_subparsers(dest="command", required=True)
    sub.add_parser("ksum", help="brute-force Kloosterman sum K(a)")
    sub.add_parser("kval", help="3-adic valuation of K(a) via the tripling walk")
    sub.add_parser("scan", help="kval for every a in F*, with summary")
    d = sub.add_parser("descent", help="descent graph as DOT")
    d.add_argument("--full", action="store_true", help="expand every node per level")
    t = sub.add_parser("tower", help="extension-field lifting law check")
    t.add_argument("--n", type=int, help="extension degree over the base field")
    t.add_argument("--all", action="store_true", help="check every a in F*")
    sub.add_parser("verify", help="run the self-verification battery")
    return p


def main(argv: Optional[List[str]] = None, out=None) -> int:
    out = out or sys.stdout
    args = build_parser().parse_args(argv)
    try:
        field = get_field(args.m, args.modulus)
        return COMMANDS[args.command](args, field, out)
    except Ksum3Error as exc:
        print(json.dumps({"error": type(exc).__name__, "message": str(exc)}),
              file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
