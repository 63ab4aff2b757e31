"""Self-verification battery behind the `verify` CLI subcommand.

Each check returns {"check": name, "ok": bool, "detail": ...}; the CLI
exits nonzero if any check fails.  The battery cross-validates the fast
algorithms against the brute-force oracle at desk scale and replays the
worked-example golden values for F_{3^5} with a = alpha^31.
"""

from __future__ import annotations

import random
from typing import Callable, List

from . import curve, oracle, tower, valuation
from .curve import CurveParams
from .field import Field, get_field


def _check(name: str, fn: Callable[[], object]) -> dict:
    try:
        detail = fn()
        return {"check": name, "ok": True, "detail": detail}
    except AssertionError as exc:
        return {"check": name, "ok": False, "detail": str(exc)}
    except Exception as exc:  # surfaced, not swallowed
        return {"check": name, "ok": False, "detail": f"{type(exc).__name__}: {exc}"}


def _field_basics() -> str:
    f = get_field(5)
    al = f.alpha
    assert (al ** 5).trit_str == "t:20202", "alpha^5 reduction"
    assert f.zero.safe_inv() == f.zero, "safe_inv(0) = 0"
    assert al ** 242 == f.one, "group order 242"
    assert (al ** 31).cube_root() == al ** 91, "cube root of a"
    assert (al ** 202).trace() == 1, "trace golden"
    zs = sorted(w.ninth_root().power_str for w in f.solve_artin_schreier(al ** 31))
    assert zs == ["p:106", "p:16", "p:231"], f"z-set {zs}"
    return "all field goldens hold"


def _example31() -> str:
    f = get_field(5)
    al = f.alpha
    a = al ** 31
    params = CurveParams.make(f, a)
    assert oracle.kloosterman_sum(f, a).value == 27, "K = 27"
    x1s = sorted(r.power_str for r in curve.solve_tripling_cubic(params, al ** 91))
    assert x1s == ["p:105", "p:19", "p:7"], f"x1 set {x1s}"
    ch = sorted(r.power_str for r in curve.solve_tripling_cubic(params, al ** 7))
    assert ch == ["p:138", "p:196", "p:237"], f"children of alpha^7 {ch}"
    assert curve.div3_obstruction(params, al ** 138) == 1, "obstruction trit"
    r1 = valuation.kval(params, u1=al ** 159)
    assert (r1.k, r1.case, r1.r) == (3, valuation.CYCLE, 1), "walk from alpha^159"
    assert [u.power_str for u in r1.trail] == ["p:159", "p:15", "p:44", "p:162", "p:162"]
    r2 = valuation.kval(params, u1=al ** 193)
    assert (r2.k, r2.case, r2.r) == (3, valuation.CYCLE, 2), "walk from alpha^193"
    g = valuation.descent(params, full=True)
    assert g.t == 3, "descent depth"
    nodes = sorted(n.power_str for lv in g.levels for n in lv)
    expected = sorted(
        f"p:{k}" for k in [91, 7, 19, 105, 138, 196, 237, 9, 100, 175, 219, 202, 76]
    )
    assert nodes == expected, f"graph nodes {nodes}"
    return "worked example reproduced exactly"


def _group_law(seed: int) -> str:
    rng = random.Random(seed)
    f = get_field(3)
    for _ in range(30):
        a = f.el(rng.randrange(1, f.q))
        params = CurveParams.make(f, a)
        for _ in range(10):
            p = curve.sample_point(params, rng)
            q = curve.sample_point(params, rng)
            r = curve.sample_point(params, rng)
            lhs = curve.add(params, curve.add(params, p, q), r)
            rhs = curve.add(params, p, curve.add(params, q, r))
            assert lhs == rhs, "associativity"
            assert curve.add(params, p, q) == curve.add(params, q, p), "commutativity"
            assert curve.on_curve(params, lhs), "closure"
    return "associativity/commutativity/closure on 300 random triples"


def _oracle_equivalence(seed: int) -> str:
    rng = random.Random(seed)
    for m in (2, 3, 4):
        f = get_field(m)
        for a in f.nonzero_elements():
            k = valuation.kval(CurveParams.make(f, a), rng).k
            kk = oracle.val3(oracle.kloosterman_sum(f, a).value, m)
            assert k == kk, f"m={m} a={a.trit_str}: kval {k} oracle {kk}"
    return "kval matches oracle valuation for m = 2, 3, 4"

def _divisibility() -> str:
    for m in (3, 4):
        f = get_field(m)
        for a in f.nonzero_elements():
            K = oracle.kloosterman_sum(f, a).value
            assert valuation.div9(f, a) == (K % 9 == 0), f"div9 at {a.trit_str}"
            if a.trace() == 0:
                assert valuation.div27(f, a) == (K % 27 == 0), f"div27 at {a.trit_str}"
    return "div9/div27 match the oracle for m = 3, 4"


def _order_identity() -> str:
    for m in (2, 3, 4):
        f = get_field(m)
        for a in f.nonzero_elements():
            assert oracle.curve_order(f, a) == f.q + oracle.kloosterman_sum(f, a).value
    return "|E(a)| = 3^m + K(a) for m = 2, 3, 4"


def _weil_and_sum() -> str:
    for m in (2, 3, 4):
        f = get_field(m)
        total = 0
        for a in f.nonzero_elements():
            K = oracle.kloosterman_sum(f, a).value
            assert K * K <= 4 * f.q, "Weil bound"
            total += K
        assert total == f.q, f"sum over a = {total}, want {f.q}"
    return "Weil bound and full-field sum for m = 2, 3, 4"


def _tower_laws() -> str:
    f = get_field(2)
    for n in (2, 3):
        for a in f.nonzero_elements():
            rep = tower.lifting_law_check(f, a, n)
            assert rep.consistent, f"n={n} a={a.trit_str}: H_n={rep.H_n} H={rep.H} h={rep.h}"
    return "H_2 = H and H_3 = H + 1 on all of F_9*"


def _k3_adjudication() -> dict:
    adj = tower.adjudicate_k3(get_field(2))
    assert adj["winner"] in ("printed", "variant"), f"split adjudication: {adj}"
    return {"winner": adj["winner"]}


def _subfield_nonzero() -> str:
    f = get_field(2)
    for n in (2, 3):
        v = tower.subfield_nonzero_scan(f, n)
        assert not v, f"lifted zeros found for n={n}: {[a.trit_str for a in v]}"
    return "no lifted Kloosterman zeros over embedded F_9*"


def run_all(seed: int = 0) -> List[dict]:
    return [
        _check("field_basics", _field_basics),
        _check("example_f3_5_goldens", _example31),
        _check("group_law", lambda: _group_law(seed)),
        _check("oracle_equivalence", lambda: _oracle_equivalence(seed)),
        _check("divisibility_9_27", _divisibility),
        _check("order_identity", _order_identity),
        _check("weil_and_sum", _weil_and_sum),
        _check("tower_laws", _tower_laws),
        _check("k3_adjudication", _k3_adjudication),
        _check("subfield_nonzero", _subfield_nonzero),
    ]
