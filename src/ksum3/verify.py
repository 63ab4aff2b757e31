"""Self-verification battery behind the `verify` CLI subcommand.

Each check returns {"check": name, "ok": bool, "detail": ...}; the CLI
exits nonzero if any check fails.  A check fails by raising CheckFailed,
whose message becomes the detail; it never asserts, since python -O
strips asserts.  The battery cross-validates the fast algorithms against
the brute-force oracle and replays the worked-example golden values for
F_{3^5} with a = alpha^31.

Each check is the one implementation of its law.  Its parameters name the
fields, seeds and sample counts it runs over; their defaults are the desk
sizes `run_all` uses, and the acceptance tests call the same checks at
larger sizes.
"""

from __future__ import annotations

import random
from typing import Callable, List

from . import curve, oracle, tower, valuation
from .curve import CurveParams
from .errors import Ksum3Error, TraceNotZero
from .field import get_field


class CheckFailed(Ksum3Error):
    """A battery check found a wrong value."""


def _require(cond: bool, msg: str) -> None:
    """Fail the running check with msg unless cond holds."""
    if not cond:
        raise CheckFailed(msg)


def _check(name: str, fn: Callable[[], object]) -> dict:
    try:
        detail = fn()
        return {"check": name, "ok": True, "detail": detail}
    except CheckFailed as exc:
        return {"check": name, "ok": False, "detail": str(exc)}
    except Exception as exc:  # surfaced, not swallowed
        return {"check": name, "ok": False, "detail": f"{type(exc).__name__}: {exc}"}


def _ms(ms) -> str:
    return ", ".join(map(str, ms))


def _field_basics() -> str:
    f = get_field(5)
    al = f.alpha
    _require((al ** 5).trit_str == "t:20202", "alpha^5 reduction")
    _require(al ** 242 == f.one, "group order 242")
    _require((al ** 31).cube_root() == al ** 91, "cube root of a")
    _require((al ** 202).trace() == 1, "trace golden")
    zs = sorted(w.ninth_root().power_str for w in f.solve_artin_schreier(al ** 31))
    _require(zs == ["p:106", "p:16", "p:231"], f"z-set {zs}")
    return "all field goldens hold"


def _example31() -> str:
    f = get_field(5)
    al = f.alpha
    a = al ** 31
    params = CurveParams.make(f, a)
    _require(oracle.kloosterman_sum(f, a).value == 27, "K = 27")
    x1s = sorted(r.power_str for r in curve.solve_tripling_cubic(params, al ** 91))
    _require(x1s == ["p:105", "p:19", "p:7"], f"x1 set {x1s}")
    zx1s = sorted(valuation.x0_x1_from_z(f, w.ninth_root())[1].power_str
                  for w in f.solve_artin_schreier(a))
    _require(zx1s == x1s, f"x1 set from z {zx1s}")
    ch = sorted(r.power_str for r in curve.solve_tripling_cubic(params, al ** 7))
    _require(ch == ["p:138", "p:196", "p:237"], f"children of alpha^7 {ch}")
    _require(curve.div3_obstruction(params, al ** 138) == 1, "obstruction trit")
    r1 = valuation.kval(params, u1=al ** 159)
    _require((r1.k, r1.case, r1.r) == (3, valuation.CYCLE, 1), "walk from alpha^159")
    trail = [u.power_str for u in r1.trail]
    _require(trail == ["p:159", "p:15", "p:44", "p:162", "p:162"], f"trail {trail}")
    r2 = valuation.kval(params, u1=al ** 193)
    _require((r2.k, r2.case, r2.r) == (3, valuation.CYCLE, 2), "walk from alpha^193")
    trail = [u.power_str for u in r2.trail]
    _require(trail == ["p:193", "p:199", "p:50", "p:197", "p:223", "p:197"], f"trail {trail}")
    g = valuation.descent(params, full=True)
    _require(g.t == 3, "descent depth")
    nodes = sorted(n.power_str for lv in g.levels for n in lv)
    expected = sorted(
        f"p:{k}" for k in [91, 7, 19, 105, 138, 196, 237, 9, 100, 175, 219, 202, 76]
    )
    _require(nodes == expected, f"graph nodes {nodes}")
    return "worked example reproduced exactly"


def _group_law(seed: int, ms=(3,), curves: int = 30, triples: int = 10,
               exhaustive=(3,)) -> str:
    """Associativity, commutativity and closure on random triples, for
    `curves` seeded curves per field in ms; then, on every point of every
    curve over the fields in exhaustive, |E| P = O and, off the order-3
    points, triple_x(x(P)) = x(3P) with 3P != O."""
    rng = random.Random(seed)
    for m in ms:
        f = get_field(m)
        for _ in range(curves):
            params = CurveParams.make(f, f.el(rng.randrange(1, f.q)))
            for _ in range(triples):
                p, q, r = (curve.sample_point(params, rng) for _ in range(3))
                lhs = curve.add(params, curve.add(params, p, q), r)
                rhs = curve.add(params, p, curve.add(params, q, r))
                _require(lhs == rhs, "associativity")
                _require(curve.add(params, p, q) == curve.add(params, q, p), "commutativity")
                _require(curve.on_curve(params, lhs), "closure")
    for m in exhaustive:
        f = get_field(m)
        for a in f.nonzero_elements():
            params = CurveParams.make(f, a)
            order = oracle.curve_order(f, a)
            for p in curve.enumerate_points(params):
                _require(curve.scalar_mul(params, order, p).is_infinity,
                         f"m={m} a={a.trit_str}: |E| P != O")
                if p.is_infinity or p.x ** 3 == a:
                    continue
                p3 = curve.scalar_mul(params, 3, p)
                _require(not p3.is_infinity and curve.triple_x(params, p.x) == p3.x,
                         f"m={m} a={a.trit_str}: triple_x at x = {p.x.trit_str}")
    return f"associativity/commutativity/closure on {len(ms) * curves * triples} random triples"


def _oracle_equivalence(seeds, ms=(2, 3, 4)) -> str:
    """The walk's k against the oracle's valuation for every a, one walk
    per seed; each seed's generator runs on across the fields."""
    rngs = [random.Random(seed) for seed in seeds]
    for m in ms:
        f = get_field(m)
        K = oracle.kloosterman_sums(f)
        for a in f.nonzero_elements():
            params = CurveParams.make(f, a)
            kk = oracle.val3(K[a.code], m)
            for rng in rngs:
                k = valuation.kval(params, rng).k
                _require(k == kk, f"m={m} a={a.trit_str}: kval {k} oracle {kk}")
    return f"kval matches oracle valuation for m = {_ms(ms)}"


def _divisibility(ms=(3, 4)) -> str:
    """div9 = (9 | K) = (Tr(a) = 0), div27 = (27 | K) on trace zero and
    TraceNotZero off it, under the zero convention (K = 0 counts as 3^m)."""
    for m in ms:
        f = get_field(m)
        K = oracle.kloosterman_sums(f)
        for a in f.nonzero_elements():
            v = oracle.val3(K[a.code], m)
            tr0 = a.trace() == 0
            _require(valuation.div9(f, a) == (v >= 2), f"div9 at {a.trit_str}")
            _require((v >= 2) == tr0, f"9 | K iff Tr(a) = 0 fails at {a.trit_str}")
            if tr0:
                _require(valuation.div27(f, a) == (v >= 3), f"div27 at {a.trit_str}")
                continue
            try:
                valuation.div27(f, a)
            except TraceNotZero:
                continue
            raise CheckFailed(f"div27 at {a.trit_str}: no TraceNotZero off trace zero")
    return f"div9/div27 match the oracle for m = {_ms(ms)}"


def _order_identity(ms=(2, 3, 4)) -> str:
    for m in ms:
        f = get_field(m)
        K = oracle.kloosterman_sums(f)
        for a in f.nonzero_elements():
            order = oracle.curve_order(f, a)
            _require(order == f.q + K[a.code] and order % 3 == 0,
                     f"m={m} a={a.trit_str}: |E| = {order}, K = {K[a.code]}")
    return f"|E(a)| = 3^m + K(a) for m = {_ms(ms)}"


def _weil_and_sum(ms=(2, 3, 4)) -> str:
    for m in ms:
        f = get_field(m)
        K = oracle.kloosterman_sums(f)[1:]
        _require(all(k * k <= 4 * f.q for k in K), "Weil bound")
        _require(sum(K) == f.q, f"sum over a = {sum(K)}, want {f.q}")
    return f"Weil bound and full-field sum for m = {_ms(ms)}"


def _tower_laws(towers=((2, 2), (2, 3))) -> str:
    """H_n = H + h for every a of GF(3^m), n = 3^h s, over each (m, n)."""
    for m, n in towers:
        f = get_field(m)
        h = oracle.val3(n, n)  # v_3(n); n != 0
        for a in f.nonzero_elements():
            rep = tower.lifting_law_check(f, a, n)
            _require((rep.h, rep.s) == (h, n // 3 ** h)
                     and rep.consistent and rep.H_n == rep.H + h,
                     f"n={n} a={a.trit_str}: H_n={rep.H_n} H={rep.H} h={rep.h}")
    return "H_2 = H and H_3 = H + 1 on all of F_9*"


def _k3_adjudication(ms=(2,)) -> dict:
    for m in ms:
        adj = tower.adjudicate_k3(get_field(m))
        _require(adj["winner"] == "variant", f"K_3 = 1 - V_3 not confirmed: {adj}")
    return {"winner": adj["winner"]}


def _subfield_nonzero(towers=((2, 2), (2, 3))) -> str:
    for m, n in towers:
        v = tower.subfield_nonzero_scan(get_field(m), n)
        _require(not v, f"lifted zeros found for n={n}: {[a.trit_str for a in v]}")
    return "no lifted Kloosterman zeros over embedded F_9*"


def run_all(seed: int = 0) -> List[dict]:
    return [
        _check("field_basics", _field_basics),
        _check("example_f3_5_goldens", _example31),
        _check("group_law", lambda: _group_law(seed)),
        _check("oracle_equivalence", lambda: _oracle_equivalence((seed,))),
        _check("divisibility_9_27", _divisibility),
        _check("order_identity", _order_identity),
        _check("weil_and_sum", _weil_and_sum),
        _check("tower_laws", _tower_laws),
        _check("k3_adjudication", _k3_adjudication),
        _check("subfield_nonzero", _subfield_nonzero),
    ]
