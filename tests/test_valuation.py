import hashlib
import random

import pytest

from ksum3 import curve, errors, field, oracle, valuation, verify
from ksum3.curve import CurveParams
from ksum3.field import Fe, Field, get_field
from ksum3.valuation import CYCLE, HIT_ORDER_THREE
from linear_referee import cubic_roots
from test_packed import NON_PRIMITIVE_FIELDS


def check_report_invariants(params, rep):
    x0 = params.a_cuberoot
    assert rep.k <= params.field.m
    assert rep.trail[0] == rep.u1
    if rep.case == HIT_ORDER_THREE:
        assert rep.trail[-1] == x0
        assert all(u != x0 for u in rep.trail[:-1])
        assert rep.k == len(rep.trail)
        assert rep.r is None
    else:
        assert rep.case == CYCLE
        assert rep.trail[-1] == rep.trail[rep.k]  # positions k+1 and k+1+r
        body = rep.trail[:-1]
        assert len({u.code for u in body}) == len(body)
        assert all(u != x0 for u in rep.trail)
    # every trail element is the x-coordinate of a curve point
    for u in rep.trail:
        assert curve.rhs(params, u).is_square()


# ---------------------------------------------------------------------------
# kval
# ---------------------------------------------------------------------------

def test_kval_golden_walk_r1(f5, params31):
    al = f5.alpha
    rep = valuation.kval(params31, u1=al ** 159)
    assert (rep.k, rep.case, rep.r) == (3, CYCLE, 1)
    assert [u.power_str for u in rep.trail] == \
        ["p:159", "p:15", "p:44", "p:162", "p:162"]
    check_report_invariants(params31, rep)


def test_kval_golden_walk_r2(f5, params31):
    al = f5.alpha
    rep = valuation.kval(params31, u1=al ** 193)
    assert (rep.k, rep.case, rep.r) == (3, CYCLE, 2)
    assert [u.power_str for u in rep.trail] == \
        ["p:193", "p:199", "p:50", "p:197", "p:223", "p:197"]
    check_report_invariants(params31, rep)


WALK_DIGESTS = {
    8: "3f36d442e0f959e9e68c835678c39ac0b209dd6c14dda2e0790037fbb2987ace",
    9: "9b24b54aa42edeb198d7edfec68300b590752644f2d2d659cd76f1fe44b458e4",
    10: "af166a2d00a26dc373c689a54cbf36cdc1d9cc7bc9e15190b502c4140d0c9d7d",
    11: "d2ca98d9e8bd4b8ed5546201f1eb3775aa3b4bdcc328a408006fd3581d3b0b34",
    12: "2e17efaa5074986b19c5e3fca684643a40d2eb37434d7f0a3313f2aa5fd00283",
}


@pytest.mark.parametrize("m", sorted(WALK_DIGESTS))
def test_walk_digest(m):
    """sha256 of (k, case, r, trail codes) of kval on three seeded (a, seed)
    at m = 8..12, past the golden scans' m <= 7; 523 to 67,121 steps."""
    f = get_field(m)
    h = hashlib.sha256()
    for seed in range(3):
        rng = random.Random(seed)
        a = f.random_element(rng)
        while not a:
            a = f.random_element(rng)
        rep = valuation.kval(CurveParams.make(f, a), rng=rng)
        h.update(repr((rep.k, rep.case, rep.r, [u.code for u in rep.trail])).encode())
    assert h.hexdigest() == WALK_DIGESTS[m]


def test_kval_default_rng_is_seed_zero(params31):
    """With neither rng nor u1, the start is sampled by random.Random(0)."""
    rep = valuation.kval(params31)
    assert rep == valuation.kval(params31, random.Random(0))
    assert rep != valuation.kval(params31, random.Random(1))


def test_kval_rejects_divisible_start(f5, params31):
    with pytest.raises(errors.ZeroParameter):
        valuation.kval(params31, u1=f5.alpha ** 7)  # obstruction vanishes there


@pytest.mark.parametrize("m", [3, 4, 5])
def test_kval_from_a_cuberoot_exhaustive(m):
    """At x0 = a^(1/3) the point is (x0, +-x0), so the start check reads
    Tr(a x0 / x0^3) = Tr(x0) = Tr(a): a walk from x0 is refused when Tr(a) = 0 and
    otherwise ends at once with k = 1, the descent's depth."""
    f = get_field(m)
    for a in f.nonzero_elements():
        params = CurveParams.make(f, a)
        if a.trace() == 0:
            with pytest.raises(errors.ZeroParameter):
                valuation.kval(params, u1=params.a_cuberoot)
        else:
            rep = valuation.kval(params, u1=params.a_cuberoot)
            assert (rep.k, rep.case) == (1, HIT_ORDER_THREE)
            assert rep.k == valuation.descent(params).t


@pytest.mark.parametrize("m", [2, 3, 4, 5])
def test_kval_matches_oracle_exhaustive(m):
    f = get_field(m)
    for a in f.nonzero_elements():
        params = CurveParams.make(f, a)
        expected = oracle.val3(oracle.kloosterman_sum(f, a).value, m)
        for seed in (0, 1, 2):
            rep = valuation.kval(params, random.Random(seed))
            assert rep.k == expected, f"a={a.trit_str} seed={seed}"
            check_report_invariants(params, rep)


@pytest.mark.parametrize("m", [3, 4])
def test_nonzero_trace_gives_k1(m):
    f = get_field(m)
    rng = random.Random(0)
    for a in f.nonzero_elements():
        if a.trace() != 0:
            assert valuation.kval(CurveParams.make(f, a), rng).k == 1


@pytest.mark.parametrize("m", [2, 3, 4, 5])
def test_zero_test_matches_oracle(m):
    f = get_field(m)
    for a in f.nonzero_elements():
        algo = valuation.is_kloosterman_zero(CurveParams.make(f, a))
        assert algo == (oracle.kloosterman_sum(f, a).value == 0)


def test_zero_test_golden(params31):
    assert not valuation.is_kloosterman_zero(params31)


# ---------------------------------------------------------------------------
# divisibility tests
# ---------------------------------------------------------------------------

def test_div9_golden(f5):
    assert valuation.div9(f5, f5.alpha ** 31)


@pytest.mark.parametrize("test", [valuation.div9, valuation.div27])
def test_divisibility_tests_reject_zero(f5, test):
    with pytest.raises(errors.ZeroParameter):
        test(f5, f5.zero)


@pytest.mark.parametrize("m", [3, 4])
def test_div9_trace_of_one(m):
    f = get_field(m)
    assert valuation.div9(f, f.one) == (m % 3 == 0)


@pytest.mark.parametrize("m", [2, 3, 4, 5])
def test_div9_div27_match_oracle(m):
    verify._divisibility((m,))


def test_div27_golden_all_z(f5):
    a = f5.alpha ** 31
    assert valuation.div27(f5, a)
    # each z individually satisfies the divisibility predicate
    for w in f5.solve_artin_schreier(a):
        z = w.ninth_root()
        expr = z ** 5 * (z - 1) * (z + 1) ** 7 / (z ** 2 + 1) ** 3
        assert expr.trace() == 0


def test_x_chain_correspondence(f5):
    a = f5.alpha ** 31
    x1s = set()
    for w in f5.solve_artin_schreier(a):
        z = w.ninth_root()
        x0, x1 = valuation.x0_x1_from_z(f5, z)
        assert x0 == f5.alpha ** 91
        x1s.add(x1.power_str)
    assert x1s == {"p:7", "p:19", "p:105"}


def test_x0_x1_from_z_zero(f5):
    assert valuation.x0_x1_from_z(f5, f5.zero) == (f5.zero, f5.zero)


def test_x0_is_cube_root_of_a(f5):
    z = f5.alpha ** 16
    x0, _ = valuation.x0_x1_from_z(f5, z)
    assert x0 == (z ** 27 - z ** 9).cube_root()


# ---------------------------------------------------------------------------
# descent
# ---------------------------------------------------------------------------

def test_descent_golden(f5, params31):
    g = valuation.descent(params31)
    assert g.t == 3
    assert [n.power_str for n in g.levels[0]] == ["p:91"]
    assert sorted(n.power_str for n in g.levels[1]) == ["p:105", "p:19", "p:7"]


def test_descent_full_golden(f5, params31):
    g = valuation.descent(params31, full=True)
    assert g.t == 3
    assert [len(lv) for lv in g.levels] == [1, 3, 9]
    nodes = sorted(n.power_str for lv in g.levels for n in lv)
    assert nodes == sorted(
        f"p:{k}" for k in [91, 7, 19, 105, 138, 196, 237, 9, 100, 175, 219, 202, 76]
    )
    # golden sub-trees of the full graph
    children = {p.power_str: set() for lv in g.levels for p in lv}
    for parent, child in g.edges:
        children[parent.power_str].add(child.power_str)
    assert children["p:19"] == {"p:9", "p:100", "p:175"}
    assert children["p:105"] == {"p:219", "p:202", "p:76"}
    assert children["p:7"] == {"p:138", "p:196", "p:237"}


def test_descent_depth_one_iff_trace_nonzero(f2):
    for a in f2.nonzero_elements():
        g = valuation.descent(CurveParams.make(f2, a))
        assert (g.t == 1) == (not valuation.div9(f2, a))


@pytest.mark.parametrize("m", [2, 3, 4])
def test_descent_depth_equals_valuation(m):
    f = get_field(m)
    rng = random.Random(3)
    for a in f.nonzero_elements():
        params = CurveParams.make(f, a)
        assert valuation.descent(params).t == valuation.kval(params, rng).k


@pytest.mark.parametrize("m", [2, 3, 4, 5, 6, 7])
def test_descent_depth_equals_oracle_exhaustive(m):
    f = get_field(m)
    for a in f.nonzero_elements():
        expected = oracle.val3(oracle.kloosterman_sum(f, a).value, m)
        assert valuation.descent(CurveParams.make(f, a)).t == expected, a.trit_str


@pytest.mark.parametrize("m", [11, 12])
def test_descent_depth_equals_oracle_sampled(m):
    # half uniform a, half a = w^3 - w (trace zero, so 9 | K(a)) to reach
    # deeper levels
    f = get_field(m)
    rng = random.Random(m)
    ws = [f.el(rng.randrange(1, f.q)) for _ in range(8)]
    for a in [f.el(rng.randrange(1, f.q)) for _ in range(8)] + [w ** 3 - w for w in ws]:
        if not a:
            continue
        expected = oracle.val3(oracle.kloosterman_sum(f, a).value, m)
        assert valuation.descent(CurveParams.make(f, a)).t == expected, a.trit_str


M40_MODULUS = "t:21" + "0" * 38 + "1"


def test_descent_m40_roots_check_by_tripling():
    """At m = 40, past every table and the old exhaustive cap: each child
    triples to its parent, an expanded node has children iff its
    3-divisibility obstruction vanishes, and the depth agrees with the
    divisibility tests by 9 and 27."""
    f = get_field(40, M40_MODULUS)
    rng = random.Random(40)
    ws = [f.el(rng.randrange(1, f.q)) for _ in range(2)]
    for a in [f.el(rng.randrange(1, f.q)) for _ in range(2)] + [w ** 3 - w for w in ws]:
        params = CurveParams.make(f, a)
        g = valuation.descent(params)
        parents = {parent.code for parent, _ in g.edges}
        for parent, child in g.edges:
            assert curve.triple_x(params, child) == parent
        for level in g.levels:
            node = level[0]
            assert (node.code in parents) == (curve.div3_obstruction(params, node) == 0)
        assert (g.t >= 2) == valuation.div9(f, a)
        if g.t >= 2:
            assert (g.t >= 3) == valuation.div27(f, a)


def test_descent_dot_output(params31):
    dot = valuation.descent(params31, full=True).to_dot()
    assert dot.startswith("digraph descent {")
    assert dot.endswith("}")
    assert dot.count("->") == 12
    assert '"t:00101" [label="p:91"];' in dot


# ---------------------------------------------------------------------------
# the trace-first descent against one that solves the cubic at every node
# ---------------------------------------------------------------------------

def cubic_descent(params, full=False):
    """Reference descent: every node it expands goes through the cubic,
    solved by elimination (linear_referee), not by the cached operator."""
    levels, edges = [[params.a_cuberoot]], []
    while True:
        nxt = []
        for node in levels[-1] if full else levels[-1][:1]:
            children = cubic_roots(params, node)
            edges.extend((node, c) for c in children)
            nxt.extend(children)
        if not nxt:
            return levels, edges
        levels.append(nxt)
        assert len(levels) <= params.field.m


def assert_descent_matches_cubic(params, full=False):
    """descent gives the reference's levels and edges; returns its levels."""
    g = valuation.descent(params, full)
    levels, edges = cubic_descent(params, full)
    assert [[n.code for n in lv] for lv in g.levels] == [[n.code for n in lv] for lv in levels]
    assert [(p.code, c.code) for p, c in g.edges] == [(p.code, c.code) for p, c in edges]
    return levels


# nodes with x = 0 in the full graphs of all a; they skip the trace test
ZERO_X_NODES = {2: 2, 3: 0, 4: 6, 5: 0, 6: 26, 7: 0}


@pytest.mark.parametrize("m", [2, 3, 4, 5, 6, 7])
def test_descent_matches_cubic_reference_exhaustive(m):
    f = get_field(m)
    zero_x = 0
    for a in f.nonzero_elements():
        params = CurveParams.make(f, a)
        assert_descent_matches_cubic(params)
        levels = assert_descent_matches_cubic(params, full=True)
        zero_x += sum(1 for lv in levels for node in lv if not node)
    assert zero_x == ZERO_X_NODES[m]


SEEDED = [(m, None) for m in (8, 9, 10, 11, 12, 13, 14, 20, 27)] + [(40, M40_MODULUS)]


@pytest.mark.parametrize("m,modulus", SEEDED, ids=[f"m{m}" for m, _ in SEEDED])
def test_descent_matches_cubic_reference_seeded(m, modulus):
    # every second a is w^3 - w (trace zero, so 9 | K(a)) to reach deeper levels
    f = get_field(m, modulus)
    rng = random.Random(1000 + m)
    for i in range(12):
        a = f.el(rng.randrange(1, f.q))
        if i % 2:
            a = a ** 3 - a
        if a:
            assert_descent_matches_cubic(CurveParams.make(f, a), full=m <= 10)


# ---------------------------------------------------------------------------
# the log-table descent against the code-op descent of a table-less field
# ---------------------------------------------------------------------------

def descent_outcome(params, full):
    """Levels and edges by code, or the type of the exception raised."""
    try:
        g = valuation.descent(params, full)
    except errors.Ksum3Error as exc:
        return type(exc)
    return ([[n.code for n in lv] for lv in g.levels],
            [(p.code, c.code) for p, c in g.edges])


def expands_zero_x(outcome, full):
    """Whether a graph expanded a node with x = 0: every node under the
    full policy, the first of each level under the default one."""
    if isinstance(outcome, type):
        return False
    levels = outcome[0]
    return any(0 in (lv if full else lv[:1]) for lv in levels)


def assert_log_descent_matches_code_descent(f, g, codes, policies):
    """descent on the table field f (log steps) and on its table-less copy
    g (code steps) agree for each a in codes; returns how many graphs
    expanded a node with x = 0."""
    assert f.log is not None and g.log is None
    zero_x = 0
    for a in codes:
        for full in policies:
            got = descent_outcome(CurveParams.make(f, f.el(a)), full)
            assert got == descent_outcome(CurveParams.make(g, g.el(a)), full), (a, full)
            zero_x += expands_zero_x(got, full)
    return zero_x


def test_log_descent_matches_code_descent_exhaustive(tableless):
    """Every a at m = 2..7 and on the fields whose tables use a searched
    generator, under both policies; the log steps' x = 0 branch runs."""
    zero_x = 0
    for m, modulus in [(m, None) for m in range(2, 8)] + NON_PRIMITIVE_FIELDS:
        f = Field(m, modulus) if modulus else get_field(m)
        zero_x += assert_log_descent_matches_code_descent(
            f, tableless(f), range(1, f.q), (False, True))
    assert zero_x > 0


@pytest.mark.parametrize("m", range(8, 14))
def test_log_descent_matches_code_descent_seeded(m, tableless):
    """300 seeded a, every second one w^3 - w (trace zero) to reach deeper
    levels, under the default policy; the full one up to m = 10, as its
    graphs grow as 3^t."""
    f = get_field(m)
    rng = random.Random(3300 + m)
    codes = [rng.randrange(1, f.q) for _ in range(300)]
    codes = [(f.el(c) ** 3 - f.el(c)).code if i % 2 else c for i, c in enumerate(codes)]
    assert_log_descent_matches_code_descent(f, tableless(f), [c for c in codes if c],
                                            (False, True) if m <= 10 else (False,))


@pytest.mark.parametrize("m", range(8, 14))
def test_walk_matches_descent_seeded(m):
    # the walk is checked against the oracle only up to m = 7 elsewhere;
    # every second a is w^3 - w so the depths reach past 1
    f = get_field(m)
    rng = random.Random(2000 + m)
    for i in range(6):
        a = f.el(rng.randrange(1, f.q))
        if i % 2:
            a = a ** 3 - a
        if a:
            params = CurveParams.make(f, a)
            assert valuation.kval(params, rng).k == valuation.descent(params).t


def tripled_y(params, x, y):
    """+-y(3Q) for Q = (x, y) with x^3 != a: (y G(x) / (x^3 - a))^3 with
    G(x) = x^3 - a - r (x + r), r = a^(1/3) (the descent's y recurrence)."""
    r = params.a_cuberoot
    d = x ** 3 - params.a
    return (y * (d - r * (x + r)) / d) ** 3


@pytest.mark.parametrize("m", [3, 4, 5])
def test_tripled_y_identity_exhaustive(m):
    f = get_field(m)
    checked = 0
    for a in f.nonzero_elements():
        params = CurveParams.make(f, a)
        for p in curve.enumerate_points(params):
            if p.is_infinity or p.x ** 3 == a:
                continue
            y3 = curve.scalar_mul(params, 3, p).y
            assert y3 in (tripled_y(params, p.x, p.y), -tripled_y(params, p.x, p.y))
            checked += 1
    assert checked == {3: 651, 4: 6321, 5: 58323}[m]   # 65295 in all


def test_tripled_y_identity_m40():
    f = get_field(40, M40_MODULUS)
    rng = random.Random(41)
    for _ in range(6):
        params = CurveParams.make(f, f.el(rng.randrange(1, f.q)))
        p = curve.sample_point(params, rng)
        y3 = curve.scalar_mul(params, 3, p).y
        assert y3 in (tripled_y(params, p.x, p.y), -tripled_y(params, p.x, p.y))


# children checked per m, (default policy, full policy), over every a != 0
NODES_BELOW_ROOT = {2: (6, 6), 3: (33, 51), 4: (102, 222), 5: (435, 2175), 6: (1191, 9897)}


@pytest.mark.parametrize("full", [False, True])
@pytest.mark.parametrize("m", [2, 3, 4, 5, 6])
def test_descent_y_recurrence_is_exact(m, full):
    """The descent docstring's recurrence, replayed with curve._divide,
    gives each child c the y_c with 3 (c, y_c) = (x, y) exactly, not up to
    sign, for every node (x, y) of the graph, the root (r, r) included."""
    f = get_field(m)
    checked = 0
    for a in f.nonzero_elements():
        params = CurveParams.make(f, a)
        r = params.a_cuberoot
        levels, frontier = [[r]], [(r, r)]
        while frontier:
            children = []
            for x, y in frontier:
                w = y.cube_root()
                for c in (Fe(f, c) for c in curve._divide(params, x.code, w.code)):
                    d = c ** 3 - a
                    yc = w * d / (d - r * (c + r))
                    assert curve.scalar_mul(params, 3, curve.Point(c, yc)) == curve.Point(x, y)
                    children.append((c, yc))
                    checked += 1
            if children:
                levels.append([c for c, _ in children])
            frontier = children if full else children[:1]
        assert levels == valuation.descent(params, full).levels
    assert checked == NODES_BELOW_ROOT[m][full]


def test_descent_takes_no_square_root(monkeypatch):
    def no_sqrt(self):
        raise AssertionError("descent took a square root")

    monkeypatch.setattr(Fe, "sqrt", no_sqrt)
    f = get_field(40, M40_MODULUS)
    rng = random.Random(42)
    for _ in range(4):
        w = f.el(rng.randrange(1, f.q))
        valuation.descent(CurveParams.make(f, w ** 3 - w))


def test_descent_decides_each_node_once(monkeypatch):
    """curve._resolvent's trit is the descent's only 3-divisibility
    decision, taken once per expanded node: with Tr(a) = 0 the default
    policy expands one node per level and the full policy every node, and
    with Tr(a) != 0 it expands none."""
    cases = [CurveParams.make(get_field(5), a) for a in get_field(5).nonzero_elements()]
    for m, modulus in ((10, None), (40, M40_MODULUS)):
        f = get_field(m, modulus)
        rng = random.Random(3000 + m)
        for i in range(6):
            a = f.el(rng.randrange(1, f.q))
            cases.append(CurveParams.make(f, a ** 3 - a if i % 2 else a))

    calls, resolvent = [], curve._resolvent

    def counted(*args):
        calls.append(args)
        return resolvent(*args)

    monkeypatch.setattr(curve, "_resolvent", counted)
    depths = []
    for params in cases:
        for full in (False, True):
            calls.clear()
            levels = valuation.descent(params, full).levels
            want = 0 if params.a.trace() else sum(map(len, levels)) if full else len(levels)
            assert len(calls) == want
            depths.append(len(levels))
    assert max(depths) >= 3


def test_divide_makes_at_most_one_inversion(monkeypatch):
    """Past the tables an inverse is a Frobenius-power chain
    (Field._chain_inv).  Each division cubic takes at most one, and none at
    x = 0."""
    inversions, calls = [0], []         # calls: (solved, inversions) per _divide
    chain_inv, divide = field.Field._chain_inv, curve._divide

    def counted_inv(self, a):
        inversions[0] += 1
        return chain_inv(self, a)

    def counted_divide(params, xi, w):
        before = inversions[0]
        roots = divide(params, xi, w)
        calls.append((bool(roots), inversions[0] - before))
        return roots

    monkeypatch.setattr(field.Field, "_chain_inv", counted_inv)
    monkeypatch.setattr(valuation, "_divide", counted_divide)
    for m, modulus in SEEDED:
        f = get_field(m, modulus)
        if f.log is not None:
            continue
        rng = random.Random(1000 + m)
        for i in range(12):
            a = f.el(rng.randrange(1, f.q))
            if i % 2:
                a = a ** 3 - a
            if a:
                valuation.descent(CurveParams.make(f, a))
    assert all(n <= 1 for _, n in calls)
    assert {solved for solved, _ in calls} == {False, True}

    # x = 0 nodes: (0, s) lies on E(-s^2)
    calls.clear()
    f = get_field(40, M40_MODULUS)
    rng = random.Random(4040)
    for _ in range(6):
        s = f.el(rng.randrange(1, f.q))
        params = CurveParams.make(f, -s * s)
        for root in counted_divide(params, 0, s.cube_root().code):
            assert curve.triple_x(params, Fe(f, root)) == f.zero
    assert all(n == 0 for _, n in calls)
    assert {solved for solved, _ in calls} == {False, True}


def test_root_cubic_solvable_iff_trace_zero():
    """The root (r, r) of the descent, r = a^(1/3), has R = a^(1/9) in its
    division cubic, and Tr(a^(1/9)) = Tr(a): _divide at (r, r^(1/3)) has
    roots iff Tr(a) = 0, which the descent decides without the cubic.
    Every a at m = 2..7, and 40 seeded a each at m = 14, 20 and 40 (M40)."""
    cases = [a for m in range(2, 8) for a in get_field(m).nonzero_elements()]
    for m, modulus in ((14, None), (20, None), (40, M40_MODULUS)):
        f, rng = get_field(m, modulus), random.Random(2700 + m)
        cases += [f.el(rng.randrange(1, f.q)) for _ in range(40)]
    seen = set()
    for a in cases:
        params = CurveParams.make(a.field, a)
        r = params.a_cuberoot
        solvable = bool(curve._divide(params, r.code, r.cube_root().code))
        assert solvable == (a.trace() == 0)
        seen.add((a.field.m, solvable))
    assert seen == {(m, s) for m in (2, 3, 4, 5, 6, 7, 14, 20, 40) for s in (False, True)}


def test_descent_with_nonzero_trace_skips_cubic_and_inversion(monkeypatch):
    """At M40 an a with Tr(a) != 0 has the one-level graph {a^(1/3)},
    reached with no division cubic, no inversion (Field._chain_inv) and no
    cube root."""
    f = get_field(40, M40_MODULUS)
    rng = random.Random(4041)
    cases = []
    while len(cases) < 8:
        a = f.el(rng.randrange(1, f.q))
        if a.trace():
            cases.append(CurveParams.make(f, a))

    def refuse(*args):
        raise AssertionError("descent solved, inverted or took a cube root at a node it "
                             "decides by Tr(a)")

    monkeypatch.setattr(valuation, "_divide", refuse)
    monkeypatch.setattr(field.Field, "_chain_inv", refuse)
    monkeypatch.setattr(field.Field, "_code_cube_root", refuse)
    for params in cases:
        for full in (False, True):
            g = valuation.descent(params, full)
            assert (g.levels, g.edges) == ([[params.a_cuberoot]], [])


def test_full_descent_stops_at_node_cap(monkeypatch):
    """A zero at m = 7 has depth 7, so its full graph holds (3^7 - 1) / 2
    = 1093 nodes.  Past DESCENT_NODE_CAP expansions the full descent raises
    CapExceeded; the default policy expands one node per level."""
    f = get_field(7)
    params = CurveParams.make(f, f.parse("p:52"))
    assert oracle.kloosterman_sum(f, params.a).value == 0
    assert sum(map(len, valuation.descent(params, full=True).levels)) == 1093
    monkeypatch.setattr(valuation, "DESCENT_NODE_CAP", 100)
    with pytest.raises(errors.CapExceeded):
        valuation.descent(params, full=True)
    assert valuation.descent(params).t == 7


# ---------------------------------------------------------------------------
# bounds from the cycle case
# ---------------------------------------------------------------------------

def test_cycle_bounds_golden(f5, params31):
    rep = valuation.kval(params31, u1=f5.alpha ** 159)
    lower, upper = valuation.cycle_bounds(rep, f5)
    assert (lower, upper) == (81, 162)
    rep2 = valuation.kval(params31, u1=f5.alpha ** 193)
    assert valuation.cycle_bounds(rep2, f5) == (135, 108)


def test_cycle_bounds_wrong_case(f2):
    a = next(a for a in f2.nonzero_elements()
             if oracle.kloosterman_sum(f2, a).value == 0)
    rep = valuation.kval(CurveParams.make(f2, a), random.Random(0))
    assert rep.case == HIT_ORDER_THREE
    with pytest.raises(errors.NotCycleCase):
        valuation.cycle_bounds(rep, f2)


def test_cycle_bounds_consistent_with_oracle_m4(f4):
    rng = random.Random(8)
    for a in f4.nonzero_elements():
        rep = valuation.kval(CurveParams.make(f4, a), rng)
        if rep.case != CYCLE:
            continue
        lower, upper = valuation.cycle_bounds(rep, f4)
        assert oracle.curve_order(f4, a) >= lower
        # the order bound transfers to K as K >= lower - 3^m, i.e. -K <= upper
        assert -oracle.kloosterman_sum(f4, a).value <= upper


# ---------------------------------------------------------------------------
# the three z of div27
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("m", [2, 3, 4, 5, 6, 7])
def test_div27_ninth_roots_differ_by_f3(m):
    """The ninth roots of the Artin-Schreier solutions are z0, z0 + 1,
    z0 + 2, and at most one of them is a root of z^2 + 1, so div27 always
    has at least two verdicts to compare."""
    f = get_field(m)
    for a in f.nonzero_elements():
        if a.trace() != 0:
            continue
        zs = [w.ninth_root() for w in f.solve_artin_schreier(a)]
        assert zs == [zs[0], zs[0] + 1, zs[0] + 2], a.trit_str
        assert sum(1 for z in zs if not z ** 2 + 1) <= 1, a.trit_str


def test_div27_matches_oracle_m7():
    verify._divisibility((7,))


def test_div27_matches_descent_m40():
    f = get_field(40, M40_MODULUS)
    rng = random.Random(27)
    checked = 0
    while checked < 4:
        a = f.el(rng.randrange(f.q))
        a = a ** 3 - a  # trace zero
        if not a:
            continue
        depth = valuation.descent(CurveParams.make(f, a)).t
        assert valuation.div27(f, a) == (depth >= 3), a.trit_str
        checked += 1
