import functools
import hashlib
import itertools
import random

import numpy as np
import pytest

from ksum3 import curve, errors, verify
from ksum3.curve import INFINITY, CurveParams, Point
from ksum3.field import Fe, get_field

M40_MODULUS = "t:21" + "0" * 38 + "1"


def all_params(f):
    return [CurveParams.make(f, a) for a in f.nonzero_elements()]


def test_make_rejects_zero(f5):
    with pytest.raises(errors.ZeroParameter):
        CurveParams.make(f5, f5.zero)


def test_cached_cube_root(f5, params31):
    assert params31.a_cuberoot ** 3 == params31.a
    assert params31.a_cuberoot == f5.alpha ** 91


# ---------------------------------------------------------------------------
# on_curve
# ---------------------------------------------------------------------------

def test_order_three_point_on_curve(f5, params31):
    x0 = params31.a_cuberoot
    assert curve.on_curve(params31, Point(x0, x0))
    assert curve.on_curve(params31, Point(x0, -x0))
    assert curve.on_curve(params31, INFINITY)


def test_off_curve_point_found_in_f9(f2):
    # derived by enumeration: some (a^{1/3}, a^{1/3} + 1) fails the equation
    found = False
    for params in all_params(f2):
        p = Point(params.a_cuberoot, params.a_cuberoot + 1)
        if not curve.on_curve(params, p):
            found = True
            with pytest.raises(errors.PointNotOnCurve):
                curve.add(params, p, INFINITY)
    assert found


# ---------------------------------------------------------------------------
# group law (validated against brute force before anything relies on it)
# ---------------------------------------------------------------------------

def test_identity_and_inverse(params31):
    rng = random.Random(11)
    for _ in range(20):
        p = curve.sample_point(params31, rng)
        assert curve.add(params31, p, INFINITY) == p
        assert curve.add(params31, p, curve.negate(params31, p)) == INFINITY


@pytest.mark.parametrize("m", [2, 3, 4, 5])
def test_associativity_and_closure_random(m):
    verify._group_law(m, (m,), curves=40, triples=6, exhaustive=())


@pytest.mark.parametrize("m", [2, 3])
def test_group_order_annihilates_every_point(m):
    """|E| P = O, and triple_x agrees with the group law, on every point;
    acceptance 5 runs the same check at m = 2..5."""
    verify._group_law(m, (), exhaustive=(m,))


def test_group_order_annihilates_sampled_points_m5(params31):
    rng = random.Random(5)
    for _ in range(25):
        p = curve.sample_point(params31, rng)
        assert curve.scalar_mul(params31, 270, p) == INFINITY


def test_doubling_order_two_point(f2):
    # curves over F_9 with a y = 0 point: doubling must give infinity
    seen = False
    for params in all_params(f2):
        for x in f2.elements():
            if curve.rhs(params, x) == f2.zero:
                p = Point(x, f2.zero)
                assert curve.add(params, p, p) == INFINITY
                seen = True
    assert seen


@pytest.mark.parametrize("m", [2, 3, 5])
def test_exactly_two_order_three_points(m):
    f = get_field(m)
    for params in all_params(f):
        pts = [
            p for p in curve.enumerate_points(params)
            if not p.is_infinity
            and curve.scalar_mul(params, 3, p) == INFINITY
        ]
        x0 = params.a_cuberoot
        assert sorted((p.x.code, p.y.code) for p in pts) == sorted(
            [(x0.code, x0.code), (x0.code, (-x0).code)]
        )


# ---------------------------------------------------------------------------
# tripling recurrence
# ---------------------------------------------------------------------------

def test_triple_x_golden_sequence(f5, params31):
    al = f5.alpha
    seq = [159, 15, 44, 162, 162]
    for u, v in zip(seq, seq[1:]):
        assert curve.triple_x(params31, al ** u) == al ** v


def test_triple_x_order_three_rejected(params31):
    with pytest.raises(errors.OrderThreePoint):
        curve.triple_x(params31, params31.a_cuberoot)


def test_triple_x_matches_group_law_random(params31):
    rng = random.Random(42)
    checked = 0
    while checked < 100:
        p = curve.sample_point(params31, rng)
        if p.x ** 3 == params31.a:
            continue
        assert curve.triple_x(params31, p.x) == curve.scalar_mul(params31, 3, p).x
        checked += 1


@pytest.mark.parametrize("m,modulus", [(14, "t:210000000000001"), (40, "t:21" + "0" * 38 + "1")])
def test_triple_x_past_table_cap(m, modulus):
    """Past the table cap triple_x runs on packed products; it still agrees
    with the group law, and u = a^(1/3) is still the order-three point."""
    f = get_field(m, modulus)
    assert f.exp is None
    rng = random.Random(3000 + m)
    for _ in range(2):
        params = CurveParams.make(f, f.random_element(rng))
        with pytest.raises(errors.OrderThreePoint):
            curve.triple_x(params, params.a_cuberoot)
        for _ in range(2):
            p = curve.sample_point(params, rng)
            assert p.x ** 3 != params.a
            assert curve.triple_x(params, p.x) == curve.scalar_mul(params, 3, p).x


@pytest.mark.parametrize("m,modulus", [(m, None) for m in range(2, 7)] + [(4, "t:11111")])
def test_triple_x_log_form_matches_table_less_field(m, modulus, tableless):
    """triple_x on Zech logs equals the nine-op formula of a table-less
    field of the same modulus on every (a, u), u = 0 and u = a^(1/3)
    included; alpha is not primitive mod t:11111.  The referee's one-code
    ops are memoized, which keeps m = 6 to seconds."""
    f = get_field(m, modulus)
    g = tableless(f)
    assert f.log is not None and g.log is None
    for name in ("code_neg", "code_inv", "code_pow"):
        setattr(g, name, functools.lru_cache(maxsize=None)(getattr(g, name)))

    def steps(params):
        out = []
        for code in range(params.field.q):
            try:
                out.append(curve.triple_x(params, params.field.el(code)).code)
            except errors.OrderThreePoint:
                out.append(None)
        return out

    for a in range(1, f.q):
        want = steps(CurveParams.make(g, g.el(a)))
        assert want.count(None) == 1
        assert steps(CurveParams.make(f, f.el(a))) == want


# ---------------------------------------------------------------------------
# 3-divisibility obstruction and division cubic
# ---------------------------------------------------------------------------

def test_obstruction_goldens(f5, params31):
    al = f5.alpha
    assert curve.div3_obstruction(params31, al ** 138) == 1
    assert curve.div3_obstruction(params31, al ** 7) == 0
    assert curve.div3_obstruction(params31, al ** 91) == 0


def test_obstruction_zero_x(params31):
    with pytest.raises(errors.ZeroXCoordinate):
        curve.div3_obstruction(params31, params31.field.zero)


def test_obstruction_not_on_curve(f5, params31):
    xi = next(
        x for x in f5.nonzero_elements() if not curve.rhs(params31, x).is_square()
    )
    with pytest.raises(errors.NotOnCurve):
        curve.div3_obstruction(params31, xi)


def test_obstruction_sign_invariance(f5, params31):
    al = f5.alpha
    for e in (138, 7, 91, 159, 193):
        xi = al ** e
        y = curve.rhs(params31, xi).sqrt()
        t1 = (params31.a * y / xi ** 3).trace()
        t2 = (params31.a * (-y) / xi ** 3).trace()
        assert t2 == (-t1) % 3
        assert (t1 == 0) == (t2 == 0)


def test_cubic_goldens(f5, params31):
    al = f5.alpha
    assert sorted(r.power_str for r in curve.solve_tripling_cubic(params31, al ** 91)) \
        == ["p:105", "p:19", "p:7"]
    assert sorted(r.power_str for r in curve.solve_tripling_cubic(params31, al ** 7)) \
        == ["p:138", "p:196", "p:237"]
    assert curve.solve_tripling_cubic(params31, al ** 138) == []


@pytest.mark.parametrize("m", [2, 3, 4, 5])
def test_cubic_solvable_iff_obstruction_vanishes(m):
    f = get_field(m)
    for params in all_params(f):
        for x in f.nonzero_elements():
            if not curve.rhs(params, x).is_square():
                continue
            roots = curve.solve_tripling_cubic(params, x)
            solvable = curve.div3_obstruction(params, x) == 0
            assert bool(roots) == solvable
            if solvable:
                # at an order-2 point (y = 0) two of the three preimages
                # are negatives of each other and share an x-coordinate
                if curve.rhs(params, x) == 0:
                    assert len(roots) == 2
                else:
                    assert len(roots) == 3
            for r in roots:
                assert curve.triple_x(params, r) == x


def brute_cubic_roots(f, a, xis):
    """For each xi in xis, the codes of every x with P(x) = 0, where P is
    the division cubic at xi: the cubic is evaluated at the whole field
    with table arithmetic, independently of the linear solver."""
    x = np.arange(f.q, dtype=np.int64)[None, :]
    xi = np.asarray(xis, dtype=np.int64)[:, None]

    def cube_root(v):
        return f.pow_codes(v, 3 ** (f.m - 1))

    def neg(v):
        return f.mul_codes(v, 2)

    c2 = neg(cube_root(xi))
    c1 = cube_root(f.mul_codes(a.code, f.add_codes(1, neg(xi))))
    c0 = neg(cube_root(f.mul_codes(f.pow_codes(a.code, 2), f.add_codes(a.code, xi))))
    p = f.add_codes(f.mul_codes(f.add_codes(f.mul_codes(f.add_codes(x, c2), x), c1), x), c0)
    return [[int(c) for c in np.flatnonzero(row == 0)] for row in p]


def check_cubic_against_brute_force(f, a, xis):
    params = CurveParams.make(f, a)
    for code, want in zip(xis, brute_cubic_roots(f, a, xis)):
        xi = f.el(code)
        if not curve.rhs(params, xi).is_square():
            with pytest.raises(errors.NotOnCurve):
                curve.solve_tripling_cubic(params, xi)
            continue
        got = [r.code for r in curve.solve_tripling_cubic(params, xi)]
        assert got == want, f"a={a.trit_str} xi={xi.trit_str}"


@pytest.mark.parametrize("m", [2, 3, 4, 5])
def test_cubic_roots_match_brute_force_exhaustive(m):
    f = get_field(m)
    for a in f.nonzero_elements():
        check_cubic_against_brute_force(f, a, range(f.q))


def test_cubic_roots_match_brute_force_sampled_m6():
    f = get_field(6)
    rng = random.Random(6)
    for _ in range(25):
        a = f.el(rng.randrange(1, f.q))
        check_cubic_against_brute_force(f, a, [rng.randrange(f.q) for _ in range(40)])


# ---------------------------------------------------------------------------
# sampling
# ---------------------------------------------------------------------------

def test_sample_point_is_on_curve(params31):
    rng = random.Random(0)
    for _ in range(30):
        assert curve.on_curve(params31, curve.sample_point(params31, rng))


def test_golden_start_points_pass_the_start_condition(f5, params31):
    assert curve.div3_obstruction(params31, f5.alpha ** 159) != 0
    assert curve.div3_obstruction(params31, f5.alpha ** 193) != 0


def test_generator_candidate_not_divisible(params31):
    rng = random.Random(9)
    for _ in range(20):
        p = curve.sample_generator_candidate(params31, rng)
        assert p.x != params31.field.zero
        assert curve.div3_obstruction(params31, p.x) != 0


def test_acceptance_fraction_about_two_thirds(f2):
    # exactly 1/3 of the points of E(a) are 3-divisible, so about 2/3 of
    # the usable x-coordinates pass the start condition
    good = total = 0
    for params in all_params(f2):
        for p in curve.enumerate_points(params):
            if p.is_infinity or not p.x:
                continue
            total += 1
            if curve.div3_obstruction(params, p.x) != 0:
                good += 1
    assert abs(good / total - 2 / 3) < 0.15


# ---------------------------------------------------------------------------
# square roots on the curve paths
# ---------------------------------------------------------------------------

def outcome(fn, *args):
    """fn(*args) with Fe results as codes, or the name of the error raised."""
    try:
        got = fn(*args)
    except errors.Ksum3Error as exc:
        return type(exc).__name__
    return [r.code for r in got] if isinstance(got, list) else got


# sha256 over seeded sample_generator_candidate, sample_point,
# div3_obstruction and solve_tripling_cubic results at m = 5..40, and over
# enumerate_points for every a at m = 3 and 4.
SAMPLING_DIGEST = "0cafb7da179ba710892b62b46d0fc34d059563b9201d3ed5faf3a3d5185327d9"
SAMPLING_FIELDS = [(m, None) for m in (5, 8, 13, 14, 15, 20, 27, 40)] + [(40, M40_MODULUS)]


def test_sampling_digest():
    h = hashlib.sha256()
    for m, modulus in SAMPLING_FIELDS:
        f = get_field(m, modulus)
        rng = random.Random(5000 + m)
        for _ in range(4):
            params = CurveParams.make(f, f.el(rng.randrange(1, f.q)))
            g = curve.sample_generator_candidate(params, rng)
            p = curve.sample_point(params, rng)
            out = [g.x.code, g.y.code, p.x.code, p.y.code]
            for xi in [g.x, p.x, f.zero] + [f.el(rng.randrange(1, f.q)) for _ in range(3)]:
                out.append((outcome(curve.div3_obstruction, params, xi),
                            outcome(curve.solve_tripling_cubic, params, xi)))
            h.update(repr(out).encode())
    for m in (3, 4):
        for params in all_params(get_field(m)):
            h.update(repr([None if p.is_infinity else (p.x.code, p.y.code)
                           for p in curve.enumerate_points(params)]).encode())
    assert h.hexdigest() == SAMPLING_DIGEST


@pytest.mark.parametrize("m,modulus", [(8, None), (14, None), (15, None), (40, None),
                                       (40, M40_MODULUS)])
def test_curve_paths_take_no_is_square(m, modulus, monkeypatch):
    """sqrt alone decides whether x lifts to the curve, on the log tables
    (m = 8) and on Tonelli-Shanks past them (m = 14, 15, 40).  The field
    builds Tonelli-Shanks's constants in its constructor, so once it
    exists no curve path runs is_square."""
    f = get_field(m, modulus)
    rng = random.Random(800 + m)
    params = CurveParams.make(f, f.el(rng.randrange(1, f.q)))
    off = next(x for x in (f.el(rng.randrange(1, f.q)) for _ in range(100))
               if not curve.rhs(params, x).is_square())

    def no_is_square(self):
        raise AssertionError("curve path ran is_square")

    monkeypatch.setattr(Fe, "is_square", no_is_square)
    for _ in range(3):
        g = curve.sample_generator_candidate(params, rng)
        p = curve.sample_point(params, rng)
        assert curve.on_curve(params, g) and curve.on_curve(params, p)
        assert curve.div3_obstruction(params, g.x) != 0
        assert curve.solve_tripling_cubic(params, g.x) == []
    points = list(itertools.islice(curve.enumerate_points(params), 1, 40))
    assert points and all(curve.on_curve(params, q) for q in points)
    for fn in (curve.div3_obstruction, curve.solve_tripling_cubic):
        with pytest.raises(errors.NotOnCurve):
            fn(params, off)
