import functools
import itertools
import random
import time

import pytest
from hypothesis import given, strategies as st

from ksum3 import errors
from ksum3.field import Fe, Field, _apply_images, _from_code, _to_code, get_field, is_irreducible
from linear_referee import solve_linearized
from test_packed import NON_PRIMITIVE_FIELDS


M40_MODULUS = "t:21" + "0" * 38 + "1"


def codes(field):
    return st.integers(min_value=0, max_value=field.q - 1)


# ---------------------------------------------------------------------------
# construction
# ---------------------------------------------------------------------------

def test_default_m5_modulus_is_valid_and_primitive(f5):
    assert f5.m == 5
    assert f5.modulus == (1, 0, 1, 0, 1, 1)
    assert f5.alpha_primitive
    assert f5.q == 243


def test_x_squared_is_reducible():
    with pytest.raises(errors.ReducibleModulus):
        Field(2, (0, 0, 1))


def test_non_monic_rejected():
    with pytest.raises(errors.DegreeMismatch):
        Field(2, (1, 1, 2))


def test_wrong_length_rejected():
    with pytest.raises(errors.DegreeMismatch):
        Field(3, (1, 1, 1))


@pytest.mark.parametrize("m", [1, 41])
def test_degree_outside_range_rejected(m):
    with pytest.raises(errors.DegreeMismatch):
        Field(m, (1,) * (m + 1))
    with pytest.raises(errors.FormatError):   # no builtin modulus either
        get_field(m)


def test_monic_quadratics_against_trial_root_oracle():
    # independent oracle: a monic quadratic over F_3 is reducible iff it
    # has a root in F_3
    for b, c in itertools.product(range(3), repeat=2):
        poly = (c, b, 1)
        has_root = any((x * x + b * x + c) % 3 == 0 for x in range(3))
        assert is_irreducible(poly) == (not has_root), poly
        if has_root:
            with pytest.raises(errors.ReducibleModulus):
                Field(2, poly)
        else:
            assert Field(2, poly).q == 9


# ---------------------------------------------------------------------------
# arithmetic
# ---------------------------------------------------------------------------

def test_alpha_fifth_power_reduction(f5):
    assert (f5.alpha ** 5).coeffs == (2, 0, 2, 0, 2)


def test_int_equality_agrees_with_hash(f5):
    assert len({f5.one, 1}) == 1
    assert hash(f5.el(2)) == hash(2)
    assert f5.one != 4 and f5.el(2) != -1 and f5.el(4) != 4
    assert f5.one + 4 == f5.el(2)      # arithmetic still reduces ints mod 3
    assert {f5.zero: "z"}[0] == "z"


def test_inverse_of_zero_raises(f5):
    with pytest.raises(errors.DivisionByZero):
        f5.zero.inv()
    with pytest.raises(errors.DivisionByZero):
        f5.zero ** -1
    with pytest.raises(errors.DivisionByZero):
        2 / f5.zero


def test_int_divided_by_element(f5):
    for x in f5.nonzero_elements():
        assert 2 / x == 2 * x.inv()


def test_multiplicative_group_order(f5):
    assert f5.alpha ** 242 == f5.one
    assert f5.alpha ** 241 != f5.one


def test_mixed_fields_raise(f4, f5):
    with pytest.raises(errors.MixedFields):
        f4.one + f5.one


@given(st.data())
def test_ring_axioms_random(f5, data):
    x = f5.el(data.draw(codes(f5)))
    y = f5.el(data.draw(codes(f5)))
    z = f5.el(data.draw(codes(f5)))
    assert (x + y) + z == x + (y + z)
    assert (x * y) * z == x * (y * z)
    assert x * y == y * x
    assert x + y == y + x
    assert x * (y + z) == x * y + x * z
    if x:
        assert x * x.inv() == f5.one


@given(st.data())
def test_pow_agrees_with_repeated_mul(f4, data):
    x = f4.el(data.draw(codes(f4)))
    e = data.draw(st.integers(min_value=0, max_value=50))
    acc = f4.one
    for _ in range(e):
        acc = acc * x
    assert x ** e == acc


# ---------------------------------------------------------------------------
# characteristic-3 maps
# ---------------------------------------------------------------------------

def test_cube_root_golden(f5):
    assert (f5.alpha ** 31).cube_root() == f5.alpha ** 91


def test_frobenius_fixed_points(f5):
    assert f5.zero ** 3 == f5.zero
    assert f5.one ** 3 == f5.one


def test_ninth_root_golden(f5):
    # derived: 144 * 3^3 mod 242 = 16; verified here by cubing twice
    r = (f5.alpha ** 144).ninth_root()
    assert r == f5.alpha ** 16
    assert r ** 9 == f5.alpha ** 144


@pytest.mark.parametrize("m", [2, 3, 4, 5])
def test_cube_root_inverts_frobenius_exhaustive(m):
    f = get_field(m)
    for x in f.elements():
        assert (x ** 3).cube_root() == x
        assert x.cube_root() ** 3 == x


def test_trace_golden(f5):
    assert (f5.alpha ** 202).trace() == 1
    assert f5.zero.trace() == 0


@pytest.mark.parametrize("m", [2, 3, 4, 5, 6, 7])
def test_trace_class_sizes(m):
    """Each trace value is taken q/3 times, and trace(), a trace_table
    lookup with tables, agrees with the trace functional's chunk walk on
    every element."""
    f = get_field(m)
    counts = [0, 0, 0]
    for x in f.elements():
        t = x.trace()
        counts[t] += 1
        assert t == _apply_images(f._trace_images, x.code) % 3
    assert counts == [f.q // 3] * 3


@pytest.mark.parametrize("m, modulus", [(m, None) for m in range(2, 13)]
                         + [(m, None) for m in (14, 15, 20, 27)]
                         + [(40, "t:21" + "0" * 38 + "1")])
def test_trace_of_basis_is_sum_of_conjugates(m, modulus):
    """Reference for the trace basis: Tr(x) = x + x^3 + ... + x^(3^(m-1)).
    On seeded elements trace() is then sum c_i Tr(alpha^i)."""
    f = get_field(m, modulus)
    basis = []
    for j in range(m):
        x = f.alpha ** j
        acc = x
        for _ in range(m - 1):
            x = x ** 3
            acc = acc + x
        assert acc.code == (f.alpha ** j).trace()  # acc lies in F_3
        basis.append(acc.code)
    rng = random.Random(600 + m)
    for x in [f.el(rng.randrange(f.q)) for _ in range(20)]:
        assert x.trace() == sum(c * t for c, t in zip(x.coeffs, basis)) % 3


@given(st.data())
def test_trace_additive_and_frobenius_invariant(f5, data):
    x = f5.el(data.draw(codes(f5)))
    y = f5.el(data.draw(codes(f5)))
    assert (x + y).trace() == (x.trace() + y.trace()) % 3
    assert (x ** 3).trace() == x.trace()


# ---------------------------------------------------------------------------
# squares
# ---------------------------------------------------------------------------

def test_sqrt_of_one(f5):
    assert f5.one.sqrt() in (f5.one, -f5.one)


def test_f9_has_four_nonzero_squares(f2):
    squares = {x for x in f2.nonzero_elements() if x.is_square()}
    assert len(squares) == 4


@pytest.mark.parametrize("m,modulus", [(m, None) for m in range(2, 7)] + NON_PRIMITIVE_FIELDS,
                         ids=[str(m) for m in range(2, 7)]
                         + [f"m{m}-{mod[2:]}" for m, mod in NON_PRIMITIVE_FIELDS])
def test_sqrt_squares_exhaustive(m, modulus):
    """is_square (the parity of log x) holds exactly on the products y y,
    and sqrt inverts squaring there and raises elsewhere, also where the
    table generator is not alpha."""
    f = Field(m, modulus) if modulus else get_field(m)
    assert {x for x in f.elements() if x.is_square()} == {y * y for y in f.elements()}
    for x in f.elements():
        if x.is_square():
            y = x.sqrt()
            assert y * y == x
        else:
            with pytest.raises(errors.NonResidue):
                x.sqrt()


@given(st.integers(min_value=0, max_value=120))
def test_even_powers_are_squares(f5, k):
    x = f5.alpha ** (2 * k)
    assert x.is_square()
    assert x.sqrt() in (f5.alpha ** k, -(f5.alpha ** k))


@pytest.mark.parametrize("m", [8, 13, 14, 15, 27, 40])
def test_sqrt_decides_residuosity_without_is_square(m, monkeypatch):
    """Each branch of sqrt tells squares from non-squares itself: the log
    tables (m = 8, 13) and Tonelli-Shanks (m = 14, 15, 27, 40, past the
    table cap).  At odd m the root is the canonical sign of x^((q+1)/4).
    Tonelli-Shanks's constants are built with the field, so once the
    field exists no path of sqrt runs is_square."""
    f = get_field(m)
    z = next(x for x in f.nonzero_elements() if not x.is_square())
    rng = random.Random(700 + m)
    ys = [f.el(rng.randrange(1, f.q)) for _ in range(6)]

    def no_is_square(self):
        raise AssertionError("sqrt ran is_square")

    monkeypatch.setattr(Fe, "is_square", no_is_square)
    for y in ys:
        r = (y * y).sqrt()
        assert r in (y, -y) and r.code <= (-r).code
        if m % 2:
            p = (y * y) ** ((f.q + 1) // 4)
            assert r == min(p, -p, key=lambda e: e.code)
        with pytest.raises(errors.NonResidue):
            (z * y * y).sqrt()


def test_sqrt_without_tables_every_element(tableless):
    """Field._tonelli_shanks, the packed square root, on a table-less
    field on every x at m = 2..7: every shape of m = L o (L = 1, 2, 4;
    o = 1, 3, 5, 7).  On each square it gives the table field's root,
    canonical sign included, and so does Fe.sqrt; exactly the non-squares
    raise NonResidue."""
    for m in range(2, 8):
        g = get_field(m)
        f = tableless(g)
        for code in range(1, f.q):
            x = f.el(code)
            if g.el(code).is_square():
                want = g.el(code).sqrt().code
                assert _to_code(f._tonelli_shanks(_from_code(code)), m) == want
                y = x.sqrt()
                assert y.code == want and y * y == x
            else:
                with pytest.raises(errors.NonResidue):
                    f._tonelli_shanks(_from_code(code))
                with pytest.raises(errors.NonResidue):
                    x.sqrt()


@pytest.mark.parametrize("m,modulus", [(14, None), (20, None), (40, None), (40, M40_MODULUS)])
def test_packed_sqrt_past_the_cap(m, modulus):
    """Past the table cap, on seeded x and on seeded squares y^2, the root
    squares to x and has the smaller code of +-root, and a non-square
    (by Euler's criterion) raises NonResidue."""
    f = get_field(m, modulus)
    assert f.log is None
    rng = random.Random(900 + m)
    ys = [f.el(rng.randrange(1, f.q)) for _ in range(10)]
    xs = [f.el(rng.randrange(1, f.q)) for _ in range(20)] + [y * y for y in ys]
    roots = 0
    for x in xs:
        if x.is_square():
            r = x.sqrt()
            assert r * r == x and r.code < (-r).code
            roots += 1
        else:
            with pytest.raises(errors.NonResidue):
                x.sqrt()
    assert 10 < roots < len(xs)
    for y in ys:
        assert (y * y).sqrt().code == min(y.code, (-y).code)


@pytest.mark.parametrize("bad", ["one", "minus_one", "seeded"])
def test_tonelli_shanks_loops_are_bounded(bad, monkeypatch):
    """Tonelli-Shanks makes at most e = v_2(q - 1) passes of at most e
    squarings.  At M40 (e = 5), with its constant c replaced by one not of
    order 2^e, sqrt of a square either still returns a root (each pass
    keeps r^2 = x u, whatever c is) or raises IterationCapExceeded at
    once; it neither cycles nor fails with a plain ValueError."""
    f = get_field(40, M40_MODULUS)
    e, t, _ = f._tonelli_shanks_constants
    assert e == 5
    rng = random.Random(4040)
    c = {"one": 1, "minus_one": 2, "seeded": _from_code(rng.randrange(3, f.q))}[bad]
    assert f._ring.pow(c, 1 << (e - 1)) != 2
    monkeypatch.setattr(f, "_tonelli_shanks_constants", (e, t, c))
    raised = 0
    start = time.perf_counter()
    for _ in range(30):
        x = f.el(rng.randrange(1, f.q)) ** 2
        try:
            r = x.sqrt()
        except errors.IterationCapExceeded:
            raised += 1
        else:
            assert r * r == x
    assert raised > 0
    assert time.perf_counter() - start < 5.0


# ---------------------------------------------------------------------------
# Artin-Schreier
# ---------------------------------------------------------------------------

def test_artin_schreier_golden(f5):
    a = f5.alpha ** 31
    ws = f5.solve_artin_schreier(a)
    zs = sorted(w.ninth_root().power_str for w in ws)
    assert zs == ["p:106", "p:16", "p:231"]
    for w in ws:
        assert w ** 3 - w == a


def test_artin_schreier_zero(f5):
    assert sorted(w.code for w in f5.solve_artin_schreier(f5.zero)) == [0, 1, 2]


def test_artin_schreier_nonzero_trace_unsolvable(f5):
    a = next(x for x in f5.nonzero_elements() if x.trace() == 1)
    with pytest.raises(errors.NoSolution):
        f5.solve_artin_schreier(a)


@pytest.mark.parametrize("m", [2, 3, 4, 5])
def test_artin_schreier_solvable_iff_trace_zero(m):
    f = get_field(m)
    for a in f.elements():
        if a.trace() == 0:
            ws = f.solve_artin_schreier(a)
            assert len({w.code for w in ws}) == 3
            assert all(w ** 3 - w == a for w in ws)
        else:
            with pytest.raises(errors.NoSolution):
                f.solve_artin_schreier(a)


@pytest.mark.parametrize("m", [2, 3, 4])
def test_solve_linearized_against_brute_force(m):
    f = get_field(m)
    for c in f.elements():
        image = {}
        for x in f.elements():
            image.setdefault((x ** 3 + c * x).code, []).append(x.code)
        for r in f.elements():
            xs = solve_linearized(f, c, r)
            assert sorted(x.code for x in xs) == image.get(r.code, [])
            if len(xs) == 3:  # [x0, x0 + k, x0 + 2 k]
                assert xs[2] - xs[1] == xs[1] - xs[0]


@pytest.mark.parametrize("m", [2, 3, 4, 5, 6])
def test_artin_schreier_order_exhaustive(m):
    """[w0, w0 + 1, w0 + 2] with w0 the root whose constant term is 0."""
    f = get_field(m)
    roots = {}
    for w in f.elements():
        if w.code % 3 == 0:
            roots[(w ** 3 - w).code] = w
    for a in f.elements():
        if a.trace() == 0:
            w0 = roots[a.code]
            assert f.solve_artin_schreier(a) == [w0, w0 + 1, w0 + 2]


def test_artin_schreier_rejects_foreign_element(f4, f5):
    with pytest.raises(errors.MixedFields):
        f5.solve_artin_schreier(f4.one)


# ---------------------------------------------------------------------------
# string formats
# ---------------------------------------------------------------------------

def test_trit_format_example(f5):
    x = f5.parse("t:20100")
    assert x == 2 + f5.alpha ** 2
    assert x.trit_str == "t:20100"


@pytest.mark.parametrize("m", [5, 14, 40])
def test_trit_str_lists_the_coefficients(m):
    """trit_str is "t:" and the coefficients, x^0 first, on seeded elements."""
    f = get_field(m)
    rng = random.Random(m)
    for x in [f.zero, f.one] + [f.random_element(rng) for _ in range(50)]:
        assert x.trit_str == "t:" + "".join(map(str, x.coeffs))
        assert f.parse(x.trit_str) == x


def test_power_format_roundtrip(f5):
    x = f5.parse("p:31")
    assert x == f5.alpha ** 31
    assert x.power_str == "p:31"
    assert f5.parse(x.trit_str) == x


def test_format_errors(f5):
    for bad in ("t:123", "t:2010", "p:x", "20100", "t:201003"):
        with pytest.raises(errors.FormatError):
            f5.parse(bad)
    for code in (-1, f5.q):
        with pytest.raises(errors.FormatError):
            f5.el(code)


# ---------------------------------------------------------------------------
# group order factorization and the Tonelli-Shanks non-residue
# ---------------------------------------------------------------------------

def test_primitive_alpha_at_m37():
    # 3^37 - 1 = 2 * 13097927 * 17189128703, two large prime factors;
    # alpha is primitive for the modulus x^37 + 2x^6 + 1
    f = Field(37, "t:1000002" + "0" * 30 + "1")
    assert f.group_factors == [2, 13097927, 17189128703]
    assert f.alpha_primitive
    assert f.parse("p:1") == f.alpha


@pytest.mark.parametrize("m", [4, 14, 40])
def test_tonelli_shanks_constants_split_q_and_are_cached(m):
    """q - 1 = 2^e t with t odd, and c = z^t, packed, for the first
    non-square z, so c has order 2^e: c^(2^(e-1)) = -1, with tables
    (m = 4) and past them (m = 14, 40)."""
    f = get_field(m)
    e, t, c = f._tonelli_shanks_constants
    assert (1 << e) * t == f.q - 1 and t % 2 == 1
    assert f._ring.pow(c, 1 << (e - 1)) == 2      # -1, packed
    z = next(x for x in f.nonzero_elements() if not x.is_square())
    assert c == _from_code((z ** t).code)


def test_field_is_complete_when_constructed():
    """Every per-field constant is a plain attribute set by Field.__init__:
    no cached_property or property on Field, the Artin-Schreier operator
    and the Tonelli-Shanks constants present on a fresh field, one shared
    zero, one and alpha, and no attribute written by later use."""
    assert not [k for k, v in vars(Field).items()
                if isinstance(v, (functools.cached_property, property))]
    f = Field(40, "t:21" + "0" * 38 + "1")
    assert {"_artin_schreier_images", "_tonelli_shanks_constants"} <= vars(f).keys()
    assert f.one is f.one and f.zero is f.zero and f.alpha is f.alpha
    state = dict(vars(f))
    x = f.el(random.Random(40).randrange(1, f.q))
    (x * x).sqrt()
    f.solve_artin_schreier(x ** 3 - x)
    assert x.cube_root() ** 3 == x and (x * x).is_square()
    assert vars(f) == state
