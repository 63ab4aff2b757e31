import itertools
import random

import pytest
from hypothesis import given, strategies as st

from ksum3 import errors
from ksum3.field import Fe, Field, get_field, is_irreducible
from linear_referee import solve_linearized


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


@pytest.mark.parametrize("m", [2, 3, 4, 5])
def test_trace_class_sizes(m):
    f = get_field(m)
    counts = [0, 0, 0]
    for x in f.elements():
        counts[x.trace()] += 1
    assert counts == [f.q // 3] * 3


@pytest.mark.parametrize("m, modulus", [(m, None) for m in range(2, 13)]
                         + [(40, "t:21" + "0" * 38 + "1")])
def test_trace_of_basis_is_sum_of_conjugates(m, modulus):
    # reference for the trace basis: Tr(x) = x + x^3 + ... + x^(3^(m-1))
    f = get_field(m, modulus)
    for j in range(m):
        x = f.alpha ** j
        acc = x
        for _ in range(m - 1):
            x = x ** 3
            acc = acc + x
        assert acc.code == (f.alpha ** j).trace()  # acc lies in F_3


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


@pytest.mark.parametrize("m", [2, 3, 4, 5])
def test_sqrt_squares_exhaustive(m):
    f = get_field(m)
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


@pytest.mark.parametrize("m", [8, 13, 14, 15, 40])
def test_sqrt_decides_residuosity_without_is_square(m, monkeypatch):
    """Each branch of sqrt tells squares from non-squares itself: the log
    tables (m = 8, 13), the power x^((q+1)/4) (odd m = 15) and
    Tonelli-Shanks (even m = 14, 40, past the table cap).  Only the search
    for Tonelli-Shanks's cached constants runs is_square, so it is warmed."""
    f = get_field(m)
    f._tonelli_shanks_constants
    z = next(x for x in f.nonzero_elements() if not x.is_square())
    rng = random.Random(700 + m)
    ys = [f.el(rng.randrange(1, f.q)) for _ in range(6)]

    def no_is_square(self):
        raise AssertionError("sqrt ran is_square")

    monkeypatch.setattr(Fe, "is_square", no_is_square)
    for y in ys:
        r = (y * y).sqrt()
        assert r in (y, -y) and r.code <= (-r).code
        with pytest.raises(errors.NonResidue):
            (z * y * y).sqrt()


def test_sqrt_even_degree_no_tables():
    # exercises the Tonelli-Shanks fallback path
    f = Field(4, get_field(4).modulus)
    f.log = None
    f.exp = None
    for x in list(f.elements())[:30]:
        if x.is_square() and x:
            y = x._tonelli_shanks()
            assert y * y == x


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


def test_power_format_roundtrip(f5):
    x = f5.parse("p:31")
    assert x == f5.alpha ** 31
    assert x.power_str == "p:31"
    assert f5.parse(x.trit_str) == x


def test_format_errors(f5):
    for bad in ("t:123", "t:2010", "p:x", "20100", "t:201003"):
        with pytest.raises(errors.FormatError):
            f5.parse(bad)


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
    """q - 1 = 2^e t with t odd, and c = z^t for the first non-square z,
    so c has order 2^e: c^(2^(e-1)) = -1."""
    f = Field(m, get_field(m).modulus)
    f.log = None
    f.exp = None
    consts = f._tonelli_shanks_constants
    assert consts is f._tonelli_shanks_constants
    e, t, c = consts
    assert (1 << e) * t == f.q - 1 and t % 2 == 1
    assert c ** (1 << (e - 1)) == -f.one
    z = next(x for x in f.nonzero_elements() if not x.is_square())
    assert c == z ** t
