"""The packed-integer arithmetic of fields past the table cap.

Small fields are checked exhaustively against their log tables; large ones
on seeded samples against a schoolbook multiply written here, and moduli
against sympy.
"""

import itertools
import random

import pytest
from sympy import Poly, factorint, symbols
from sympy.polys.domains import ZZ
from sympy.polys.galoistools import gf_pow_mod

from ksum3.field import Field, _from_code, _to_code, get_field, is_irreducible
from ksum3.moduli import BUILTIN_MODULI

M14 = "t:210000000000001"
M40 = "t:21" + "0" * 38 + "1"


def schoolbook_mul(a, b, modulus):
    """Product of two coefficient tuples, then reduction mod the monic modulus."""
    m = len(modulus) - 1
    prod = [0] * (2 * m - 1)
    for i, ai in enumerate(a):
        for j, bj in enumerate(b):
            prod[i + j] += ai * bj
    for k in range(2 * m - 2, m - 1, -1):
        top = prod[k] % 3
        for i, c in enumerate(modulus):
            prod[k - m + i] -= top * c
    return tuple(c % 3 for c in prod[:m])


def schoolbook_pow(a, e, modulus):
    result = (1,) + (0,) * (len(modulus) - 2)
    for bit in bin(e)[2:]:
        result = schoolbook_mul(result, result, modulus)
        if bit == "1":
            result = schoolbook_mul(result, a, modulus)
    return result


# ---------------------------------------------------------------------------
# exhaustive against the log tables, m = 2..5
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("m", [2, 3, 4, 5])
def test_packed_products_match_log_tables(m):
    f = get_field(m)
    packed = [_from_code(c) for c in range(f.q)]
    for a, b in itertools.product(range(f.q), repeat=2):
        assert _to_code(f._ring.mul(packed[a], packed[b]), m) == f.code_mul(a, b)


@pytest.mark.parametrize("m", [2, 3, 4, 5])
def test_packed_inverse_powers_and_cube_root_match_log_tables(m):
    f = get_field(m)
    exponents = [2, 3, (f.q - 1) // 2, 3 ** (m - 1)]
    for a in range(f.q):
        p = _from_code(a)
        assert _to_code(p, m) == a
        for e in exponents:
            assert _to_code(f._ring.pow(p, e), m) == f.code_pow(a, e)
        assert f._linear_cube_root(a) == f.el(a).cube_root().code
        if a:
            assert _to_code(f._ring.inv(p), m) == f.code_inv(a)


@pytest.mark.parametrize("modulus", ["t:101", "t:2011", "t:2221", "t:10111", "t:20201"])
def test_tables_from_a_non_primitive_alpha(modulus):
    """alpha is not primitive, so the exp table is built by packed products
    with a searched generator: each entry is the previous one times it."""
    f = Field(len(modulus) - 3, modulus)
    assert not f.alpha_primitive
    assert sorted(f.exp.tolist()) == list(range(1, f.q))
    gen = f.el(f.generator_code).coeffs
    for x, y in zip(f.exp.tolist(), f.exp[1:].tolist()):
        assert schoolbook_mul(f.el(x).coeffs, gen, f.modulus) == f.el(y).coeffs


# ---------------------------------------------------------------------------
# seeded samples past the table cap
# ---------------------------------------------------------------------------

DENSE33 = "t:2210011201101122020111021001012201"   # a dense irreducible modulus


@pytest.fixture(scope="module", params=[(14, M14), (27, None), (33, DENSE33), (40, M40)],
                ids=["m14", "m27", "m33dense", "m40"])
def big(request):
    m, modulus = request.param
    f = get_field(m, modulus)
    assert f.exp is None
    rng = random.Random(1000 + m)
    return f, [f.el(rng.randrange(1, f.q)) for _ in range(12)]


def test_mul_matches_schoolbook(big):
    f, xs = big
    for x, y in zip(xs, xs[1:] + xs[:1]):
        assert (x * y).coeffs == schoolbook_mul(x.coeffs, y.coeffs, f.modulus)


def test_inverse(big):
    f, xs = big
    for x in xs:
        assert x * x.inv() == f.one


def test_cube_and_ninth_roots_invert_frobenius(big):
    f, xs = big
    for x in xs:
        assert x.frobenius().cube_root() == x
        assert x.cube_root() ** 3 == x
        assert x.ninth_root() ** 9 == x


def test_is_square_matches_euler_criterion(big):
    f, xs = big
    one = (1,) + (0,) * (f.m - 1)
    for x in xs[:4] + [x * x for x in xs[4:6]]:
        euler = schoolbook_pow(x.coeffs, (f.q - 1) // 2, f.modulus)
        assert x.is_square() == (euler == one)


# ---------------------------------------------------------------------------
# irreducibility and the builtin moduli, against sympy
# ---------------------------------------------------------------------------

X = symbols("x")


def sympy_irreducible(coeffs):
    return Poly(list(reversed(coeffs)), X, modulus=3).is_irreducible


@pytest.mark.parametrize("m", [2, 3, 4, 5, 6])
def test_is_irreducible_matches_sympy(m):
    for low in itertools.product(range(3), repeat=m):
        poly = low + (1,)
        assert is_irreducible(poly) == sympy_irreducible(poly), poly


def test_builtin_moduli_cover_every_degree():
    assert sorted(BUILTIN_MODULI) == list(range(2, 41))


@pytest.mark.parametrize("m", range(2, 41))
def test_builtin_modulus_is_primitive(m):
    coeffs = tuple(int(c) for c in BUILTIN_MODULI[m][2:])
    assert len(coeffs) == m + 1 and coeffs[-1] == 1
    assert sympy_irreducible(coeffs)
    high_first = list(reversed(coeffs))
    for p in factorint(3 ** m - 1):
        assert gf_pow_mod([1, 0], (3 ** m - 1) // p, high_first, 3, ZZ) != [1]
