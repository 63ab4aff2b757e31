"""The packed-integer arithmetic of fields past the table cap, and the
scalar code ops of fields with tables.

Small fields are checked exhaustively against their log tables; large ones
on seeded samples against a schoolbook multiply written here, and moduli
against sympy.  The table fields' scalar ops (Zech-log add and neg, log
mul, inv and pow) are checked against a digit-wise add and the schoolbook
multiply.  The referee's packed Gaussian elimination (linear_referee.py)
is checked against brute force over F_3^k, and by substitution on systems
of up to 63 unknowns; the field's closed-form Artin-Schreier operator is
checked against it at every builtin m, and its trace and cube-root maps
against Newton's identities and packed powers.
"""

import hashlib
import itertools
import os
import random
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from sympy import Poly, factorint, symbols
from sympy.polys.domains import ZZ
from sympy.polys.galoistools import gf_pow_mod

from ksum3.errors import CapExceeded, FormatError
from ksum3.field import (
    LANE,
    Field,
    _Ring,
    _apply_images,
    _chunk_images,
    _from_code,
    _lanes,
    _to_code,
    _tonelli_shanks_split,
    get_field,
    is_irreducible,
)
from ksum3.moduli import BUILTIN_MODULI, GROUP_FACTORS
from linear_referee import solve_linear_mod3, solve_linearized, trace_basis

M14 = "t:210000000000001"
M40 = "t:21" + "0" * 38 + "1"
M37 = "t:1000002" + "0" * 30 + "1"


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


def digit_add(a, b, m):
    """Sum of two element codes, digit by digit mod 3."""
    return sum((a // 3 ** i + b // 3 ** i) % 3 * 3 ** i for i in range(m))


def digit_neg(a, m):
    return sum(-(a // 3 ** i) % 3 * 3 ** i for i in range(m))


def trits(code, m):
    return tuple(code // 3 ** i % 3 for i in range(m))


def untrits(coeffs):
    return sum(c * 3 ** i for i, c in enumerate(coeffs))


# ---------------------------------------------------------------------------
# scalar code ops of table fields against the references
# ---------------------------------------------------------------------------

NON_PRIMITIVE = ["t:101", "t:2011", "t:2221", "t:10111", "t:20201"]
NON_PRIMITIVE_FIELDS = [(len(t) - 3, t) for t in NON_PRIMITIVE]
TABLE_FIELDS = [(m, None) for m in (2, 3, 4, 5)] + NON_PRIMITIVE_FIELDS


def check_scalar_ops(f, pairs):
    """add and mul on each pair (a, b); neg, inv and pow on each a, with
    exponents 0..3, -1, q - 2, and b and -b of a's first pair."""
    m, n = f.m, f.q - 1
    one = trits(1, m)
    exponents = {}
    for a, b in pairs:
        ta = trits(a, m)
        assert f.code_add(a, b) == digit_add(a, b, m)
        assert f.code_mul(a, b) == untrits(schoolbook_mul(ta, trits(b, m), f.modulus))
        exponents.setdefault(a, {0, 1, 2, 3, b, -b, n - 1, -1})
    for a, es in exponents.items():
        ta = trits(a, m)
        assert f.code_neg(a) == digit_neg(a, m)
        if a:
            assert schoolbook_mul(ta, trits(f.code_inv(a), m), f.modulus) == one
        for e in es:
            if a or e >= 0:
                assert f.code_pow(a, e) == untrits(schoolbook_pow(ta, e % n if a else e, f.modulus))


@pytest.mark.parametrize("m,modulus", TABLE_FIELDS, ids=[f"m{m}-{t}" for m, t in TABLE_FIELDS])
def test_table_scalar_ops_every_pair(m, modulus):
    f = Field(m, modulus) if modulus else get_field(m)
    assert f.exp is not None
    check_scalar_ops(f, itertools.product(range(f.q), repeat=2))


@pytest.mark.parametrize("m", [8, 10, 12])
def test_table_scalar_ops_seeded_pairs(m):
    f = get_field(m)
    rng = random.Random(2000 + m)
    check_scalar_ops(f, [(rng.randrange(f.q), rng.randrange(f.q)) for _ in range(400)])


@pytest.mark.parametrize("m,modulus", TABLE_FIELDS + [(8, None), (10, None)],
                         ids=[f"m{m}-{t}" for m, t in TABLE_FIELDS] + ["m8-None", "m10-None"])
def test_zech_edge_cases(m, modulus):
    f = Field(m, modulus) if modulus else get_field(m)
    n = f.q - 1
    zech = f._zech_mv
    assert [k for k in range(n) if zech[k] < 0] == [n // 2]   # 1 + g^k = 0 only at -1
    assert f.code_add(0, 0) == 0
    assert f.code_add(1, 2) == 0
    assert f.code_neg(0) == 0
    for a in range(1, min(f.q, 2000)):
        neg = f.code_neg(a)
        assert f.code_add(a, neg) == f.code_add(neg, a) == 0
        assert f.code_add(a, 0) == f.code_add(0, a) == a
        assert f.code_add(a, a) == neg


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
        assert _to_code(_apply_images(f._cube_root_images, a), m) == f.code_pow(a, 3 ** (m - 1))
        if a:
            assert _to_code(f._chain_inv(p), m) == f.code_inv(a)


@pytest.mark.parametrize("m,modulus", [(m, None) for m in range(2, 8)] + NON_PRIMITIVE_FIELDS,
                         ids=[f"m{m}" for m in range(2, 8)]
                         + [f"m{m}-{mod[2:]}" for m, mod in NON_PRIMITIVE_FIELDS])
def test_chain_inverse_and_tonelli_shanks_power_match_log_tables(m, modulus):
    """The Frobenius-power chains equal the log-table inverse and power
    x^((t-1)/2), q - 1 = 2^e t with t odd, on every nonzero element."""
    f = Field(m, modulus) if modulus else get_field(m)
    _, t, _ = f._tonelli_shanks_constants
    for a in range(1, f.q):
        p = _from_code(a)
        assert _to_code(f._chain_inv(p), m) == f.code_inv(a)
        assert _to_code(f._tonelli_shanks_power(p), m) == f.code_pow(a, (t - 1) // 2)


@pytest.mark.parametrize("m", range(2, 41))
def test_chains_at_every_degree(m):
    """t = B sum_(j<o) 3^(L j), L = m & -m, o = m / L and B odd: the split
    _tonelli_shanks_power chains; and both chains against x x^(-1) = 1 and
    the binary power on seeded elements, at every builtin m, so at every
    (L, o) the degrees up to M_CAP have (o = 1 at m = 16 and 32)."""
    f = get_field(m)
    e, t, _ = f._tonelli_shanks_constants
    L, o, B = _tonelli_shanks_split(m, e)
    assert L * o == m and L & (L - 1) == 0 and o % 2 == 1 and B % 2 == 1
    assert B * sum(3 ** (L * j) for j in range(o)) == t
    rng = random.Random(3000 + m)
    for _ in range(3):
        p = _from_code(rng.randrange(1, f.q))
        assert f._ring.mul(f._chain_inv(p), p) == 1
        assert f._tonelli_shanks_power(p) == f._ring.pow(p, (t - 1) // 2)


@pytest.mark.parametrize("modulus", NON_PRIMITIVE)
def test_tables_from_a_non_primitive_alpha(modulus):
    """alpha is not primitive, so the exp table is the powers of a searched
    generator: it holds every nonzero code once, and each entry is the
    previous one times the generator."""
    f = Field(len(modulus) - 3, modulus)
    assert not f.alpha_primitive
    assert sorted(f.exp.tolist()) == list(range(1, f.q))
    gen = f.el(f.generator_code).coeffs
    for x, y in zip(f.exp.tolist(), f.exp[1:].tolist()):
        assert schoolbook_mul(f.el(x).coeffs, gen, f.modulus) == f.el(y).coeffs
    with pytest.raises(FormatError):   # p:<k> names a power of alpha
        f.parse("p:1")


# sha256 over the dtype and bytes of exp, log, the Zech table and trace_table,
# in that order, of every builtin table field and the non-primitive ones,
# pinned when the exp table was built one packed product per entry.
TABLE_DIGESTS = {
    2: "4d73f13937b2096a25e1135f4fcd669b114908b78e857417580b0f6fe4f7d929",
    3: "60fe7bb74a3ca61ce6793982a8e7ec1747c3f4224b1c0fd53bbae00198abaf3c",
    4: "310380f1dd189129650f92b3ff8d5c23cc47462ce4b5042cb4a8a6e803fba742",
    5: "39b78dfccab6ad46f6e861b16f8824833b6122c57f2848ef3813297d3bb4157a",
    6: "4a243b6591434ffb0688e499892cdf94d3f8aacfa2f2e6d853ec7ff5cbd841b2",
    7: "3246effafe9ab0531799300fe33c5a1ae32929c762993b6cd3bbfdbf71576761",
    8: "c295dca21786998f561ddff0880d056ca6da557f27b06529a07f0a42eafde011",
    9: "243779dd2542b039ee71952bf1417dc3e42348d6545d2e58b1bc4cc9a2e09772",
    10: "72dcef0d6c9829f6418ffd330f13806a8021e76c3875196c4a78b241e227f02b",
    11: "5098e0f91b0c4056bf49bbc1b41a22c8040cc50ff52a6485d43fda46ba75ccd2",
    12: "09f4ef98658165b04d0d3a394c7bb29979d749c027dd3fa315909891cb8d2fc4",
    13: "f3bbebb61dba21e63c5ed4285ec83550f0ec129e3ed2d228203e82b7849ccb0b",
    "t:101": "a0dce9ced754b2f0fcd48aec2d29c3ef76e43e80cbff50101a7e46c2f2259d24",
    "t:2011": "d35d50dd3d03e76db9737ceb804be446705f1675ef08afb36190d97b6aabb865",
    "t:2221": "0ad78166defe8acb5ab8ffcdb50d333b0d7dc43cc49ece5098e19c5ac08f2a2e",
    "t:10111": "18eafc66740cf3d827aaa563524c7f1b378fa9f6d9366ac2621f74196df0b70d",
    "t:20201": "875b5066d493fa0fdaa76fb719ed3b00ecb951c100b051ee94c66505c6a78096",
}


@pytest.mark.parametrize("key", list(TABLE_DIGESTS))
def test_table_digest(key):
    f = get_field(key) if isinstance(key, int) else get_field(len(key) - 3, key)
    h = hashlib.sha256()
    for table in (f.exp, f.log, np.asarray(f._zech_mv), f.trace_table):
        h.update(table.dtype.str.encode())
        h.update(table.tobytes())
    assert h.hexdigest() == TABLE_DIGESTS[key]


def test_table_build_makes_few_packed_products(monkeypatch):
    """The exp table doubles, so building a table field takes O(m^2 + m log q)
    packed products, not one per element (q - 1 = 59,048 at m = 10)."""
    calls = 0
    mul = _Ring.mul

    def counting_mul(self, a, b):
        nonlocal calls
        calls += 1
        return mul(self, a, b)

    monkeypatch.setattr(_Ring, "mul", counting_mul)
    Field(10, BUILTIN_MODULI[10])
    assert calls <= 3000


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


def test_add_and_neg_match_digit_wise(big):
    f, xs = big
    codes = [0] + [x.code for x in xs]
    for a in codes:
        assert f.code_neg(a) == digit_neg(a, f.m)
        assert f.code_add(a, f.code_neg(a)) == 0
        for b in codes:
            assert f.code_add(a, b) == digit_add(a, b, f.m)


def test_inverse(big):
    f, xs = big
    for x in xs:
        assert x * x.inv() == f.one
        assert 2 / x == 2 * x.inv()


def test_vectorized_ops_need_tables(big):
    f, xs = big
    with pytest.raises(CapExceeded):
        f.mul_codes([x.code for x in xs], 2)
    with pytest.raises(CapExceeded):
        f.pow_codes([x.code for x in xs], 3)


def test_chain_inverse_and_tonelli_shanks_power(big):
    """The Frobenius-power chains against x x^(-1) = 1 and the binary power
    x^((t-1)/2), q - 1 = 2^e t with t odd."""
    f, xs = big
    _, t, _ = f._tonelli_shanks_constants
    for x in xs:
        p = _from_code(x.code)
        assert f._ring.mul(f._chain_inv(p), p) == 1
        assert f._tonelli_shanks_power(p) == f._ring.pow(p, (t - 1) // 2)


def test_cube_and_ninth_roots_invert_frobenius(big):
    f, xs = big
    for x in xs:
        assert (x ** 3).cube_root() == x
        assert x.cube_root() ** 3 == x
        assert x.ninth_root() ** 9 == x


def test_is_square_matches_euler_criterion(big):
    f, xs = big
    one = (1,) + (0,) * (f.m - 1)
    for x in xs[:4] + [x * x for x in xs[4:6]]:
        euler = schoolbook_pow(x.coeffs, (f.q - 1) // 2, f.modulus)
        assert x.is_square() == (euler == one)


@pytest.mark.parametrize("m,modulus", [(14, M14), (20, None), (27, None), (40, None), (40, M40)])
def test_is_square_chain_matches_binary_power(m, modulus):
    """Past the tables is_square is the chain x^(sum_(j<m) 3^j); it agrees
    with the binary power x^((q-1)/2) = 1, on squares and non-squares."""
    f = get_field(m, modulus)
    assert f.exp is None
    rng = random.Random(2000 + m)
    xs = [f.el(rng.randrange(1, f.q)) for _ in range(12)]
    verdicts = set()
    for x in xs + [x * x for x in xs[:4]]:
        euler = f.code_pow(x.code, (f.q - 1) // 2) == 1
        assert x.is_square() == euler
        verdicts.add(euler)
    assert verdicts == {False, True}


def test_solve_linearized_m40_recovers_x():
    f = get_field(40, M40)
    rng = random.Random(4040)
    cs = [f.zero, -f.one] + [f.el(rng.randrange(1, f.q)) for _ in range(10)]
    for c in cs:
        x = f.el(rng.randrange(f.q))
        r = x ** 3 + c * x
        ys = solve_linearized(f, c, r)
        assert x in ys
        assert len({y.code for y in ys}) == len(ys) in (1, 3)
        assert all(y ** 3 + c * y == r for y in ys)


@pytest.mark.parametrize("m,modulus", [(13, None), (14, M14), (20, None), (27, None),
                                       (40, None), (40, M40)])
def test_artin_schreier_operator_matches_elimination(m, modulus):
    """The cached operator returns the elimination's solutions, in order."""
    f = get_field(m, modulus)
    rng = random.Random(5000 + m)
    for _ in range(12):
        x = f.el(rng.randrange(f.q))
        a = x ** 3 - x
        assert f.solve_artin_schreier(a) == solve_linearized(f, -1, a)


def elimination_images(f):
    """The operator's chunk tables as an elimination builds them: image j is
    the solution, with the one free variable (the constant term) zero, of
    u^3 - u = alpha^j - (Tr(alpha^j) / Tr(alpha^j0)) alpha^j0, j0 the first
    j with Tr(alpha^j) != 0."""
    m, tr = f.m, f._tr_basis
    cols = [_lanes(f._ring.pow(1 << LANE * j, 3) + (2 << LANE * j)) for j in range(m)]
    j0 = next(j for j in range(m) if tr[j])
    # Tr(alpha^j) / Tr(alpha^j0) = tr[j] tr[j0] in F_3
    rhs = [_lanes((1 << LANE * j) + (-tr[j] * tr[j0] % 3 << LANE * j0)) for j in range(m)]
    return _chunk_images([solve_linear_mod3(cols, r, m)[0] for r in rhs])


OPERATOR_FIELDS = [(m, None) for m in range(2, 41)] + [(14, M14), (40, M40), (37, M37)]


@pytest.mark.parametrize("m,modulus", OPERATOR_FIELDS + NON_PRIMITIVE_FIELDS,
                         ids=[f"m{m}-{'builtin' if mod is None else 'other'}"
                              for m, mod in OPERATOR_FIELDS]
                         + [f"m{m}-{mod[2:]}" for m, mod in NON_PRIMITIVE_FIELDS])
def test_artin_schreier_images_match_elimination(m, modulus):
    """The maps read off the table of conjugates equal their referees,
    table for table: the closed-form operator the elimination's, the trace
    basis Newton's identities, the cube root the powers (alpha^j)^(3^(m-1)),
    and Frobenius power i the powers (alpha^j)^(3^(2^i)) for 2^i < m."""
    f = get_field(m, modulus)
    assert f._artin_schreier_images == elimination_images(f)
    assert f._tr_basis == trace_basis(f)
    roots = [f._ring.pow(1 << LANE * j, 3 ** (m - 1)) for j in range(m)]
    assert f._cube_root_images == _chunk_images(roots)
    assert len(f._frobenius_images) == (m - 1).bit_length()
    for i, images in enumerate(f._frobenius_images):
        assert images == _chunk_images([f._ring.pow(1 << LANE * j, 3 ** (1 << i)) for j in range(m)])


@pytest.mark.parametrize("m", [14, 39, 40])
def test_chunk_image_lanes_stay_below_4m(m):
    """The largest lane of a sum of one image per chunk is at most 4 m."""
    f = get_field(m)
    for chunks in (f._cube_root_images, f._artin_schreier_images, f._trace_images):
        top = [0] * m
        for images in chunks:
            lanes = zip(*(v.to_bytes(m, "little") for v in images))
            top = [t + max(lane) for t, lane in zip(top, lanes)]
        assert max(top) <= 4 * m


# ---------------------------------------------------------------------------
# the packed elimination against brute force over F_3^k
# ---------------------------------------------------------------------------

def pack(vec):
    return int.from_bytes(bytes(vec), "little")


def unpack(p, k):
    return tuple(p.to_bytes(k, "little"))


def combine(cols, v, n):
    return tuple(sum(c[i] * x for c, x in zip(cols, v)) % 3 for i in range(n))


def seeded_system(rng, k, n, rank_deficient, consistent):
    cols = [tuple(rng.randrange(3) for _ in range(n)) for _ in range(k)]
    if rank_deficient and k > 1:   # one column a combination of the others
        j = rng.randrange(k)
        others = [c for i, c in enumerate(cols) if i != j]
        cols[j] = combine(others, [rng.randrange(3) for _ in others], n)
    if consistent:
        rhs = combine(cols, [rng.randrange(3) for _ in range(k)], n)
    else:
        rhs = tuple(rng.randrange(3) for _ in range(n))
    return cols, rhs


SHAPES = [(k, k) for k in range(1, 6)] + [(1, 3), (2, 4), (3, 5), (2, 5), (4, 2), (5, 3)]


@pytest.mark.parametrize("k,n", SHAPES, ids=[f"k{k}n{n}" for k, n in SHAPES])
def test_solve_linear_mod3_against_brute_force(k, n):
    rng = random.Random(100 * k + n)
    systems = [([(0,) * n] * k, (0,) * n), ([(0,) * n] * k, (1,) + (0,) * (n - 1))]
    for i in range(60):
        systems.append(seeded_system(rng, k, n, rank_deficient=i % 2 == 1,
                                     consistent=i % 3 != 2))
    outcomes = set()
    for cols, rhs in systems:
        solutions = {v for v in itertools.product(range(3), repeat=k)
                     if combine(cols, v, n) == rhs}
        # column j is free iff it lies in the span of the columns before it
        free = [j for j in range(k)
                if any(combine(cols[:j], u, n) == cols[j]
                       for u in itertools.product(range(3), repeat=j))]
        sol = solve_linear_mod3([pack(c) for c in cols], pack(rhs), n)
        if sol is None:
            assert not solutions
            outcomes.add("none")
            continue
        v, kernel = unpack(sol[0], k), [unpack(w, k) for w in sol[1]]
        assert all(v[j] == 0 for j in free)
        assert len(kernel) == len(free)
        for w, j in zip(kernel, free):
            assert [w[i] for i in free] == [int(i == j) for i in free]
        span = {tuple((x + sum(t * w[i] for t, w in zip(ts, kernel))) % 3
                      for i, x in enumerate(v))
                for ts in itertools.product(range(3), repeat=len(kernel))}
        assert span == solutions
        outcomes.add("kernel" if kernel else "unique")
    expected = {"none", "kernel"} | ({"unique"} if k <= n else set())
    assert expected <= outcomes


def full_rank_rows(rng, rows, r, width):
    """rows random vectors of the given width, r of them (at random
    places) the unit vectors e_0..e_{r-1}, so the matrix has rank r."""
    out = [[rng.randrange(3) for _ in range(width)] for _ in range(rows)]
    for i, at in enumerate(rng.sample(range(rows), r)):
        out[at] = [int(j == i) for j in range(width)]
    return out


def rank_r_columns(rng, n, k, r):
    """k columns of length n spanning a space of rank exactly r, all 0 at
    coordinate n - 1: A B with A (n x r) of full column rank, its last row
    zero, and B (r x k) of full row rank."""
    a = full_rank_rows(rng, n - 1, r, r) + [[0] * r]
    b_cols = full_rank_rows(rng, k, r, r)              # the k columns of B
    return [tuple(sum(x * y for x, y in zip(row, bc)) % 3 for row in a) for bc in b_cols]


def check_solution(cols, rhs, n, rank=None):
    """Substitute the solver's answer: v solves the system, each kernel
    vector maps to 0 and is 1 at its own free variable (its highest
    nonzero entry) and 0 at the others', and v is 0 at every free one."""
    k = len(cols)
    sol = solve_linear_mod3([pack(c) for c in cols], pack(rhs), n)
    assert sol is not None
    v, kernel = unpack(sol[0], k), [unpack(w, k) for w in sol[1]]
    assert combine(cols, v, n) == rhs
    free = [max(j for j in range(k) if w[j]) for w in kernel]
    assert free == sorted(set(free))
    for w, j in zip(kernel, free):
        assert combine(cols, w, n) == (0,) * n
        assert [w[i] for i in free] == [int(i == j) for i in free]
    assert all(v[j] == 0 for j in free)
    if rank is not None:
        assert len(kernel) == k - rank


@pytest.mark.parametrize("n", [40, 63])
def test_solve_linear_mod3_by_substitution(n):
    """Square systems past the sizes brute force reaches, where lanes left
    unreduced between pivots grow the most."""
    k = n
    rng = random.Random(n)
    for _ in range(4):   # dense, consistent
        cols = [tuple(rng.randrange(3) for _ in range(n)) for _ in range(k)]
        check_solution(cols, combine(cols, [rng.randrange(3) for _ in range(k)], n), n)
    twos = [(2,) * n] * k
    check_solution(twos, (1,) * n, n, rank=1)
    assert solve_linear_mod3([pack(c) for c in twos], pack((1,) * (n - 1) + (0,)), n) is None
    for r in (1, n // 2, n - 1):   # rank deficient; coordinate n - 1 outside the span
        cols = rank_r_columns(rng, n, k, r)
        check_solution(cols, combine(cols, [rng.randrange(3) for _ in range(k)], n), n, rank=r)
        rhs = combine(cols, [rng.randrange(3) for _ in range(k)], n)[:-1] + (rng.randrange(1, 3),)
        assert solve_linear_mod3([pack(c) for c in cols], pack(rhs), n) is None
    dense = [tuple(rng.randrange(3) for _ in range(n - 1)) + (0,) for _ in range(k)]
    rhs = tuple(rng.randrange(3) for _ in range(n - 1)) + (1,)
    assert solve_linear_mod3([pack(c) for c in dense], pack(rhs), n) is None


def test_solve_linear_mod3_largest_lane():
    """63 pivots each add 2 * 2 to the right-hand side of the last row,
    which is never a pivot row: its lane reaches 2 + 4 * 63 = 254."""
    k, n = 63, 64
    cols = [tuple(int(i == j or i == k) for i in range(n)) for j in range(k)]
    rhs = (2,) * k + (2,)
    check_solution(cols, (2,) * k + (0,), n, rank=k)
    assert solve_linear_mod3([pack(c) for c in cols], pack(rhs), n) is None


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


def test_group_factors_match_sympy():
    assert sorted(GROUP_FACTORS) == list(range(2, 41))
    for m, primes in GROUP_FACTORS.items():
        assert primes == sorted(factorint(3 ** m - 1)), m


def test_fields_past_the_tables_do_not_import_numpy():
    """numpy serves only the tables and the oracle's whole-field passes:
    importing ksum3 and building a field past the table cap must not load
    it."""
    code = ("import sys, ksum3\n"
            f"ksum3.get_field(40, {M40!r})\n"
            "assert 'numpy' not in sys.modules\n")
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    subprocess.run([sys.executable, "-c", code], env=env, check=True)


def test_runtime_does_not_import_sympy():
    """sympy is a test and regeneration tool only: importing ksum3,
    building a field and running a descent must not load it."""
    code = ("import sys, ksum3\n"
            "f = ksum3.get_field(10)\n"
            "ksum3.descent(ksum3.CurveParams.make(f, f.alpha))\n"
            "assert 'sympy' not in sys.modules\n")
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    subprocess.run([sys.executable, "-c", code], env=env, check=True)
