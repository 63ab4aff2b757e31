"""The elliptic curve E(a): y^2 = x^3 + x^2 - a over GF(3^m).

Affine chord-tangent group law for characteristic 3 with coefficients
(a1, a2, a3, a4, a6) = (0, 1, 0, 0, -a):

    distinct x:  lambda = (y2 - y1) / (x2 - x1)
    tangent:     lambda = x1 / y1          (char 3 kills the 3 x^2 term)
    x3 = lambda^2 - 1 - x1 - x2
    y3 = lambda * (x1 - x3) - y1

These formulas are validated against brute-force point enumeration in the
test suite before anything downstream relies on them.
"""

from __future__ import annotations

import random
from contextlib import suppress
from dataclasses import dataclass
from typing import Iterator, Optional

from .errors import (
    NonResidue,
    NotOnCurve,
    OrderThreePoint,
    PointNotOnCurve,
    SamplingExhausted,
    ZeroParameter,
    ZeroXCoordinate,
)
from .field import Fe, Field, _apply_images, _from_code, _lanes, _to_code

SAMPLE_POINT_CAP = 10_000
GENERATOR_CANDIDATE_CAP = 256


@dataclass(frozen=True, slots=True)
class Point:
    """Affine point or the point at infinity (x = y = None)."""

    x: Optional[Fe]
    y: Optional[Fe]

    @property
    def is_infinity(self) -> bool:
        return self.x is None


INFINITY = Point(None, None)


@dataclass(frozen=True, slots=True)
class CurveParams:
    field: Field
    a: Fe
    a_cuberoot: Fe

    @classmethod
    def make(cls, field: Field, a: Fe) -> "CurveParams":
        field._check(a)
        if not a:
            raise ZeroParameter("E(a) requires a != 0")
        return cls(field=field, a=a, a_cuberoot=a.cube_root())


def rhs(params: CurveParams, x: Fe) -> Fe:
    return x ** 3 + x ** 2 - params.a


def _lift(params: CurveParams, x: Fe) -> Fe:
    """y = sqrt(x^3 + x^2 - a) of the smaller code; NotOnCurve where sqrt
    finds none.  Past the table cap it is one packed body: x and a are
    packed once, the right-hand side and its Tonelli-Shanks root
    (Field._tonelli_shanks) run on packed ints, and y is coded once."""
    f = params.field
    try:
        if f.log is not None:
            return rhs(params, x).sqrt()
        mul, p = f._ring.mul, _from_code(x.code)
        x2 = mul(p, p)
        v = _lanes(mul(x2, p) + x2 + 2 * _from_code(params.a.code))
        return Fe(f, _to_code(f._tonelli_shanks(v), f.m))
    except NonResidue:
        raise NotOnCurve(f"{x} is not the x-coordinate of a point on E(a)") from None


def on_curve(params: CurveParams, p: Point) -> bool:
    if p.is_infinity:
        return True
    return p.y ** 2 == rhs(params, p.x)


def _require_on_curve(params: CurveParams, p: Point):
    if not on_curve(params, p):
        raise PointNotOnCurve(f"{p} not on E({params.a})")


def negate(params: CurveParams, p: Point) -> Point:
    _require_on_curve(params, p)
    if p.is_infinity:
        return p
    return Point(p.x, -p.y)


def add(params: CurveParams, p: Point, q: Point) -> Point:
    _require_on_curve(params, p)
    _require_on_curve(params, q)
    return _add_unchecked(params, p, q)


def _add_unchecked(params: CurveParams, p: Point, q: Point) -> Point:
    if p.is_infinity:
        return q
    if q.is_infinity:
        return p
    if p.x == q.x:
        if p.y != q.y or not p.y:
            return INFINITY  # inverse pair, or doubling an order-2 point
        lam = p.x / p.y
    else:
        lam = (q.y - p.y) / (q.x - p.x)
    x3 = lam ** 2 - 1 - p.x - q.x
    y3 = lam * (p.x - x3) - p.y
    return Point(x3, y3)


def scalar_mul(params: CurveParams, n: int, p: Point) -> Point:
    _require_on_curve(params, p)
    if n < 0:
        n = -n
        p = Point(p.x, -p.y) if not p.is_infinity else p
    acc = INFINITY
    base = p
    while n:
        if n & 1:
            acc = _add_unchecked(params, acc, base)
        base = _add_unchecked(params, base, base)
        n >>= 1
    return acc


def triple_x(params: CurveParams, u: Fe) -> Fe:
    """x-coordinate of 3P from x(P) = u: ((u^3 - a)^3 + a u^3) / (u^3 - a)^2.

    The walk's step, so it builds one Fe.  Past the table cap it is one
    packed body: u and a are packed once, and with d = u^3 - a the value
    is d + a u^3 / d^2, one Frobenius walk for u^3, one inversion
    (Field._chain_inv) and three products, coded once.  With log tables
    it is two Zech-log lookups (Huber, IEEE Trans. Inf. Theory 36, 1990).
    Put n = q - 1, h = n / 2 (g^h = -1), Z the Zech table
    (g^Z[k] = 1 + g^k, Z[h] = -1 marking 0), l = log a and U = 3 log u.
    u = 0 maps to -a = g^(l + h), and U = l is u^3 = a.  Otherwise, as
    g^k - 1 = -(1 + g^(k + h)), d = u^3 - a has log D = l + h + Z[U - l + h],
    and num = d^3 + a u^3 = g^(3D) (1 + g^(l + U - 3D)), so num / d^2 is 0
    where z = Z[l + U - 3D] is -1 and g^(D + z) otherwise (indices mod n)."""
    f, a = params.field, params.a.code
    if f.log is not None:
        log, n = f._log_mv, f.q - 1
        h = n >> 1
        la = log[a]
        if not u.code:
            return Fe(f, f._exp_mv[(la + h) % n])
        U = 3 * log[u.code] % n
        if U == la:
            raise OrderThreePoint("u^3 = a: 3P is the identity, no x-coordinate")
        zech = f._zech_mv
        D = la + h + zech[(U - la + h) % n]
        z = zech[(la + U - 3 * D) % n]
        return Fe(f, 0 if z < 0 else f._exp_mv[(D + z) % n])
    mul, ap = f._ring.mul, _from_code(a)
    u3 = f._frobenius(_from_code(u.code), 0)
    d = _lanes(u3 + 2 * ap)
    if not d:
        raise OrderThreePoint("u^3 = a: 3P is the identity, no x-coordinate")
    dinv = f._chain_inv(d)
    return Fe(f, _to_code(d + mul(mul(ap, u3), mul(dinv, dinv)), f.m))


def _resolvent(params: CurveParams, x: int, w: int) -> tuple:
    """(Tr(R), R, 1/x) as codes for a point (x, y) on E(a), given the codes
    of x and w = y^(1/3): u^3 - u = R is the point's division cubic in
    Artin-Schreier form (_divide derives it), so Tr(R) is zero iff (x, y)
    is 3-divisible.  This is the package's one 3-divisibility test, one
    body on the field's code ops for every field.

    For x != 0, R = A w / x with A = a^(1/3), so R^3 = a y / x^3; the trace
    is Frobenius-invariant, so Tr(R) = Tr(a y / x^3), the trit and not only
    whether it is zero.  Negating y negates R and its trit.  At x = 0,
    R = A w and 1/x is returned as 0, with no inversion.
    """
    f = params.field
    R, xinv = f.code_mul(params.a_cuberoot.code, w), 0
    if x:
        xinv = f.code_inv(x)
        R = f.code_mul(R, xinv)
    return _apply_images(f._trace_images, R) % 3, R, xinv


def div3_obstruction(params: CurveParams, xi: Fe) -> int:
    """Tr(a y / xi^3) for y = sqrt(xi^3 + xi^2 - a), _resolvent's trit;
    zero iff (xi, *) is 3-divisible, whatever the sign of y."""
    if not xi:
        raise ZeroXCoordinate("obstruction undefined at xi = 0")
    w = params.field._code_cube_root(_lift(params, xi).code)
    return _resolvent(params, xi.code, w)[0]


def solve_tripling_cubic(params: CurveParams, xi: Fe) -> list:
    """All x with 3(x, *) having x-coordinate xi, sorted by code ([] if none)."""
    f = params.field
    w = f._code_cube_root(_lift(params, xi).code)
    return [Fe(f, c) for c in _divide(params, xi.code, w)]


def _divide(params: CurveParams, xi: int, w: int) -> list:
    """The root codes, sorted, of the division cubic of a point (xi, y) on
    E(a), given the codes of xi and w = y^(1/3); [] when it has none,
    which is when _resolvent's trit is nonzero.

    With A = a^(1/3) and X = xi^(1/3) the cubic is
    P(x) = x^3 - X x^2 + A (1 - X) x - A^2 (A + X), and w^2 = X^3 + X^2 - A
    as the cube root is a field automorphism.  Each case is one equation
    u^3 - u = R, solvable iff Tr(R) = 0:

      xi = 0:  P(x) = x^3 + A x - a and A = -w^2, so x = w u gives
               w^3 (u^3 - u) = a: R = a / w^3 = A w.
      xi != 0: char 3 kills the cross term of P(t + v), so t = A (1 - 1/X)
               kills its linear term: P(t + v) = d + v^3 - X v^2 with
               d = P(t) = A^2 w^2 / X^3.  Put R = A w / xi.  For w != 0,
               v = k / u with k = A w / X^2 gives u^3 - u = -R, whose three
               solutions multiply to -R: 1 / u = (u^2 - 1) / -R, so
               v = X (1 - u^2).  For w = 0 (an order-2 point) R = 0, and
               u in F_3 gives v in {0, X}, the roots of v^2 (v - X).

    Negating R negates u and keeps u^2, so solving u^3 - u = R gives the
    same roots; for the same reason they do not depend on the sign of w.
    The field's Artin-Schreier operator gives the solution u with constant
    term 0, so the other two are the codes u + 1 and u + 2.  1/xi comes
    from _resolvent, so a division makes at most one inversion.
    """
    f, A = params.field, params.a_cuberoot.code
    mul, add, neg, cube_root = f.code_mul, f.code_add, f.code_neg, f._code_cube_root
    trit, R, xinv = _resolvent(params, xi, w)
    if trit:
        return []
    u = _to_code(_apply_images(f._artin_schreier_images, R), f.m)
    us = (u, u + 1, u + 2)
    if not xi:
        return sorted(mul(w, v) for v in us)
    X = cube_root(xi)
    s, n = add(add(A, neg(mul(A, cube_root(xinv)))), X), neg(X)   # t + X (1 - u^2)
    return sorted({add(s, mul(n, mul(v, v))) for v in us})


def sample_point(params: CurveParams, rng: random.Random) -> Point:
    """Uniform-ish rejection sampling of an affine point."""
    for _ in range(SAMPLE_POINT_CAP):
        x = params.field.random_element(rng)
        with suppress(NotOnCurve):
            return Point(x, _lift(params, x))
    raise SamplingExhausted("no curve point found")  # pragma: no cover


def sample_generator_candidate(params: CurveParams, rng: random.Random) -> Point:
    """A point that is not 3-divisible (the tripling-walk start condition):
    the first sample_point with x != 0 and a nonzero _resolvent trit."""
    cube_root = params.field._code_cube_root
    for _ in range(GENERATOR_CANDIDATE_CAP):
        p = sample_point(params, rng)
        if p.x and _resolvent(params, p.x.code, cube_root(p.y.code))[0]:
            return p
    raise SamplingExhausted(
        f"no non-3-divisible point in {GENERATOR_CANDIDATE_CAP} points")


def enumerate_points(params: CurveParams) -> Iterator[Point]:
    """All points of E(a), infinity first; intended for desk-scale tests."""
    yield INFINITY
    for x in params.field.elements():
        try:
            y = _lift(params, x)
        except NotOnCurve:
            continue
        yield Point(x, y)
        if y:
            yield Point(x, -y)
