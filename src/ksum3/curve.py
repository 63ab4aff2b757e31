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
from dataclasses import dataclass
from typing import Iterator, Optional

from .errors import (
    NotOnCurve,
    OrderThreePoint,
    PointNotOnCurve,
    SamplingExhausted,
    ZeroParameter,
    ZeroXCoordinate,
)
from .field import Fe, Field

SAMPLE_POINT_CAP = 10_000
GENERATOR_CANDIDATE_CAP = 256


@dataclass(frozen=True)
class Point:
    """Affine point or the point at infinity (x = y = None)."""

    x: Optional[Fe]
    y: Optional[Fe]

    @property
    def is_infinity(self) -> bool:
        return self.x is None


INFINITY = Point(None, None)


@dataclass(frozen=True)
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

    The walk's step, so it works on element codes and builds one Fe."""
    f, a = params.field, params.a.code
    u3 = f.code_pow(u.code, 3)
    d = f.code_add(u3, f.code_neg(a))
    if not d:
        raise OrderThreePoint("u^3 = a: 3P is the identity, no x-coordinate")
    num = f.code_add(f.code_pow(d, 3), f.code_mul(a, u3))
    return Fe(f, f.code_mul(num, f.code_inv(f.code_pow(d, 2))))


def _obstruction(params: CurveParams, x: Fe, y: Fe) -> int:
    """Tr(a y / x^3) for a point (x, y) with x != 0; zero iff it is
    3-divisible.  Zero-ness does not depend on the sign of y."""
    return (params.a * y / x ** 3).trace()


def div3_obstruction(params: CurveParams, xi: Fe) -> int:
    """Tr(a sqrt(xi^3 + xi^2 - a) / xi^3); zero iff (xi, *) is 3-divisible.

    Zero-ness does not depend on the square-root sign: Tr(-t) = -Tr(t).
    """
    if not xi:
        raise ZeroXCoordinate("obstruction undefined at xi = 0")
    f = rhs(params, xi)
    if not f.is_square():
        raise NotOnCurve(f"{xi} is not the x-coordinate of a point on E(a)")
    return _obstruction(params, xi, f.sqrt())


def solve_tripling_cubic(params: CurveParams, xi: Fe) -> list:
    """All x with 3(x, *) having x-coordinate xi, sorted by code: the
    distinct roots of P(x) = x^3 + c2 x^2 + c1 x + c0 with c2 = -xi^{1/3},
    c1 = (a(1 - xi))^{1/3}, c0 = -(a^2 (a + xi))^{1/3}; [] when the point
    is not 3-divisible.  Char 3 kills the cross term, so
    P(t + y) = P(t) + y^3 + c2 y^2 + (2 c2 t + c1) y, and one F_3-linear
    solve (Field.solve_linearized) finds the roots:

      c2 = 0:  x^3 + c1 x = -c0 is linear in x.
      c2 != 0: t = c1 / c2 kills the y term; d = P(t).  If d = 0 the roots
               are t and t - c2 (an order-2 point xi: two preimages share
               an x-coordinate).  Else y = 1/z gives z^3 + (c2/d) z = -1/d
               and the roots are t + 1/z.
    """
    field = params.field
    if not rhs(params, xi).is_square():
        raise NotOnCurve(f"{xi} is not the x-coordinate of a point on E(a)")
    a = params.a
    c2 = -(xi.cube_root())
    c1 = (a * (1 - xi)).cube_root()
    c0 = -((a ** 2 * (a + xi)).cube_root())
    if not c2:
        roots = field.solve_linearized(c1, -c0)
    else:
        t = c1 / c2
        d = ((t + c2) * t + c1) * t + c0
        if not d:
            roots = [t, t - c2]
        else:
            dinv = d.inv()
            roots = [t + z.inv() for z in field.solve_linearized(c2 * dinv, -dinv)]
    return sorted(roots, key=lambda e: e.code)


def sample_point(params: CurveParams, rng: random.Random) -> Point:
    """Uniform-ish rejection sampling of an affine point."""
    field = params.field
    for _ in range(SAMPLE_POINT_CAP):
        x = field.random_element(rng)
        f = rhs(params, x)
        if f.is_square():
            return Point(x, f.sqrt())
    raise SamplingExhausted("no curve point found")  # pragma: no cover


def sample_generator_candidate(params: CurveParams, rng: random.Random) -> Point:
    """A point that is not 3-divisible (the tripling-walk start condition):
    x != 0, (x, *) on the curve, and div3_obstruction(x) != 0."""
    field = params.field
    for _ in range(GENERATOR_CANDIDATE_CAP):
        x = field.random_element(rng)
        if not x:
            continue
        f = rhs(params, x)
        if not f.is_square():
            continue
        y = f.sqrt()
        if _obstruction(params, x, y):
            return Point(x, y)
    raise SamplingExhausted(
        f"no non-3-divisible point in {GENERATOR_CANDIDATE_CAP} attempts")


def enumerate_points(params: CurveParams) -> Iterator[Point]:
    """All points of E(a), infinity first; intended for desk-scale tests."""
    yield INFINITY
    for x in params.field.elements():
        f = rhs(params, x)
        if not f:
            yield Point(x, params.field.zero)
        elif f.is_square():
            y = f.sqrt()
            yield Point(x, y)
            yield Point(x, -y)
