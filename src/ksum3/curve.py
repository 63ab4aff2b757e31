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


def _lift(params: CurveParams, x: Fe) -> Fe:
    """y = sqrt(x^3 + x^2 - a) of the smaller code; NotOnCurve where sqrt finds none."""
    try:
        return rhs(params, x).sqrt()
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
    return _obstruction(params, xi, _lift(params, xi))


def solve_tripling_cubic(params: CurveParams, xi: Fe) -> list:
    """All x with 3(x, *) having x-coordinate xi, sorted by code ([] if none)."""
    return _divide(params, xi, _lift(params, xi).cube_root())


def _divide(params: CurveParams, xi: Fe, w: Fe) -> list:
    """The roots, sorted by code, of the division cubic of a point (xi, y)
    on E(a), given w = y^(1/3); [] when it has none.  Since R^3 = a y / xi^3
    below, this is the descent's one test of whether (xi, y) is 3-divisible.

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
    """
    A = params.a_cuberoot
    R = A * w
    if xi:
        xinv = xi.inv()
        R *= xinv
    if R.trace():
        return []
    us = params.field.solve_artin_schreier(R)
    if not xi:
        return sorted((w * u for u in us), key=lambda e: e.code)
    X = xi.cube_root()
    s, n = A * (1 - xinv.cube_root()) + X, -X            # t + X (1 - u^2)
    return sorted({s + n * u * u for u in us}, key=lambda e: e.code)


def sample_point(params: CurveParams, rng: random.Random) -> Point:
    """Uniform-ish rejection sampling of an affine point."""
    for _ in range(SAMPLE_POINT_CAP):
        x = params.field.random_element(rng)
        with suppress(NotOnCurve):
            return Point(x, _lift(params, x))
    raise SamplingExhausted("no curve point found")  # pragma: no cover


def sample_generator_candidate(params: CurveParams, rng: random.Random) -> Point:
    """A point that is not 3-divisible (the tripling-walk start condition):
    x != 0, (x, *) on the curve, and div3_obstruction(x) != 0."""
    for _ in range(GENERATOR_CANDIDATE_CAP):
        x = params.field.random_element(rng)
        if not x:
            continue
        with suppress(NotOnCurve):
            y = _lift(params, x)
            if _obstruction(params, x, y):
                return Point(x, y)
    raise SamplingExhausted(
        f"no non-3-divisible point in {GENERATOR_CANDIDATE_CAP} attempts")


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
