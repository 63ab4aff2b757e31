"""An elimination-based referee for the division cubic and Artin-Schreier
equations, independent of the cached operator in ksum3.field.

`solve_linearized` builds the m x m matrix of x -> x^3 + c x for each call
and runs one `solve_linear_mod3` on it; `cubic_roots` reduces the division
cubic to it without the Artin-Schreier substitution that ksum3.curve uses.
"""

from ksum3.curve import rhs
from ksum3.errors import NotOnCurve
from ksum3.field import LANE, Fe, _from_code, _lanes, _to_code, solve_linear_mod3


def solve_linearized(f, c, r) -> list:
    """All x in f with x^3 + c x = r (c and r elements or ints).

    x -> x^3 + c x is F_3-linear, so the solutions are the particular
    one x0 (free variables zero) plus the kernel, which is {0} or
    {0, k, 2k}: [] when there is none, else [x0] or [x0, x0 + k, x0 + 2k].
    """
    c, r = f.zero._co(c), f.zero._co(r)
    ring, m = f._ring, f.m
    cols, cx = [], _from_code(c.code)       # cx = c alpha^j
    for frob in f._power_columns(3):        # alpha^(3j)
        cols.append(_lanes(frob + cx))      # image of alpha^j
        cx <<= LANE                         # times alpha; x^m = neg_low mod f
        cx = _lanes((cx & ring.low) + (cx >> LANE * m) * ring.neg_low)
    sol = solve_linear_mod3(cols, _from_code(r.code), m)
    if sol is None:
        return []
    v, kernel = sol
    xs = [v]
    for k in kernel:                        # lanes reduced by _to_code
        xs = [x + e * k for e in range(3) for x in xs]
    return [Fe(f, _to_code(x, m)) for x in xs]


def cubic_roots(params, xi) -> list:
    """All x with 3(x, *) having x-coordinate xi, sorted by code: the
    distinct roots of P(x) = x^3 + c2 x^2 + c1 x + c0 with c2 = -xi^(1/3),
    c1 = (a(1 - xi))^(1/3), c0 = -(a^2 (a + xi))^(1/3).  Char 3 kills the
    cross term, so P(t + y) = P(t) + y^3 + c2 y^2 + (2 c2 t + c1) y:

      c2 = 0:  x^3 + c1 x = -c0 is linear in x.
      c2 != 0: t = c1 / c2 kills the y term; d = P(t).  If d = 0 the roots
               are t and t - c2.  Else y = 1/z gives z^3 + (c2/d) z = -1/d
               and the roots are t + 1/z.
    """
    field = params.field
    if not rhs(params, xi).is_square():
        raise NotOnCurve(f"{xi} is not the x-coordinate of a point on E(a)")
    A, X = params.a_cuberoot, xi.cube_root()
    c2 = -X
    c1 = A * (1 - X)
    c0 = -(A * A * (A + X))
    if not c2:
        roots = solve_linearized(field, c1, -c0)
    else:
        t = c1 / c2
        d = ((t + c2) * t + c1) * t + c0
        if not d:
            roots = [t, t - c2]
        else:
            dinv = d.inv()
            roots = [t + z.inv() for z in solve_linearized(field, c2 * dinv, -dinv)]
    return sorted(roots, key=lambda e: e.code)
