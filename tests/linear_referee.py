"""An elimination-based referee for the division cubic and Artin-Schreier
equations, independent of the cached operator in ksum3.field.

`solve_linear_mod3` is the project's only Gaussian elimination: ksum3
builds its Artin-Schreier operator from a closed form (additive Hilbert
90) and solves no linear system, so the elimination is kept here, where
it referees that operator.  `solve_linearized` builds the m x m matrix of
x -> x^3 + c x for each call and runs one `solve_linear_mod3` on it;
`cubic_roots` reduces the division cubic to it without the Artin-Schreier
substitution that ksum3.curve uses.  `trace_basis` referees the field's
trace by Newton's identities, without its table of conjugates.
"""

from typing import Optional, Sequence

from ksum3.curve import rhs
from ksum3.errors import NotOnCurve
from ksum3.field import LANE, Fe, _from_code, _lanes, _to_code


def trace_basis(field) -> list:
    """tr_basis[j] = Tr(alpha^j) in {0,1,2}; trace is F_3-linear.  These
    are the power sums of the roots of the modulus f, from Newton's
    identities p_k = -(k f_{m-k} + sum_{i<k} f_{m-i} p_{k-i})."""
    f, m = field.modulus, field.m
    p = [m % 3]
    for k in range(1, m):
        p.append(-(k * f[m - k] + sum(f[m - i] * p[k - i] for i in range(1, k))) % 3)
    return p


def solve_linear_mod3(cols: Sequence[int], rhs: int, n: int) -> Optional[tuple]:
    """Solve sum_j v_j * cols[j] = rhs over F_3: (v, kernel), or None.

    cols[j] is the packed image of the j-th basis vector and rhs a packed
    vector, each with n lanes reduced mod 3; v and the kernel vectors are
    packed too, with len(cols) lanes.  One bytes transpose makes each of
    the n rows a packed int: lane j holds column j, lane len(cols) the
    right-hand side.  v has every free variable set to zero, so the answer
    is deterministic.  kernel is a basis of the null space, one vector per
    free variable (that variable 1, the other free ones 0), in column order.

    Lanes are reduced lazily: only a pivot row is reduced, and entries are
    read mod 3.  Each row operation adds at most 2 * 2 to a lane, so lanes
    stay at most 2 + 4 * (pivots so far) <= 2 + 4 * 63 < 2^LANE while
    min(n, len(cols)) <= 63.
    """
    k = len(cols)
    flat = b"".join(c.to_bytes(n, "little") for c in (*cols, rhs))
    rows = [int.from_bytes(flat[i::n], "little") for i in range(n)]
    pivots = []
    for col in range(k):
        at = LANE * col
        row = len(pivots)
        piv = next((r for r in range(row, n) if (rows[r] >> at & 255) % 3), None)
        if piv is None:
            continue
        prow = _lanes(rows[piv])
        if prow >> at & 255 == 2:
            prow = _lanes(2 * prow)
        rows[piv] = rows[row]
        rows[row] = prow
        for r in range(n):
            fac = (rows[r] >> at & 255) % 3
            if r != row and fac:
                rows[r] += (3 - fac) * prow
        pivots.append(col)
    rows = [_lanes(r) for r in rows]
    if any(rows[len(pivots):]):     # a zero row with a nonzero right-hand side
        return None
    v = 0
    for r, col in enumerate(pivots):
        v |= (rows[r] >> LANE * k & 255) << LANE * col
    kernel = []
    for free in sorted(set(range(k)) - set(pivots)):
        vec = 1 << LANE * free
        for r, col in enumerate(pivots):
            vec |= -(rows[r] >> LANE * free & 255) % 3 << LANE * col
        kernel.append(vec)
    return v, kernel


def solve_linearized(f, c, r) -> list:
    """All x in f with x^3 + c x = r (c and r elements or ints).

    x -> x^3 + c x is F_3-linear, so the solutions are the particular
    one x0 (free variables zero) plus the kernel, which is {0} or
    {0, k, 2k}: [] when there is none, else [x0] or [x0, x0 + k, x0 + 2k].
    """
    c, r = f.zero._co(c), f.zero._co(r)
    ring, m = f._ring, f.m
    cols, cx = [], _from_code(c.code)       # cx = c alpha^j
    for j in range(m):
        frob = ring.pow(1 << LANE * j, 3)   # alpha^(3j)
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
