"""Exact 3-adic valuation of K(a) via the tripling walk on E(a).

The walk starts from the x-coordinate of a point that is not 3-divisible
and applies the x-only tripling map.  It ends in one of two ways:

  hit_order_three  the walk reaches a^{1/3} (the order-3 x-coordinate)
                   at step k; when k = m this means K(a) = 0.
  cycle            a value repeats; the pre-period has length exactly k
                   and the period r is the gap between the occurrences.

Either way 3^k exactly divides K(a).  The module also carries the cheap
divisibility tests (by 9 via the trace, by 27 via the z-parametrization)
and the level-by-level descent that rebuilds the cyclic 3-subgroup graph.
The descent decides each node it expands once, by curve._resolvent's
trit (see `descent`), and carries y down from the root, so it takes no
square root.  With log tables it expands each node on discrete logs
(_log_steps: a product is a sum of logs, a sum one Zech lookup); element
codes appear only for _resolvent's trit, the Artin-Schreier walk of its
R and the children the graph records.  Past the tables the same level
loop expands on the field's code ops (_code_steps).
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field as dc_field
from typing import List, Optional, Tuple

from . import curve as _curve
from .curve import (
    CurveParams,
    _divide,
    div3_obstruction,
    sample_generator_candidate,
    triple_x,
)
from .errors import (
    CapExceeded,
    IterationCapExceeded,
    Ksum3Error,
    NotCycleCase,
    TraceNotZero,
    ZeroParameter,
)
from .field import Fe, Field

HIT_ORDER_THREE = "hit_order_three"
CYCLE = "cycle"

# The most nodes one descent expands: a full graph of depth 10, (3^10 - 1) / 2
# nodes, fits, and the full graph of a zero past m = 10 does not.
DESCENT_NODE_CAP = 3 ** 10


@dataclass
class ValuationReport:
    k: int
    case: str                      # HIT_ORDER_THREE or CYCLE
    r: Optional[int]               # cycle period, cycle case only
    trail: List[Fe]                # u_1, u_2, ... up to termination
    u1: Fe

    @property
    def kloosterman_is_zero(self) -> bool:
        return self.case == HIT_ORDER_THREE and self.k == self.trail[0].field.m


def kval(
    params: CurveParams,
    rng: Optional[random.Random] = None,
    u1: Optional[Fe] = None,
) -> ValuationReport:
    """Valuation of K(a): run the tripling walk until it resolves.

    u1 defaults to a sampled non-3-divisible x-coordinate; passing it
    explicitly (it must satisfy the start condition) reproduces a given
    walk exactly.
    """
    f = params.field
    if u1 is None:
        if rng is None:
            rng = random.Random(0)
        u1 = sample_generator_candidate(params, rng).x
    else:
        f._check(u1)
        if div3_obstruction(params, u1) == 0:
            raise ZeroParameter(f"u1={u1} is 3-divisible; start condition violated")
    # code -> element in walk order, the trail so far.  Each pass stores a
    # new code, so the walk ends within q steps.
    hit = params.a_cuberoot.code
    seen = {}
    u = u1
    while (c := u.code) not in seen and c != hit:
        seen[c] = u
        u = triple_x(params, u)
    trail = [*seen.values(), u]
    if c == hit:
        return ValuationReport(k=len(trail), case=HIT_ORDER_THREE, r=None, trail=trail, u1=u1)
    first = list(seen).index(c)
    return ValuationReport(k=first, case=CYCLE, r=len(seen) - first, trail=trail, u1=u1)


def is_kloosterman_zero(params: CurveParams) -> bool:
    """K(a) = 0 iff the descent is m levels deep.

    The depth is the valuation of K(a), and |K(a)| <= 2 * 3^(m/2) < 3^m,
    so 3^m | K(a) only when K(a) = 0.
    """
    return descent(params).t == params.field.m


def div9(field: Field, a: Fe) -> bool:
    """9 | K(a) iff trace(a) = 0."""
    field._check(a)
    if not a:
        raise ZeroParameter("a must be nonzero")
    return a.trace() == 0


def x0_x1_from_z(field: Field, z: Fe) -> Tuple[Fe, Fe]:
    """For a = z^27 - z^9: the first two descent x-coordinates,
    x_0 = z^9 - z^3 and x_1 = (z^4 - 1)(z^3 - 1) z^2."""
    field._check(z)
    return z ** 9 - z ** 3, (z ** 4 - 1) * (z ** 3 - 1) * z ** 2


def div27(field: Field, a: Fe) -> bool:
    """27 | K(a), decided from the z-parametrization of a = z^27 - z^9.

    Requires trace(a) = 0 (else the question is ill-posed and TraceNotZero
    is raised).  The verdict is Tr(z^5 (z-1)(z+1)^7 / (z^2+1)^3) = 0 for
    z = w^{1/9}, w^3 - w = a.  The ninth root is additive and fixes F_3,
    so the three choices of z are z0, z0 + 1, z0 + 2.  None lies in F_3
    (a != 0), and at most one is a root of z^2 + 1 (the roots differ by
    2i, which is not in F_3), so at least two verdicts exist; they must
    agree.
    """
    field._check(a)
    if not a:
        raise ZeroParameter("a must be nonzero")
    if a.trace() != 0:
        raise TraceNotZero("27 | K(a) test requires trace(a) = 0")
    z0 = field.solve_artin_schreier(a)[0].ninth_root()
    verdicts = []
    for z in (z0, z0 + 1, z0 + 2):
        den = z ** 2 + 1
        if den:
            expr = z ** 5 * (z - 1) * (z + 1) ** 7 / den ** 3
            verdicts.append(expr.trace() == 0)
    if len(set(verdicts)) != 1:
        raise Ksum3Error(f"z-choice disagreement in div27 for a={a}: {verdicts}")
    return verdicts[0]


@dataclass
class DescentGraph:
    """Levels of x-coordinates under repeated 3-division, rooted at a^{1/3}."""

    levels: List[List[Fe]]
    edges: List[Tuple[Fe, Fe]] = dc_field(default_factory=list)

    @property
    def t(self) -> int:
        return len(self.levels)

    def to_dot(self) -> str:
        """Plain DOT digraph; node names are trit strings, labels prefer
        the power-of-alpha form when the field supports it."""
        lines = ["digraph descent {"]
        for level in self.levels:
            for node in level:
                label = node.power_str or node.trit_str
                lines.append(f'  "{node.trit_str}" [label="{label}"];')
        for parent, child in self.edges:
            lines.append(f'  "{parent.trit_str}" -> "{child.trit_str}";')
        lines.append("}")
        return "\n".join(lines)


def descent(params: CurveParams, full: bool = False) -> DescentGraph:
    """Build the descent graph; its depth t equals the valuation of K(a).

    Default policy expands one node per level (the smallest in the
    canonical trit ordering); full=True expands every node, reproducing
    the complete graph of the cyclic 3-subgroup.  Expanding more than
    DESCENT_NODE_CAP nodes in all raises CapExceeded before the level that
    would pass it; a graph of depth t holds (3^t - 1) / 2 nodes.

    A node (x, y) has children iff it is 3-divisible, which curve._divide
    decides from x and y^(1/3) by the trit of curve._resolvent, solving
    the division cubic only for nodes that pass.  The root r = a^(1/3) has
    y = r, since rhs(r) = r^2, so _resolvent's value at (r, r) is
    R = a^(1/3) r^(1/3) / r = a^(1/9), and Tr(a^(1/9)) = Tr(a): an a with
    Tr(a) != 0 (9 does not divide K(a)) has the one-level graph, decided
    by that trace alone with no cube root, inversion or cubic.
    For Q = (x, y) with x^3 != a,
    y(3Q) = (y G(x) / (x^3 - a))^3 with G(x) = x^3 - a - r (x + r), so a
    child x of a node with y-coordinate y_parent has
    y = y_parent^(1/3) (x^3 - a) / G(x), exactly: 3 (x, y) is the parent
    point itself, not its negative.  y is computed only for the nodes
    that get expanded.  The level loop is one for every field; a node is
    expanded by _log_steps with log tables and by _code_steps past them.
    Either way an Fe is made only for the nodes the graph records.
    """
    f, r = params.field, params.a_cuberoot
    levels: List[List[Fe]] = [[r]]
    edges: List[Tuple[Fe, Fe]] = []
    if params.a.trace():
        return DescentGraph(levels=levels, edges=edges)
    y, divide, lift = (_code_steps if f.log is None else _log_steps)(params)
    frontier = [(r, y)]                 # (node, its y) to expand, y as the steps hold it
    expanded = 0
    while True:
        expanded += len(frontier)
        if expanded > DESCENT_NODE_CAP:
            raise CapExceeded(f"descent would expand more than {DESCENT_NODE_CAP} nodes")
        nxt: List[Tuple[Fe, int]] = []  # (child, w = y_parent^(1/3))
        for x, y in frontier:
            w, codes = divide(x.code, y)
            for c in codes:
                child = Fe(f, c)
                edges.append((x, child))
                nxt.append((child, w))
        if not nxt:
            return DescentGraph(levels=levels, edges=edges)
        levels.append([c for c, _ in nxt])
        if len(levels) > f.m:
            raise IterationCapExceeded("descent deeper than m levels")
        frontier = [(x, lift(x.code, w)) for x, w in (nxt if full else nxt[:1])]


def _code_steps(params: CurveParams) -> tuple:
    """The descent's node steps on the field's code ops, y and w held as
    codes: (the root's y, divide, lift).  divide(x, y) is (w, child codes)
    with w = y^(1/3), by curve._divide; lift(c, w) is the y of a child c."""
    f, rc = params.field, params.a_cuberoot.code
    mul, add, neg = f.code_mul, f.code_add, f.code_neg
    neg_a = neg(params.a.code)

    def divide(x: int, y: int) -> tuple:
        w = f._code_cube_root(y)
        return w, _divide(params, x, w)

    def lift(c: int, w: int) -> int:
        d = add(f.code_pow(c, 3), neg_a)
        g = add(d, neg(mul(rc, add(c, rc))))
        return mul(mul(w, d), f.code_inv(g))

    return rc, divide, lift


def _log_steps(params: CurveParams) -> tuple:
    """_code_steps on discrete logs, the y's and w's as logs to the table
    generator g, with the tables bound to locals.  Put n = q - 1, h = n / 2
    (g^h = -1) and Z the Zech table (g^Z[k] = 1 + g^k, Z[h] = -1 marking
    0), indices mod n: a product is a sum of logs, a cube root a product
    by 3^(m-1), and g^p + g^q = g^(p + Z[q - p]).  No y or w is 0 (a node
    has order a power of 3, not 2).  Codes appear where they must:
    curve._resolvent's trit, the Artin-Schreier walk of its R, and the
    child codes.  divide follows curve._divide's closed form: at x = 0 the
    children are w u, else t + X (1 - u^2) with X = x^(1/3) and
    t + X = A (1 - 1/X) + X, A = a^(1/3), for u, u + 1, u + 2 solving
    u^3 - u = R; R != 0, so none of them is 0.  lift carries
    y = w (c^3 - a) / G(c), where c^3 != a and G(c) != 0."""
    f = params.field
    exp, log, zech = f._exp_mv, f._log_mv, f._zech_mv
    n, third = f.q - 1, f.q // 3
    h = n >> 1
    la, lr = log[params.a.code], log[params.a_cuberoot.code]
    resolvent, artin_schreier = _curve._resolvent, f._code_artin_schreier

    def divide(x: int, ly: int) -> tuple:
        lw = ly * third % n
        trit, R, _ = resolvent(params, x, exp[lw])
        if trit:
            return lw, []
        u = artin_schreier(R)
        if not x:
            return lw, sorted(exp[(lw + log[v]) % n] for v in (u, u + 1, u + 2))
        lx = log[x] * third % n
        z = zech[(h - lx) % n]                  # 1 - 1/X = g^z
        if z < 0:                               # X = 1, so t + X = X
            ls = lx
        else:                                   # A (1 - 1/X) + X, None for 0
            z2 = zech[(lx - lr - z) % n]
            ls = None if z2 < 0 else lr + z + z2
        ln = lx + h                             # -X
        children = set()
        for v in (u, u + 1, u + 2):
            lt = ln + 2 * log[v]
            if ls is None:
                children.add(exp[lt % n])
            else:
                z = zech[(lt - ls) % n]
                children.add(0 if z < 0 else exp[(ls + z) % n])
        return lw, sorted(children)

    def lift(c: int, lw: int) -> int:
        if c:
            lc = log[c]
            ld = 3 * lc + zech[(la + h - 3 * lc) % n]   # c^3 - a
            z = zech[(lr - lc) % n]                      # c + r = g^(lc + z)
            lcr = None if z < 0 else lc + z
        else:
            ld, lcr = la + h, lr
        lg = ld if lcr is None else ld + zech[(lr + lcr + h - ld) % n]
        return (lw + ld - lg) % n

    return lr, divide, lift


def cycle_bounds(report: ValuationReport, field: Field) -> Tuple[int, int]:
    """(3^k (2r + 1), 3^m - 3^k (2r + 1)) from a cycle report.

    The first entry is a valid lower bound on |E(a)|.  Since
    K(a) = |E(a)| - 3^m, what it implies for the sum is the lower bound
    K(a) >= -(second entry); the second entry bounds -K(a) from above,
    not K(a) itself (counterexamples with K > 0 exist at m = 4).
    """
    if report.case != CYCLE:
        raise NotCycleCase("bounds require a cycle-terminated report")
    lower = 3 ** report.k * (2 * report.r + 1)
    return lower, field.q - lower
