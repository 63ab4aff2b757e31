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
The descent expands a node through its division cubic, one equation
u^3 - u = R whose trace test Tr(R) = 0 is also the node's 3-divisibility
test, so each node is decided once; y is carried down from the root
a^(1/3), whose y is a^(1/3) itself, so it takes no square root.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field as dc_field
from typing import List, Optional, Tuple

from .curve import (
    CurveParams,
    _divide,
    div3_obstruction,
    sample_generator_candidate,
    triple_x,
)
from .errors import (
    IterationCapExceeded,
    Ksum3Error,
    NotCycleCase,
    TraceNotZero,
    ZeroParameter,
)
from .field import Fe, Field

HIT_ORDER_THREE = "hit_order_three"
CYCLE = "cycle"


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
    x0 = params.a_cuberoot
    if u1 is None:
        if rng is None:
            rng = random.Random(0)
        u1 = sample_generator_candidate(params, rng).x
    else:
        f._check(u1)
        if u1 != x0 and div3_obstruction(params, u1) == 0:
            raise ZeroParameter(f"u1={u1} is 3-divisible; start condition violated")
    cap = f.q + 1
    seen = {}
    trail: List[Fe] = []
    u = u1
    i = 1
    while True:
        trail.append(u)
        if u.code == x0.code:
            return ValuationReport(k=i, case=HIT_ORDER_THREE, r=None, trail=trail, u1=u1)
        first = seen.get(u.code)
        if first is not None:
            return ValuationReport(
                k=first - 1, case=CYCLE, r=i - first, trail=trail, u1=u1
            )
        seen[u.code] = i
        u = triple_x(params, u)
        i += 1
        if i > cap:
            raise IterationCapExceeded("tripling walk exceeded 3^m + 1 steps")


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
    the complete graph of the cyclic 3-subgroup.

    A node (x, y) has children iff Tr(R) = 0 for the R of its division
    cubic u^3 - u = R (curve._divide, from x and y^(1/3)); for x != 0 this
    is the 3-divisibility test Tr(a y / x^3) = 0, and the cubic is solved
    only for nodes that pass.  The root r = a^(1/3) has y = r, since
    rhs(r) = r^2.  For Q = (x, y) with x^3 != a,
    y(3Q) = (y G(x) / (x^3 - a))^3 with G(x) = x^3 - a - r (x + r), so a
    child x of a node with y-coordinate y_parent has
    y = y_parent^(1/3) (x^3 - a) / G(x).  This holds up to sign
    (3Q = +-parent), which does not change whether the trace is zero.
    y is computed only for the nodes that get expanded.
    """
    f, a, r = params.field, params.a, params.a_cuberoot
    levels: List[List[Fe]] = [[r]]
    edges: List[Tuple[Fe, Fe]] = []
    frontier = [(r, r)]                 # (x, y) of the nodes to expand
    while True:
        nxt: List[Tuple[Fe, Fe]] = []   # (child, y_parent^(1/3))
        for x, y in frontier:
            w = y.cube_root()
            for c in _divide(params, x, w):
                edges.append((x, c))
                nxt.append((c, w))
        if not nxt:
            return DescentGraph(levels=levels, edges=edges)
        levels.append([c for c, _ in nxt])
        if len(levels) > f.m:
            raise IterationCapExceeded("descent deeper than m levels")
        frontier = []
        for x, w in nxt if full else nxt[:1]:
            d = x ** 3 - a
            frontier.append((x, w * d / (d - r * (x + r))))


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
