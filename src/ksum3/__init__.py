"""Kloosterman sums over GF(3^m): exact 3-adic valuation without the sum.

The engine is the descent: repeated 3-division on the elliptic curve
y^2 = x^3 + x^2 - a, polynomial in m, whose depth is the valuation.  The
paper's x-only tripling walk is kept for `kval` and `scan`; the
brute-force oracle validates everything at desk scale.  See the README
for the CLI surface.
"""

from . import errors
from .curve import INFINITY, CurveParams, Point
from .field import Fe, Field, get_field
from .moduli import BUILTIN_MODULI
from .oracle import KloostermanValue, curve_order, kloosterman_sum, val3
from .tower import (
    Embedding,
    TowerReport,
    adjudicate_k3,
    build_extension,
    k3_identity_check,
    rel_trace,
    subfield_nonzero_scan,
    lifting_law_check,
)
from .valuation import (
    CYCLE,
    HIT_ORDER_THREE,
    DescentGraph,
    ValuationReport,
    descent,
    div9,
    div27,
    is_kloosterman_zero,
    kval,
    cycle_bounds,
    x0_x1_from_z,
)

__version__ = "0.1.0"
