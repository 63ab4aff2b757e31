"""Extension-field lifting of Kloosterman sums.

GF(3^m) embeds into GF(3^{mn}); the lifted sum K_n(a) runs over the big
field with the absolute trace.  Writing H and H_n for the 3-adic
valuations of K(a) and K_n(a) (zero conventions m and mn respectively),
the lifting law is H_n(a) = H(a) + h where n = 3^h * s, gcd(s, 3) = 1.

Valuations come from the descent, which needs no sum over the field; the
brute-force oracle cross-checks them wherever it can run.

The degree-3 lift also satisfies a closed-form identity in K(a); two
candidate forms differing by 3q are adjudicated numerically here rather
than assumed (see adjudicate_k3).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Tuple

from .curve import CurveParams
from .errors import CapExceeded, Ksum3Error, NoRootFound
from .field import TABLE_CAP, Fe, Field, get_field
from .oracle import kloosterman_sum, val3
from .valuation import descent, is_kloosterman_zero


@dataclass(frozen=True)
class Embedding:
    """Field homomorphism GF(3^m) -> GF(3^{mn}) fixing F_3, determined by
    a root beta of the base modulus in the extension."""

    base: Field
    ext: Field
    beta: Fe
    beta_powers: Tuple[Fe, ...]

    def __call__(self, x: Fe) -> Fe:
        self.base._check(x)
        acc = self.ext.zero
        for c, p in zip(x.coeffs, self.beta_powers):
            if c:
                acc = acc + c * p
        return acc


def _find_root(base: Field, ext: Field) -> Fe:
    """Smallest-code root of the base modulus inside the extension.

    Every root lies in the embedded copy of the base field, whose nonzero
    elements are the powers of gamma = g^{(q_ext - 1)/(q_base - 1)} for a
    generator g of the extension, so only those q_base - 1 are evaluated.
    """
    mod = base.modulus
    g = ext.el(ext.generator_code)
    gamma = g ** ((ext.q - 1) // (base.q - 1))
    best = None
    cur = ext.one
    for _ in range(base.q - 1):
        acc = ext.zero
        for c in reversed(mod):
            acc = acc * cur + c
        if not acc and (best is None or cur.code < best.code):
            best = cur
        cur = cur * gamma
    if best is None:
        raise NoRootFound("base modulus has no root in the extension")
    return best


def build_extension(base: Field, n: int) -> Tuple[Field, Embedding]:
    """GF(3^{mn}) with an embedding of the base field.

    The extension gets its own builtin modulus; the embedding map carries
    all the relative structure.
    """
    if n < 2:
        raise CapExceeded("extension degree n must be >= 2")
    mn = base.m * n
    if 3 ** mn > TABLE_CAP:
        raise CapExceeded(f"extension GF(3^{mn}) exceeds the table cap {TABLE_CAP}")
    ext = get_field(mn)
    beta = _find_root(base, ext)
    powers = [ext.one]
    for _ in range(base.m - 1):
        powers.append(powers[-1] * beta)
    return ext, Embedding(base=base, ext=ext, beta=beta, beta_powers=tuple(powers))


@dataclass(frozen=True)
class TowerReport:
    m: int
    n: int
    h: int                    # 3-adic valuation of n
    s: int                    # co-3 part of n
    H: int                    # valuation of K(a) in the base field
    H_n: int                  # valuation of K_n(a) in the extension
    consistent: bool          # H_n == H + h


def _checked_depth(field: Field, a: Fe, oracle_cap: int, where: str) -> int:
    """Descent depth of a, checked against the oracle when q <= oracle_cap."""
    t = descent(CurveParams.make(field, a)).t
    if field.q <= oracle_cap:
        v = val3(kloosterman_sum(field, a).value, field.m)
        if t != v:
            raise Ksum3Error(f"descent disagrees with oracle on {where}: {t} vs {v}")
    return t


def lifting_law_check(
    base: Field, a: Fe, n: int, oracle_cap: int = TABLE_CAP
) -> TowerReport:
    """Compare the valuation of K_n(embed(a)) against H(a) + v3(n).

    Valuations come from the descent; wherever the brute-force sum is
    affordable it is run too and must agree, else Ksum3Error is raised.
    """
    ext, emb = build_extension(base, n)     # CapExceeded for n < 2; at n = 0 the split never ends
    h, s = 0, n
    while s % 3 == 0:
        s //= 3
        h += 1
    H = _checked_depth(base, a, oracle_cap, "base field")
    H_n = _checked_depth(ext, emb(a), oracle_cap, "extension")
    return TowerReport(m=base.m, n=n, h=h, s=s, H=H, H_n=H_n, consistent=H_n == H + h)


def k3_identity_check(base: Field, a: Fe) -> Tuple[int, int, int]:
    """(oracle K_3(a), printed-identity rhs, corrected-variant rhs).

    printed:   K^3 - 3 K^2 + 3 K - 3 q K
    variant:   (K - 1)^3 - 3 q (K - 1) + 1     (= printed + 3 q)
    """
    ext, emb = build_extension(base, 3)
    K = kloosterman_sum(base, a).value
    q = base.q
    K3 = kloosterman_sum(ext, emb(a)).value
    printed = K ** 3 - 3 * K ** 2 + 3 * K - 3 * q * K
    variant = (K - 1) ** 3 - 3 * q * (K - 1) + 1
    return K3, printed, variant


def adjudicate_k3(base: Field) -> dict:
    """Scan every a in the base field and report which closed form for
    K_3(a) matches the brute-force lift: "printed", "variant", or "split"."""
    printed_ok = True
    variant_ok = True
    witnesses = []
    for a in base.nonzero_elements():
        k3, printed, variant = k3_identity_check(base, a)
        if k3 != printed:
            printed_ok = False
        if k3 != variant:
            variant_ok = False
        witnesses.append((a.trit_str, k3, printed, variant))
    if printed_ok:
        winner = "printed"     # the forms differ by 3q != 0, so never both
    elif variant_ok:
        winner = "variant"
    else:
        winner = "split"
    return {"m": base.m, "winner": winner, "witnesses": witnesses}


def subfield_nonzero_scan(base: Field, n: int) -> List[Fe]:
    """Embedded elements of the base field whose lifted Kloosterman sum
    vanishes; expected empty for every tower."""
    ext, emb = build_extension(base, n)
    return [a for a in base.nonzero_elements()
            if is_kloosterman_zero(CurveParams.make(ext, emb(a)))]
