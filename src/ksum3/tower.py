"""Extension-field lifting of Kloosterman sums.

GF(3^m) embeds into GF(3^{mn}); the lifted sum K_n(a) runs over the big
field with the absolute trace.  Writing H and H_n for the 3-adic
valuations of K(a) and K_n(a) (zero conventions m and mn respectively),
the lifting law is H_n(a) = H(a) + h where n = 3^h * s, gcd(s, 3) = 1.

Valuations come from the descent, which needs no sum over the field; the
brute-force oracle cross-checks them wherever it can run.

One (extension, embedding) pair is built per (base field, n); its root
search stops at the first root found and takes its least conjugate.

The degree-3 lift also satisfies a closed-form identity in K(a); two
candidate forms differing by 3q are adjudicated numerically here rather
than assumed (see adjudicate_k3).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
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

    def __call__(self, x: Fe) -> Fe:
        self.base._check(x)
        return _horner(x.coeffs, self.beta)


def _horner(coeffs, x: Fe) -> Fe:
    """sum_i coeffs[i] x^i, constant term first, by Horner's rule."""
    acc = x.field.zero
    for c in reversed(coeffs):
        acc = acc * x + c
    return acc


def _find_root(base: Field, ext: Field) -> Fe:
    """Smallest-code root of the base modulus inside the extension: the
    first root beta among the powers of gamma = alpha^{(q_ext-1)/(q_base-1)},
    which span the embedded base field (alpha is primitive for every builtin
    modulus), then the least of its conjugates beta^(3^i), i < m, which are
    all the roots of the irreducible modulus."""
    gamma = ext.alpha ** ((ext.q - 1) // (base.q - 1))
    cur = ext.one
    for _ in range(base.q - 1):
        if not _horner(base.modulus, cur):
            return min((cur ** (3 ** i) for i in range(base.m)), key=lambda x: x.code)
        cur = cur * gamma
    raise NoRootFound("base modulus has no root in the extension")


@lru_cache(maxsize=None)
def build_extension(base: Field, n: int) -> Tuple[Field, Embedding]:
    """GF(3^{mn}) with an embedding of the base field, built once per
    (base, n).  The extension gets its own builtin modulus; the embedding
    map carries all the relative structure."""
    if n < 2:
        raise CapExceeded("extension degree n must be >= 2")
    mn = base.m * n
    if 3 ** mn > TABLE_CAP:
        raise CapExceeded(f"extension GF(3^{mn}) exceeds the table cap {TABLE_CAP}")
    ext = get_field(mn)
    return ext, Embedding(base=base, ext=ext, beta=_find_root(base, ext))


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
    ext, emb = build_extension(base, n)     # CapExceeded for n < 2
    h = val3(n, n)
    s = n // 3 ** h
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
