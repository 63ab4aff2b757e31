"""Ground truth for Kloosterman sums over GF(3^m).

Everything here sums over the whole field (the curve order via the
quadratic character), so these values are independent of the fast
tripling algorithm they validate.  `kloosterman_sum` walks the field for
one a.  `kloosterman_sums` gives every K(a) at once: the trace is
F_3-linear (Lidl & Niederreiter, Finite Fields, ch. 2), so with x = g^i,
a = g^j, K(g^j) = 1 + sum_i psi(i) psi(j - i), psi(i) = omega^Tr(g^i), one
cyclic convolution by FFT.  It is exact: it raises unless every real part
is within 1/4 of an integer and every imaginary part, (sqrt(3)/2)(c1 - c2),
within 1/4 of 0 (worst residual about 1e-11).  At m = 13 its length
2 * 797161 goes through Bluestein's algorithm: about 1.3 s, 360 MB peak.

Convention (load-bearing): the sum ranges over the WHOLE field including
x = 0, with 0^{-1} taken as 0, so x = 0 contributes omega^Tr(0) = 1.
Under this convention |E(a)| = 3^m + K(a) holds exactly.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import CapExceeded, Ksum3Error, ZeroParameter
from .field import Fe, Field

_CHUNK = 1 << 16


@dataclass(frozen=True)
class KloostermanValue:
    """Exact K(a) plus the trace-value counts that produced it.

    counts[c] is the number of x in F with Tr(x + a/x) = c; since the two
    primitive cube roots of unity are conjugate, c1 = c2 and the sum is
    the rational integer c0 - c1.
    """

    value: int
    counts: tuple

    def __post_init__(self):
        c0, c1, c2 = self.counts
        if c1 != c2:
            raise Ksum3Error(f"counts {self.counts}: K(a) must be a rational integer")
        if self.value != c0 - c1:
            raise Ksum3Error(f"value {self.value} != c0 - c1 for counts {self.counts}")


def _require_tables(field: Field):
    if field.exp is None:
        raise CapExceeded("oracle needs field tables (q <= 3^13)")


def kloosterman_sum(field: Field, a: Fe) -> KloostermanValue:
    """Direct O(3^m) evaluation of K(a) = sum_x omega^Tr(x + a/x)."""
    field._check(a)
    if not a:
        raise ZeroParameter("K(a) requires a != 0")
    _require_tables(field)
    import numpy as np
    n = field.q - 1
    la = int(field.log[a.code])
    counts = np.zeros(3, dtype=np.int64)
    for lo in range(0, n, _CHUNK):
        hi = min(lo + _CHUNK, n)
        logs = np.arange(lo, hi, dtype=np.int64)
        x = field.exp[logs]
        a_over_x = field.exp[(la - logs) % n]
        tr = field.trace_table[field.add_codes(x, a_over_x)]
        counts += np.bincount(tr, minlength=3)
    counts[0] += 1  # x = 0 term: Tr(0 + a*0) = 0
    c = (int(counts[0]), int(counts[1]), int(counts[2]))
    return KloostermanValue(value=c[0] - c[1], counts=c)


def kloosterman_sums(field: Field) -> list:
    """K(a) for every a != 0, by code (entry 0 is None), from one cyclic
    convolution; raises Ksum3Error rather than round an inexact sum."""
    _require_tables(field)
    import numpy as np
    import numpy.fft
    psi = np.exp(2j * np.pi / 3 * field.trace_table[field.exp])
    s = np.fft.ifft(np.fft.fft(psi) ** 2)
    k = np.rint(s.real)
    if max(np.abs(s.real - k).max(), np.abs(s.imag).max()) >= 0.25:
        raise Ksum3Error("convolution too far from rational integers to round")
    K = np.zeros(field.q, dtype=np.int64)
    K[field.exp] = k + 1
    return [None] + K[1:].tolist()


def curve_order(field: Field, a: Fe) -> int:
    """|E(a)| for y^2 = x^3 + x^2 - a, counted via the quadratic character.

    Each x contributes 1 + chi(x^3 + x^2 - a) affine points (chi(0) = 0),
    plus one point at infinity.
    """
    field._check(a)
    if not a:
        raise ZeroParameter("E(a) requires a != 0")
    _require_tables(field)
    import numpy as np
    q = field.q
    neg_a = field.code_neg(a.code)
    total = q + 1  # the "1 +" per x, plus infinity
    for lo in range(0, q, _CHUNK):
        hi = min(lo + _CHUNK, q)
        x = np.arange(lo, hi, dtype=np.int64)
        x3 = field.pow_codes(x, 3)
        x2 = field.pow_codes(x, 2)
        f = field.add_codes(field.add_codes(x3, x2), neg_a)
        nz = f != 0
        chi = np.where(nz, np.where(field.log[f] % 2 == 0, 1, -1), 0)
        total += int(chi.sum())
    return total


def val3(n: int, m: int) -> int:
    """3-adic valuation with the zero convention: val3(0, m) = m."""
    if n == 0:
        return m
    n = abs(n)
    k = 0
    while n % 3 == 0:
        n //= 3
        k += 1
    return k
