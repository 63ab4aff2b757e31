"""Arithmetic for GF(3^m) in polynomial basis.

Elements are residues modulo a monic irreducible polynomial over F_3,
stored as an integer code: the coefficient vector (c_0, ..., c_{m-1})
with c_i multiplying x^i encodes to sum(c_i * 3^i).  The zero element is
code 0, the unit is code 1, and the residue of x (called alpha) is code 3.

Fields small enough (q <= 3^13) carry exp/log tables with respect to a
multiplicative generator plus a trace table: the brute-force oracle uses
them for vectorized numpy passes over whole fields, and the tower module
needs the generator.

Larger fields multiply, invert and raise to powers on packed integers:
byte i of a Python int holds the coefficient of x^i (LANE = 8 bits per
trit).  A lane of the integer product of two packed polynomials sums at
most m <= M_CAP = 40 products of two trits, so it stays below
4 * M_CAP = 160 < 2^8 and never carries into the next lane; one bytes
translation then reduces every lane mod 3.  Codes become packed ints and
back only inside code_mul, code_inv and code_pow, and in the cube root,
which is an F_3-linear map (the inverse Frobenius) applied to a code four
trits at a time.

External string formats (bit-exact, shared with the CLI):
  "t:20100"  coefficient of x^0 first, m characters in {0,1,2}
  "p:31"     alpha^31, valid only when alpha is primitive
A modulus is the same trit string with m+1 characters (the "t:" prefix is
optional for moduli).
"""

from __future__ import annotations

import random
from functools import cached_property, lru_cache
from typing import Iterable, Iterator, Optional, Sequence

import numpy as np
from sympy import factorint

from .errors import (
    CapExceeded,
    DegreeMismatch,
    DivisionByZero,
    FormatError,
    MixedFields,
    NonResidue,
    NoSolution,
    ReducibleModulus,
)

M_CAP = 40            # orders of alpha must fit comfortably in machine-width ints
TABLE_CAP = 3 ** 13   # largest field that gets exp/log/trace tables


# ---------------------------------------------------------------------------
# packed polynomials over F_3: byte i of a Python int is the coefficient of x^i
# ---------------------------------------------------------------------------

LANE = 8   # bits per trit: a product lane is at most 4 * M_CAP (module docstring)
assert 4 * M_CAP < 1 << LANE

_MOD3 = bytes(v % 3 for v in range(256))          # lane -> lane mod 3
_NEG3 = bytes(-v % 3 for v in range(256))         # lane -> -lane mod 3
_DIGIT = bytes(ord("0") + v % 3 for v in range(256))   # lane -> digit of lane mod 3
_CHUNKS = [bytes(d // 3 ** k % 3 for k in range(4)) for d in range(81)]   # 4 trits of d


def _lanes(v: int, table: bytes = _MOD3) -> int:
    """Apply a 256-entry table to every lane of v, e.g. reduce each mod 3."""
    raw = v.to_bytes((v.bit_length() + 7) // 8, "little")
    return int.from_bytes(raw.translate(table), "little")


def _deg(p: int) -> int:
    return (p.bit_length() - 1) // LANE


def _pack(coeffs: Iterable[int]) -> int:
    return int.from_bytes(bytes(coeffs), "little")


def _from_code(code: int) -> int:
    """Packed form of a base-3 element code, four trits at a time."""
    out = []
    while code:
        code, d = divmod(code, 81)
        out.append(_CHUNKS[d])
    return int.from_bytes(b"".join(out), "little")


def _to_code(p: int, m: int) -> int:
    """Base-3 code of a packed polynomial of degree < m, its lanes taken mod 3."""
    return int(p.to_bytes(m, "big").translate(_DIGIT), 3)


def _pdivmod(a: int, b: int) -> tuple:
    """Quotient and remainder of packed a by packed nonzero b."""
    db = _deg(b)
    lead = b >> (LANE * db)           # 1 or 2, each its own inverse mod 3
    q = 0
    while a and (s := _deg(a) - db) >= 0:
        c = (a >> (LANE * (s + db))) * lead % 3
        q |= c << (LANE * s)
        a = _lanes(a + ((3 - c) * b << (LANE * s)))
    return q, a


class _Ring:
    """F_3[x] / f for a monic f of degree m, on packed ints of degree < m.

    A product is one integer multiplication (Kronecker substitution), its
    lanes then taken mod 3.  The product P is reduced mod f by Barrett's
    method with mu = x^(2m-2) div f: the quotient P div f is
    ((P div x^m) * mu) div x^(m-2), exactly, since deg P <= 2m-2.
    """

    def __init__(self, modulus: Sequence[int]):
        m = len(modulus) - 1
        self.m = m
        self.f = _pack(modulus)
        self.mu = _pdivmod(1 << (LANE * (2 * m - 2)), self.f)[0]
        self.neg_low = _pack(-c % 3 for c in modulus[:-1])   # -(f - x^m)
        self.low = (1 << (LANE * m)) - 1

    def mul(self, a: int, b: int) -> int:
        m = self.m
        p = _lanes(a * b)
        q = _lanes((p >> (LANE * m)) * self.mu >> (LANE * (m - 2)))
        return _lanes((p + q * self.neg_low) & self.low)

    def pow(self, a: int, e: int) -> int:
        if e == 0:
            return 1
        r = a
        for bit in bin(e)[3:]:
            r = self.mul(r, r)
            if bit == "1":
                r = self.mul(r, a)
        return r

    def inv(self, a: int) -> int:
        """Extended Euclid: s with s * a = 1 mod f."""
        r0, r1, s0, s1 = self.f, a, 0, 1
        while r1:
            q, r = _pdivmod(r0, r1)
            r0, r1 = r1, r
            s0, s1 = s1, _lanes(q * s1 + 2 * s0, _NEG3)   # s0 - q * s1
        if _deg(r0) != 0:
            raise DivisionByZero("element not invertible")
        return s0 if r0 == 1 else _lanes(s0, _NEG3)


def is_irreducible(modulus: Sequence[int]) -> bool:
    """Distinct-degree test: monic f of degree m is irreducible iff it has
    no irreducible factor of degree <= m // 2, i.e. gcd(f, x^{3^k} - x) = 1
    for every k up to m // 2."""
    f = tuple(modulus)
    m = len(f) - 1
    if m < 1 or f[-1] != 1:
        raise DegreeMismatch("modulus must be monic of positive degree")
    ring = _Ring(f)
    x = 1 << LANE
    r = x
    for _ in range(m // 2):
        r = ring.pow(r, 3)
        a, b = ring.f, _lanes(r + 2 * x)      # gcd(f, r - x)
        while b:
            a, b = b, _pdivmod(a, b)[1]
        if _deg(a) > 0:
            return False
    return True


def solve_linear_mod3(rows: list, rhs: Sequence[int]) -> Optional[tuple]:
    """Solve the F_3 linear system rows * v = rhs: (v, kernel), or None.

    v has every free variable set to zero, so the answer is deterministic.
    kernel is a basis of the null space, one vector per free variable
    (that variable 1, the other free ones 0), in column order.
    """
    nrows = len(rows)
    ncols = len(rows[0]) if nrows else 0
    a = [list(r) + [rhs[i] % 3] for i, r in enumerate(rows)]
    pivots = []
    row = 0
    for col in range(ncols):
        piv = next((r for r in range(row, nrows) if a[r][col]), None)
        if piv is None:
            continue
        a[row], a[piv] = a[piv], a[row]
        if a[row][col] == 2:
            a[row] = [(2 * c) % 3 for c in a[row]]
        prow = a[row]
        for r in range(nrows):
            fac = a[r][col]
            if r != row and fac:
                a[r] = [(c - fac * p) % 3 for c, p in zip(a[r], prow)]
        pivots.append(col)
        row += 1
        if row == nrows:
            break
    for r in range(row, nrows):
        if a[r][ncols]:
            return None
    v = [0] * ncols
    for r, col in enumerate(pivots):
        v[col] = a[r][ncols]
    kernel = []
    for free in sorted(set(range(ncols)) - set(pivots)):
        k = [0] * ncols
        k[free] = 1
        for r, col in enumerate(pivots):
            k[col] = -a[r][free] % 3
        kernel.append(k)
    return v, kernel


# ---------------------------------------------------------------------------
# field and element types
# ---------------------------------------------------------------------------

def _parse_trits(s: str, what: str) -> tuple:
    if not all(c in "012" for c in s):
        raise FormatError(f"bad {what} string {s!r}")
    return tuple(int(c) for c in s)


class Field:
    """A concrete GF(3^m) together with its cached tables."""

    def __init__(self, m: int, modulus):
        if isinstance(modulus, str):
            s = modulus[2:] if modulus.startswith("t:") else modulus
            modulus = _parse_trits(s, "modulus")
        modulus = tuple(int(c) % 3 for c in modulus)
        if m < 2 or m > M_CAP:
            raise DegreeMismatch(f"extension degree m={m} outside [2, {M_CAP}]")
        if len(modulus) != m + 1:
            raise DegreeMismatch(f"modulus has {len(modulus)} coefficients, want {m + 1}")
        if modulus[-1] != 1:
            raise DegreeMismatch("modulus must be monic")
        if not is_irreducible(modulus):
            raise ReducibleModulus(f"modulus {modulus} factors over F_3")
        self.m = m
        self.q = 3 ** m
        self.modulus = modulus
        self._ring = _Ring(modulus)
        self.group_factors = sorted(factorint(self.q - 1))
        self.alpha_primitive = self._order_is_full(1 << LANE)
        # tables
        self.exp: Optional[np.ndarray] = None
        self.log: Optional[np.ndarray] = None
        self.trace_table: Optional[np.ndarray] = None
        self.generator_code: Optional[int] = None
        self._tr_basis = self._trace_basis()
        if self.q <= TABLE_CAP:
            self._build_tables()

    # -- construction helpers ------------------------------------------------

    def _order_is_full(self, packed: int) -> bool:
        n = self.q - 1
        return all(self._ring.pow(packed, n // p) != 1 for p in self.group_factors)

    def _trace_basis(self) -> list:
        """tr_basis[j] = Tr(alpha^j) in {0,1,2}; trace is F_3-linear.  These
        are the power sums of the roots of the modulus f, from Newton's
        identities p_k = -(k f_{m-k} + sum_{i<k} f_{m-i} p_{k-i})."""
        f, m = self.modulus, self.m
        p = [m % 3]
        for k in range(1, m):
            p.append(-(k * f[m - k] + sum(f[m - i] * p[k - i] for i in range(1, k))) % 3)
        return p

    def _build_tables(self):
        m, q = self.m, self.q
        exp = np.empty(q - 1, dtype=np.int64)
        if self.alpha_primitive:
            self.generator_code = 3   # alpha
            coeffs = [1] + [0] * (m - 1)
            for i in range(q - 1):
                exp[i] = self._encode(coeffs)
                coeffs = self._times_alpha(coeffs)
        else:
            gen = self._find_generator()
            self.generator_code = _to_code(gen, m)
            power = 1
            for i in range(q - 1):
                exp[i] = _to_code(power, m)
                power = self._ring.mul(power, gen)
        self.exp = exp
        log = np.full(q, -1, dtype=np.int64)
        log[exp] = np.arange(q - 1, dtype=np.int64)
        self.log = log
        # trace table: codes are base-3 digit vectors, trace is linear
        codes = np.arange(q, dtype=np.int64)
        tr = np.zeros(q, dtype=np.int64)
        tmp = codes.copy()
        for i in range(m):
            tr += (tmp % 3) * self._tr_basis[i]
            tmp //= 3
        self.trace_table = (tr % 3).astype(np.uint8)

    def _find_generator(self) -> int:
        for code in range(2, self.q):
            packed = _from_code(code)
            if self._order_is_full(packed):
                return packed
        raise ReducibleModulus("no multiplicative generator found")  # unreachable

    # -- code <-> coefficient helpers ---------------------------------------

    def _encode(self, coeffs: Sequence[int]) -> int:
        return _to_code(_pack(coeffs), self.m)

    def _decode_full(self, code: int) -> tuple:
        out = []
        for _ in range(self.m):
            out.append(code % 3)
            code //= 3
        return tuple(out)

    def same(self, other: "Field") -> bool:
        return self is other or (self.m == other.m and self.modulus == other.modulus)

    # -- scalar code arithmetic ----------------------------------------------

    def code_add(self, a: int, b: int) -> int:
        res = 0
        p = 1
        for _ in range(self.m):
            res += ((a + b) % 3) * p
            a //= 3
            b //= 3
            p *= 3
        return res

    def code_neg(self, a: int) -> int:
        res = 0
        p = 1
        for _ in range(self.m):
            res += ((3 - a % 3) % 3) * p
            a //= 3
            p *= 3
        return res

    def code_mul(self, a: int, b: int) -> int:
        if a == 0 or b == 0:
            return 0
        if self.log is not None:
            return int(self.exp[(int(self.log[a]) + int(self.log[b])) % (self.q - 1)])
        return _to_code(self._ring.mul(_from_code(a), _from_code(b)), self.m)

    def code_inv(self, a: int) -> int:
        if a == 0:
            raise DivisionByZero("inverse of zero")
        if self.log is not None:
            return int(self.exp[(-int(self.log[a])) % (self.q - 1)])
        return _to_code(self._ring.inv(_from_code(a)), self.m)

    def code_pow(self, a: int, e: int) -> int:
        if a == 0:
            if e > 0:
                return 0
            if e == 0:
                return 1
            raise DivisionByZero("0 raised to a negative power")
        e %= self.q - 1
        if self.log is not None:
            return int(self.exp[(int(self.log[a]) * e) % (self.q - 1)])
        return _to_code(self._ring.pow(_from_code(a), e), self.m)

    # -- vectorized code arithmetic (numpy int64 arrays) ---------------------

    def add_codes(self, a, b):
        a = np.asarray(a, dtype=np.int64)
        b = np.asarray(b, dtype=np.int64)
        res = np.zeros(np.broadcast(a, b).shape, dtype=np.int64)
        pa, pb, p = a.copy(), b + np.zeros_like(a), 1
        for _ in range(self.m):
            res += ((pa + pb) % 3) * p
            pa //= 3
            pb //= 3
            p *= 3
        return res

    def mul_codes(self, a, b):
        if self.log is None:
            raise CapExceeded("vectorized path needs exp/log tables (q <= 3^13)")
        a = np.asarray(a, dtype=np.int64)
        b = np.asarray(b, dtype=np.int64)
        out = self.exp[(self.log[a] + self.log[b]) % (self.q - 1)]
        return np.where((a == 0) | (b == 0), 0, out)

    def pow_codes(self, a, e: int):
        if self.log is None:
            raise CapExceeded("vectorized path needs exp/log tables (q <= 3^13)")
        a = np.asarray(a, dtype=np.int64)
        out = self.exp[(self.log[a] * (e % (self.q - 1))) % (self.q - 1)]
        return np.where(a == 0, 0, out)

    # -- public element API ---------------------------------------------------

    def el(self, code: int) -> "Fe":
        if not 0 <= code < self.q:
            raise FormatError(f"element code {code} out of range")
        return Fe(self, code)

    def from_coeffs(self, coeffs: Iterable[int]) -> "Fe":
        coeffs = [int(c) % 3 for c in coeffs]
        if len(coeffs) != self.m:
            raise FormatError(f"expected {self.m} coefficients")
        return Fe(self, self._encode(coeffs))

    def from_int(self, c: int) -> "Fe":
        return Fe(self, c % 3)

    @property
    def zero(self) -> "Fe":
        return Fe(self, 0)

    @property
    def one(self) -> "Fe":
        return Fe(self, 1)

    @property
    def alpha(self) -> "Fe":
        return Fe(self, 3)

    def alpha_pow(self, k: int) -> "Fe":
        return self.alpha ** k

    def elements(self) -> Iterator["Fe"]:
        for code in range(self.q):
            yield Fe(self, code)

    def nonzero_elements(self) -> Iterator["Fe"]:
        for code in range(1, self.q):
            yield Fe(self, code)

    def random_element(self, rng: random.Random) -> "Fe":
        return Fe(self, rng.randrange(self.q))

    def parse(self, s: str) -> "Fe":
        """Parse "t:<trits>" or "p:<k>"."""
        if s.startswith("t:"):
            coeffs = _parse_trits(s[2:], "element")
            if len(coeffs) != self.m:
                raise FormatError(f"element {s!r} has {len(coeffs)} trits, want {self.m}")
            return Fe(self, self._encode(coeffs))
        if s.startswith("p:"):
            if not self.alpha_primitive:
                raise FormatError("power format requires a primitive alpha")
            try:
                k = int(s[2:])
            except ValueError:
                raise FormatError(f"bad power format {s!r}") from None
            return self.alpha_pow(k)
        raise FormatError(f"element {s!r} must start with 't:' or 'p:'")

    def modulus_string(self) -> str:
        return "t:" + "".join(str(c) for c in self.modulus)

    def _times_alpha(self, coeffs: list) -> list:
        """The m coefficients of alpha * x, from the m coefficients of x."""
        top = coeffs[-1]
        if not top:
            return [0] + coeffs[:-1]
        mod = self.modulus
        return [(-top * mod[0]) % 3] + [
            (coeffs[k - 1] - top * mod[k]) % 3 for k in range(1, self.m)
        ]

    @cached_property
    def _frobenius_columns(self) -> list:
        """Coefficients of alpha^{3j} for j = 0..m-1: the matrix of x -> x^3."""
        cols = [[1] + [0] * (self.m - 1)]
        for _ in range(self.m - 1):
            cols.append(self._times_alpha(self._times_alpha(self._times_alpha(cols[-1]))))
        return cols

    @cached_property
    def _cube_root_images(self) -> list:
        """x -> x^(1/3) as an F_3-linear map: for each 4-trit chunk of a code,
        the 81 packed images of its digit patterns (lanes at most 8)."""
        ring = self._ring
        root = ring.pow(1 << LANE, 3 ** (self.m - 1))   # alpha^(1/3)
        cols = [1]                                       # (alpha^j)^(1/3)
        for _ in range(self.m - 1):
            cols.append(ring.mul(cols[-1], root))
        chunks = []
        for i in range(0, self.m, 4):
            images = [0]
            for col in cols[i:i + 4]:
                images = [v + d * col for d in range(3) for v in images]
            chunks.append(images)
        return chunks

    def _linear_cube_root(self, a: int) -> int:
        """The code of a^(1/3): one image per 4-trit chunk of the code a."""
        acc = 0
        for images in self._cube_root_images:
            a, d = divmod(a, 81)
            acc += images[d]
        return _to_code(acc, self.m)

    @cached_property
    def _non_residue(self) -> "Fe":
        """The first non-square by ascending code, for Tonelli-Shanks."""
        return next(e for e in self.nonzero_elements() if not e.is_square())

    def solve_linearized(self, c, r) -> list:
        """All x in the field with x^3 + c x = r (c and r elements or ints).

        x -> x^3 + c x is F_3-linear, so the solutions are the particular
        one x0 (free variables zero) plus the kernel, which is {0} or
        {0, k, 2k}: [] when there is none, else [x0] or [x0, x0 + k, x0 + 2k].
        """
        c, r = self.zero + c, self.zero + r   # ints coerce, foreign elements raise
        cols, col = [], list(c.coeffs)         # column j: image of alpha^j
        for frob in self._frobenius_columns:
            cols.append([(u + v) % 3 for u, v in zip(frob, col)])
            col = self._times_alpha(col)
        sol = solve_linear_mod3(list(zip(*cols)), r.coeffs)
        if sol is None:
            return []
        v, kernel = sol
        xs = [self._encode(v)]
        for k in kernel:
            k = self._encode(k)
            xs = [self.code_add(x, self.code_mul(e, k)) for e in range(3) for x in xs]
        return [Fe(self, x) for x in xs]

    def solve_artin_schreier(self, a: "Fe") -> list:
        """All w in the field with w^3 - w = a, as [w, w + 1, w + 2].

        The map w -> w^3 - w is F_3-linear with kernel F_3, so there are
        either no solutions (trace(a) != 0) or exactly three differing by
        prime-field constants.
        """
        ws = self.solve_linearized(-1, a)
        if not ws:
            raise NoSolution(f"trace({a}) != 0, w^3 - w = a unsolvable")
        return ws

    def _check(self, x: "Fe") -> None:
        if not self.same(x.field):
            raise MixedFields("element belongs to a different field")

    def __repr__(self):
        return f"GF(3^{self.m}; {self.modulus_string()})"




class Fe:
    """An element of GF(3^m), a lightweight immutable value type."""

    __slots__ = ("field", "code")

    def __init__(self, field: Field, code: int):
        self.field = field
        self.code = code

    # -- coercion ------------------------------------------------------------

    def _co(self, other) -> "Fe":
        if isinstance(other, Fe):
            if not self.field.same(other.field):
                raise MixedFields("mixed-field arithmetic")
            return other
        if isinstance(other, int):
            return Fe(self.field, other % 3)
        return NotImplemented

    # -- arithmetic ----------------------------------------------------------

    def __add__(self, other):
        o = self._co(other)
        if o is NotImplemented:
            return NotImplemented
        return Fe(self.field, self.field.code_add(self.code, o.code))

    __radd__ = __add__

    def __sub__(self, other):
        o = self._co(other)
        if o is NotImplemented:
            return NotImplemented
        return Fe(self.field, self.field.code_add(self.code, self.field.code_neg(o.code)))

    def __rsub__(self, other):
        o = self._co(other)
        if o is NotImplemented:
            return NotImplemented
        return o - self

    def __neg__(self):
        return Fe(self.field, self.field.code_neg(self.code))

    def __mul__(self, other):
        o = self._co(other)
        if o is NotImplemented:
            return NotImplemented
        return Fe(self.field, self.field.code_mul(self.code, o.code))

    __rmul__ = __mul__

    def __truediv__(self, other):
        o = self._co(other)
        if o is NotImplemented:
            return NotImplemented
        return Fe(self.field, self.field.code_mul(self.code, self.field.code_inv(o.code)))

    def __rtruediv__(self, other):
        o = self._co(other)
        if o is NotImplemented:
            return NotImplemented
        return o / self

    def __pow__(self, e: int):
        return Fe(self.field, self.field.code_pow(self.code, e))

    def inv(self) -> "Fe":
        return Fe(self.field, self.field.code_inv(self.code))

    def safe_inv(self) -> "Fe":
        """Inverse with the 0 -> 0 convention used by the Kloosterman sum."""
        if self.code == 0:
            return self
        return self.inv()

    def __eq__(self, other):
        if isinstance(other, int):
            return self.code == other % 3
        if not isinstance(other, Fe):
            return NotImplemented
        return self.field.same(other.field) and self.code == other.code

    def __hash__(self):
        return hash((self.field.m, self.field.modulus, self.code))

    def __bool__(self):
        return self.code != 0

    # -- characteristic-3 special maps ---------------------------------------

    def frobenius(self) -> "Fe":
        return self ** 3

    def cube_root(self) -> "Fe":
        f = self.field
        if f.log is not None:
            return self ** (3 ** (f.m - 1))
        return Fe(f, f._linear_cube_root(self.code))

    def ninth_root(self) -> "Fe":
        return self.cube_root().cube_root()

    def trace(self) -> int:
        f = self.field
        if f.trace_table is not None:
            return int(f.trace_table[self.code])
        return sum(c * f._tr_basis[i] for i, c in enumerate(self.coeffs)) % 3

    def is_square(self) -> bool:
        if self.code == 0:
            return True
        f = self.field
        if f.log is not None:
            return int(f.log[self.code]) % 2 == 0
        return self ** ((f.q - 1) // 2) == f.one

    def sqrt(self) -> "Fe":
        """The square root y with y^2 = x and the smaller code of {y, -y}.

        Both signs are valid; the canonical pick keeps outputs reproducible
        across runs (downstream trace conditions are sign-invariant).
        """
        f = self.field
        if self.code == 0:
            return self
        if not self.is_square():
            raise NonResidue(f"{self} is not a square")
        if f.m % 2 == 1:
            y = self ** ((f.q + 1) // 4)
        elif f.log is not None:
            y = Fe(f, int(f.exp[int(f.log[self.code]) // 2]))
        else:
            y = self._tonelli_shanks()
        neg = -y
        return y if y.code <= neg.code else neg

    def _tonelli_shanks(self) -> "Fe":
        f = self.field
        n = f.q - 1
        s = 0
        t = n
        while t % 2 == 0:
            t //= 2
            s += 1
        mexp = s
        c = f._non_residue ** t
        r = self ** ((t + 1) // 2)
        u = self ** t
        while u != f.one:
            i = 0
            probe = u
            while probe != f.one:
                probe = probe * probe
                i += 1
            b = c ** (1 << (mexp - i - 1))
            mexp = i
            c = b * b
            u = u * c
            r = r * b
        return r

    # -- formatting ----------------------------------------------------------

    @property
    def coeffs(self) -> tuple:
        return self.field._decode_full(self.code)

    @property
    def trit_str(self) -> str:
        return "t:" + "".join(str(c) for c in self.coeffs)

    @property
    def power_str(self) -> Optional[str]:
        f = self.field
        if not f.alpha_primitive or f.log is None or self.code == 0:
            return None
        return f"p:{int(f.log[self.code])}"

    def __repr__(self):
        p = self.power_str
        return self.trit_str if p is None else f"{self.trit_str}({p})"


# ---------------------------------------------------------------------------
# cached field constructors
# ---------------------------------------------------------------------------

@lru_cache(maxsize=None)
def _cached_field(m: int, modulus: tuple) -> Field:
    return Field(m, modulus)


def get_field(m: int, modulus=None) -> Field:
    """Field for degree m, reusing instances (table builds are costly).

    modulus None or "builtin" picks the committed builtin table entry.
    """
    if modulus is None or modulus == "builtin":
        from .moduli import BUILTIN_MODULI
        if m not in BUILTIN_MODULI:
            raise FormatError(f"no builtin modulus for m={m}; pass one explicitly")
        modulus = BUILTIN_MODULI[m]
    if isinstance(modulus, str):
        s = modulus[2:] if modulus.startswith("t:") else modulus
        modulus = _parse_trits(s, "modulus")
    return _cached_field(m, tuple(modulus))
