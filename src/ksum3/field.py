"""Arithmetic for GF(3^m) in polynomial basis.

Elements are residues modulo a monic irreducible polynomial over F_3,
stored as an integer code: the coefficient vector (c_0, ..., c_{m-1})
with c_i multiplying x^i encodes to sum(c_i * 3^i).  The zero element is
code 0, the unit is code 1, and the residue of x (called alpha) is code 3.

Fields small enough (q <= 3^13) carry exp/log tables with respect to a
multiplicative generator g, which serve the scalar product, inverse, power
and square root there, plus a trace table, which serves only the oracle's
numpy passes over whole fields; the tower module needs the generator.  The
exp table doubles rather than growing one product at a time: x -> g^B x is
F_3-linear (Lidl & Niederreiter, Finite Fields, ch. 2), so the base-3
digits of g^B..g^(2B-1) are those of g^0..g^(B-1) times its m x m matrix
mod 3, one numpy pass over int8 digit planes, and g^B then squares; the
trace table is the same digit planes dotted with Tr(alpha^i).  A
Zech-log table, zech[k] = log(1 + g^k), makes the scalar add a lookup too:
g^i + g^j = g^(i + zech[j - i]), and -1 = g^(n/2) for n = q - 1 (Huber,
IEEE Trans. Inf. Theory 36, 1990).  Scalar ops read the tables through
memoryviews, which index faster than numpy arrays and share their memory.
numpy is imported only where the tables are built or read whole (the table
build, the vectorized code ops, the oracle), so a field past the table cap
never loads it.

All other F_3-vector work -- products, powers and inverses past the table
cap, the doubling matrices and the linear maps -- runs on packed integers:
byte i of a Python int holds coordinate i (LANE = 8 bits per trit).  A
lane of the integer product of two packed polynomials sums at most
m <= M_CAP = 40 products of two trits, so it is at most 4 * M_CAP = 160
< 2^8 and never carries into the next lane; one bytes translation then
reduces every lane mod 3.  Every F_3-linear map of a code, on every field, is one walk over
its base-81 digits through chunk tables (_chunk_images): the identity
(code to packed int), the cube root, the trace and a right inverse of
u -> u^3 - u.  The last three are read off one table of conjugates,
conj[k][j] = (alpha^(3^k))^j: row m - 1 is the cube root, column j sums
to Tr(alpha^j), and the inverse needs no linear solve: by additive
Hilbert 90, with Tr(theta) = -1 and C_k = sum_(k<i<m) theta^(3^i),
w = sum_(k<m) a^(3^k) C_k has w^3 - w = a whenever Tr(a) = 0.  Rows
2^i < m of conj are the Frobenius powers x -> x^(3^(2^i)), each one walk,
about the cost of one product, and past the table cap they chain with
products (Itoh & Tsujii, Inf. Comput. 78, 1988) into x^(sum_(j<n) 3^(s j))
in O(log n) steps: the inverse is x^(r-1) times x^r = +-1, r = (q-1)/2,
and Tonelli-Shanks's power x^((t-1)/2), q - 1 = 2^e t, splits t the same
way.  Past the table cap the scalar add and negation convert too (a packed
sum has lanes at most 4, and -x is 2x, which _to_code reduces).

An Fe holds its base-3 code on every field, not its packed form: at m = 40
a packed int takes 68 bytes against 36 for the code, and callers keep many
elements.  So past the table cap each scalar op packs its operands and
codes its result, and the routines that chain many ops convert only at
their ends: the square root, Tonelli-Shanks at every m
(Field._tonelli_shanks), runs on packed ints, and so do curve.py's lift
and tripling step, which pack each input Fe once and code each output
once.  A reduced packed int orders like its code (both are
positional, every digit below its base), so the canonical square root,
the smaller of +-y, is the same in both.

External string formats (bit-exact, shared with the CLI):
  "t:20100"  coefficient of x^0 first, m characters in {0,1,2}
  "p:31"     alpha^31, valid only when alpha is primitive
A modulus is the same trit string with m+1 characters (the "t:" prefix is
optional for moduli).
"""

from __future__ import annotations

import random
from functools import lru_cache
from typing import Iterable, Iterator, Optional, Sequence

from .errors import (
    CapExceeded,
    DegreeMismatch,
    DivisionByZero,
    FormatError,
    IterationCapExceeded,
    MixedFields,
    NonResidue,
    NoSolution,
    ReducibleModulus,
)
from .moduli import BUILTIN_MODULI, GROUP_FACTORS

M_CAP = 40            # packed product lanes are at most 4 * M_CAP < 2^LANE
TABLE_CAP = 3 ** 13   # largest field that gets exp/log/trace tables


# ---------------------------------------------------------------------------
# packed polynomials over F_3: byte i of a Python int is the coefficient of x^i
# ---------------------------------------------------------------------------

LANE = 8   # bits per trit: a product lane is at most 4 * M_CAP (module docstring)
assert 4 * M_CAP < 1 << LANE

_MOD3 = bytes(v % 3 for v in range(256))          # lane -> lane mod 3
_NEG3 = bytes(-v % 3 for v in range(256))         # lane -> -lane mod 3
_DIGIT = bytes(ord("0") + v % 3 for v in range(256))   # lane -> digit of lane mod 3


def _lanes(v: int, table: bytes = _MOD3) -> int:
    """Apply a 256-entry table to every lane of v, e.g. reduce each mod 3."""
    raw = v.to_bytes((v.bit_length() + 7) // 8, "little")
    return int.from_bytes(raw.translate(table), "little")


def _deg(p: int) -> int:
    return (p.bit_length() - 1) // LANE


def _pack(coeffs: Iterable[int]) -> int:
    return int.from_bytes(bytes(coeffs), "little")


def _to_code(p: int, m: int) -> int:
    """Base-3 code of a packed polynomial of degree < m, its lanes taken mod 3."""
    return int(p.to_bytes(m, "big").translate(_DIGIT), 3)


def _chunk_images(cols: Sequence[int]) -> list:
    """The F_3-linear map with packed images cols[j] of alpha^j, as the 81
    packed images of each 4-trit chunk of a code.  A sum of m reduced
    columns times digits <= 2 has lanes <= 4 m <= 160 < 2^LANE."""
    chunks = []
    for i in range(0, len(cols), 4):
        images = [0]
        for col in cols[i:i + 4]:
            images = [v + d * col for d in range(3) for v in images]
        chunks.append(images)
    return chunks


def _apply_images(chunks: list, code: int) -> int:
    """The packed image, lanes not reduced, of a code under a map from
    _chunk_images: one lookup per base-81 digit of the code."""
    acc = i = 0
    while code:
        acc += chunks[i][code % 81]
        code //= 81
        i += 1
    return acc


_IDENTITY = _chunk_images([1 << LANE * j for j in range(M_CAP)])


def _from_code(code: int) -> int:
    """Packed form of a base-3 element code: its image under the identity."""
    return _apply_images(_IDENTITY, code)


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


def _order_is_full(ring: _Ring, packed: int, q: int, factors: Sequence[int]) -> bool:
    """Whether packed has order q - 1 in F_q*, factors the primes of q - 1."""
    return all(ring.pow(packed, (q - 1) // p) != 1 for p in factors)


def _tonelli_shanks_split(m: int, e: int) -> tuple:
    """(L, o, B) with L = m & -m, o = m / L odd and B = (3^L - 1) / 2^e odd,
    for q - 1 = 3^m - 1 = 2^e t, t odd.  As o is odd, sum_(j<o) 3^(L j) is
    odd, so 3^L - 1 holds all of 2^e and t = B sum_(j<o) 3^(L j)."""
    L = m & -m
    return L, m // L, (3 ** L - 1) >> e


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


# ---------------------------------------------------------------------------
# field and element types
# ---------------------------------------------------------------------------

def _parse_trits(s: str, what: str) -> tuple:
    if not all(c in "012" for c in s):
        raise FormatError(f"bad {what} string {s!r}")
    return tuple(int(c) for c in s)


def _modulus_tuple(modulus) -> tuple:
    """A trit string ("t:" prefix optional) or int sequence, reduced mod 3."""
    if isinstance(modulus, str):
        modulus = _parse_trits(modulus.removeprefix("t:"), "modulus")
    return tuple(int(c) % 3 for c in modulus)


class Field:
    """A concrete GF(3^m) together with its tables."""

    def __init__(self, m: int, modulus):
        modulus = _modulus_tuple(modulus)
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
        self.zero, self.one, self.alpha = Fe(self, 0), Fe(self, 1), Fe(self, 3)
        self._ring = _Ring(modulus)
        self.group_factors = GROUP_FACTORS[m]
        self.alpha_primitive = _order_is_full(self._ring, 1 << LANE, self.q, self.group_factors)
        # tables
        self.exp = self.log = self.trace_table = None   # numpy arrays, with tables
        self.generator_code: Optional[int] = None
        # every per-field constant is a plain attribute set here, none built
        # on first use: a lazy write through __dict__ after construction
        # slows every later attribute load of the field, scalar ops
        # included (CPython 3.11)
        conj = self._conjugate_powers()
        self._tr_basis = [_lanes(sum(col)) for col in zip(*conj)]   # Tr(alpha^j)
        self._trace_images = _chunk_images(self._tr_basis)
        self._cube_root_images = _chunk_images(conj[-1])
        # x -> x^(3^(2^i)) for 2^i < m, the steps of _frobenius_chain
        self._frobenius_images = [_chunk_images(conj[1 << i]) for i in range((m - 1).bit_length())]
        self._artin_schreier_images = self._build_artin_schreier_images(conj)
        if self.q <= TABLE_CAP:
            self._build_tables()
        self._tonelli_shanks_constants = self._build_tonelli_shanks_constants()

    # -- construction helpers ------------------------------------------------

    def _conjugate_powers(self) -> list:
        """conj[k][j] = (alpha^(3^k))^j, packed, for k, j < m: row k is the
        matrix of x -> x^(3^k), and column j holds the conjugates of alpha^j."""
        ring, m = self._ring, self.m
        conj, root = [], 1 << LANE                      # root = alpha^(3^k)
        for _ in range(m):
            row = [1]
            for _ in range(m - 1):
                row.append(ring.mul(row[-1], root))
            conj.append(row)
            root = ring.pow(root, 3)
        return conj

    def _build_tables(self):
        """exp, log, Zech and trace tables, the exp table by doubling.
        digits[i, k] is digit i of the code of g^k.  x -> g^B x is F_3-linear,
        its matrix rows the digits of g^B alpha^j, so the digits of
        g^B..g^(2B-1) are those of g^0..g^(B-1) times that matrix, mod 3;
        then g^B squares.  That is about log2 q = 1.6 m rounds of m + 1
        packed products.  A product digit sums m <= 13 terms of at most 4,
        so it fits int8.  The trace is linear too: Tr(g^k) is digits[:, k]
        dotted with Tr(alpha^i)."""
        import numpy as np
        m, q, ring = self.m, self.q, self._ring
        n = q - 1
        gen = (1 << LANE) if self.alpha_primitive else self._find_generator()   # alpha or g
        self.generator_code = _to_code(gen, m)
        digits = np.zeros((m, n), dtype=np.int8)
        digits[0, 0] = 1
        size, power = 1, gen                              # power = g^size
        while size < n:
            k = min(size, n - size)
            matrix = np.frombuffer(b"".join(ring.mul(power, 1 << LANE * j).to_bytes(m, "little")
                                            for j in range(m)), dtype=np.int8).reshape(m, m)
            # einsum, as numpy's integer matmul is several times slower here
            np.remainder(np.einsum("ji,jk->ik", matrix, digits[:, :k]), 3,
                         out=digits[:, size:size + k])
            size += k
            power = ring.mul(power, power)
        self.exp = exp = np.zeros(n, dtype=np.int64)
        for plane in digits[::-1]:
            exp *= 3
            exp += plane
        log = np.full(q, -1, dtype=np.int64)
        log[exp] = np.arange(n, dtype=np.int64)
        self.log = log
        # 1 + g^k changes digit 0 of g^k's code only; log[0] = -1 marks 1 + g^k = 0
        zech = log[exp - exp % 3 + (exp + 1) % 3]
        self._exp_mv, self._log_mv, self._zech_mv = map(memoryview, (exp, log, zech))
        tr_basis = np.array(self._tr_basis, dtype=np.int8)
        self.trace_table = np.zeros(q, dtype=np.uint8)
        self.trace_table[exp] = np.einsum("i,ik->k", tr_basis, digits) % 3

    def _find_generator(self) -> int:
        for code in range(2, self.q):
            packed = _from_code(code)
            if _order_is_full(self._ring, packed, self.q, self.group_factors):
                return packed
        raise ReducibleModulus("no multiplicative generator found")  # unreachable

    def same(self, other: "Field") -> bool:
        return self is other or (self.m == other.m and self.modulus == other.modulus)

    # -- scalar code arithmetic ----------------------------------------------

    def code_add(self, a: int, b: int) -> int:
        if self.log is None:
            return _to_code(_from_code(a) + _from_code(b), self.m)
        if a == 0:
            return b
        if b == 0:
            return a
        log, n = self._log_mv, self.q - 1
        la = log[a]
        z = self._zech_mv[(log[b] - la) % n]
        return 0 if z < 0 else self._exp_mv[(la + z) % n]

    def code_neg(self, a: int) -> int:
        if self.log is None:
            return _to_code(2 * _from_code(a), self.m)
        if a == 0:
            return 0
        n = self.q - 1
        return self._exp_mv[(self._log_mv[a] + n // 2) % n]

    def code_mul(self, a: int, b: int) -> int:
        if a == 0 or b == 0:
            return 0
        if self.log is not None:
            log = self._log_mv
            return self._exp_mv[(log[a] + log[b]) % (self.q - 1)]
        return _to_code(self._ring.mul(_from_code(a), _from_code(b)), self.m)

    def code_inv(self, a: int) -> int:
        if a == 0:
            raise DivisionByZero("inverse of zero")
        if self.log is not None:
            return self._exp_mv[-self._log_mv[a] % (self.q - 1)]
        return _to_code(self._chain_inv(_from_code(a)), self.m)

    def code_pow(self, a: int, e: int) -> int:
        if a == 0:
            if e > 0:
                return 0
            if e == 0:
                return 1
            raise DivisionByZero("0 raised to a negative power")
        e %= self.q - 1
        if self.log is not None:
            return self._exp_mv[self._log_mv[a] * e % (self.q - 1)]
        return _to_code(self._ring.pow(_from_code(a), e), self.m)

    def _code_cube_root(self, a: int) -> int:
        """The code of a^(1/3) = a^(3^(m-1)), read from the chunk tables of
        the inverse Frobenius (_cube_root_images, columns (alpha^j)^(1/3))
        on every field."""
        return _to_code(_apply_images(self._cube_root_images, a), self.m)

    # -- Frobenius-power chains (Itoh & Tsujii, Inf. Comput. 78, 1988) -------

    def _frobenius(self, p: int, i: int) -> int:
        """p^(3^(2^i)) for packed p, reduced: one walk through the chunk
        tables _frobenius_images[i]."""
        return _lanes(_apply_images(self._frobenius_images[i], _to_code(p, self.m)))

    def _frobenius_chain(self, y: int, s: int, n: int) -> int:
        """y^(sum_(j<n) 3^(s j)) for packed y, n >= 1 and a stride s that is
        a power of two, right to left over the bits of n.  block holds
        y^(sum_(j<2^k) 3^(s j)) and doubles as F_(s 2^k)(block) block; a set
        bit k folds into total as F_(s 2^k)(total) block, F_d the map
        x -> x^(3^d).  Only F_d with d < s n are read."""
        mul, i = self._ring.mul, s.bit_length() - 1
        block, total = y, None
        while True:
            if n & 1:
                total = block if total is None else mul(self._frobenius(total, i), block)
            n >>= 1
            if not n:
                return total
            block = mul(self._frobenius(block, i), block)
            i += 1

    def _chain_inv(self, x: int) -> int:
        """x^(-1) for packed nonzero x: b = F_1(x^(sum_(j<m-1) 3^j)) is
        x^(r-1) with r = (q-1)/2, so b x = x^r = +-1 (Euler's criterion)
        and x^(-1) = +-b."""
        b = self._frobenius(self._frobenius_chain(x, 1, self.m - 1), 0)
        return b if self._ring.mul(b, x) == 1 else _lanes(b, _NEG3)

    def _tonelli_shanks_power(self, x: int) -> int:
        """x^((t-1)/2) for packed x, q - 1 = 2^e t with t odd.  With L, o, B
        from _tonelli_shanks_split, t = B sum_(j<o) 3^(L j), and
        x^((t-1)/2) = x^((B-1)/2) F_L(y N_L(y))^Psi for y = x^B,
        N_L(y) = y^(sum_(j<L) 3^j) and Psi = sum_(j<(o-1)/2) 3^(2 L j);
        at o = 1 (m a power of two) it is the binary power x^((B-1)/2)."""
        ring = self._ring
        L, o, B = _tonelli_shanks_split(self.m, self._tonelli_shanks_constants[0])
        s = ring.pow(x, (B - 1) // 2)
        if o == 1:
            return s
        y = ring.mul(ring.mul(s, s), x)   # x^B
        z = self._frobenius(ring.mul(y, self._frobenius_chain(y, 1, L)), L.bit_length() - 1)
        return ring.mul(s, self._frobenius_chain(z, 2 * L, (o - 1) // 2))

    def _tonelli_shanks(self, x: int) -> int:
        """The square root of packed x with the smaller code of +-root,
        packed; NonResidue when x is not a square.  Tonelli-Shanks (Cohen,
        GTM 138, Alg. 1.5.1) on the field's (e, t, c) with one power
        s = x^((t-1)/2) (_tonelli_shanks_power): r = s x, u = s r = x^t.
        Each pass keeps r^2 = x u, so r is a root once u = 1.  A pass finds
        the order 2^i of u, below the last pass's i (at most e on the
        first), so there are at most e passes of at most e squarings.
        i = e on the first pass is x^((q-1)/2) = -1, a non-square (at odd
        m, e = 1: a square has u = 1 and r = x^((q+1)/4)); on a later pass
        it means c does not have order 2^e.  A reduced packed int orders
        like its code, so the smaller of r and -r is the canonical root."""
        if not x:
            return 0
        mul = self._ring.mul
        e, _, c = self._tonelli_shanks_constants
        s = self._tonelli_shanks_power(x)
        r = mul(s, x)
        u = mul(s, r)
        bound = e
        while u != 1:
            i, probe = 1, mul(u, u)
            while probe != 1 and i < bound:
                probe = mul(probe, probe)
                i += 1
            if i == bound:
                if probe == 1 and bound == e:
                    raw = x.to_bytes(self.m, "little").translate(_DIGIT)
                    raise NonResidue(f"t:{raw.decode()} is not a square")
                raise IterationCapExceeded("Tonelli-Shanks constant c does not have order 2^e")
            b = c
            for _ in range(bound - i - 1):
                b = mul(b, b)
            bound = i
            c = mul(b, b)
            u = mul(u, c)
            r = mul(r, b)
        return min(r, _lanes(r, _NEG3))

    # -- vectorized code arithmetic (numpy int64 arrays) ---------------------

    def add_codes(self, a, b):
        import numpy as np
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
        import numpy as np
        a = np.asarray(a, dtype=np.int64)
        b = np.asarray(b, dtype=np.int64)
        out = self.exp[(self.log[a] + self.log[b]) % (self.q - 1)]
        return np.where((a == 0) | (b == 0), 0, out)

    def pow_codes(self, a, e: int):
        if self.log is None:
            raise CapExceeded("vectorized path needs exp/log tables (q <= 3^13)")
        import numpy as np
        a = np.asarray(a, dtype=np.int64)
        out = self.exp[(self.log[a] * (e % (self.q - 1))) % (self.q - 1)]
        return np.where(a == 0, 0, out)

    # -- public element API ---------------------------------------------------

    def el(self, code: int) -> "Fe":
        if not 0 <= code < self.q:
            raise FormatError(f"element code {code} out of range")
        return Fe(self, code)

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
            return Fe(self, int(s[2:][::-1], 3))
        if s.startswith("p:"):
            if not self.alpha_primitive:
                raise FormatError("power format requires a primitive alpha")
            try:
                k = int(s[2:])
            except ValueError:
                raise FormatError(f"bad power format {s!r}") from None
            return self.alpha ** k
        raise FormatError(f"element {s!r} must start with 't:' or 'p:'")

    def modulus_string(self) -> str:
        return "t:" + "".join(str(c) for c in self.modulus)

    def _build_artin_schreier_images(self, conj: list) -> list:
        """Chunk tables of a right inverse of L(u) = u^3 - u on the trace-zero
        elements, L's image (its kernel is F_3), by additive Hilbert 90, read
        off the conjugates conj[k][j] = (alpha^(3^k))^j.
        theta = -Tr(alpha^j0) alpha^j0, j0 the first j with Tr(alpha^j) != 0,
        has Tr(theta) = -1 and theta^(3^i) = -Tr(alpha^j0) conj[i][j0].  With
        C_k = sum_(k<i<m) theta^(3^i), C_k^3 = C_(k+1) + theta for k < m - 1
        and theta + C_0 = Tr(theta), so w = sum_(k<m) a^(3^k) C_k has
        w^3 - w = a + Tr(a) theta.  Image j is w(alpha^j) less its constant
        term: the root with constant term 0.  For Tr(a) = 0 the right-hand
        sides alpha^j + Tr(alpha^j) theta sum to a.  A lane of w sums m
        reduced products, so it is at most 2 m <= 80."""
        ring, m, tr = self._ring, self.m, self._tr_basis
        j0 = next(j for j in range(m) if tr[j])
        theta = [-tr[j0] % 3 * row[j0] for row in conj]         # theta^(3^i)
        cs = [_lanes(sum(theta[k + 1:])) for k in range(m - 1)]  # C_k; C_(m-1) = 0
        return _chunk_images([
            _lanes(sum(ring.mul(row[j], c) for row, c in zip(conj, cs))) >> LANE << LANE
            for j in range(m)])

    def _build_tonelli_shanks_constants(self) -> tuple:
        """(e, t, c): q - 1 = 2^e t with t odd, and c = z^t packed, z the
        first non-square by code."""
        t = self.q - 1
        e = (t & -t).bit_length() - 1
        t >>= e
        z = next(x for x in self.nonzero_elements() if not x.is_square())
        return e, t, _from_code((z ** t).code)

    def solve_artin_schreier(self, a: "Fe") -> list:
        """All w with w^3 - w = a, as [w, w + 1, w + 2] (the map's kernel is
        F_3), w the one with constant term zero, from the field's operator
        _artin_schreier_images; NoSolution when Tr(a) != 0."""
        self._check(a)
        if a.trace():
            raise NoSolution(f"trace({a}) != 0, w^3 - w = a unsolvable")
        w = Fe(self, _to_code(_apply_images(self._artin_schreier_images, a.code), self.m))
        return [w, w + 1, w + 2]

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

    def __eq__(self, other):
        """An int equals the element only when it is its code 0, 1 or 2
        (unlike arithmetic, which reduces ints mod 3), so that equal values
        hash alike."""
        if isinstance(other, int):
            return 0 <= other <= 2 and self.code == other
        if not isinstance(other, Fe):
            return NotImplemented
        return self.field.same(other.field) and self.code == other.code

    def __hash__(self):
        return hash(self.code)

    def __bool__(self):
        return self.code != 0

    # -- characteristic-3 special maps ---------------------------------------

    def cube_root(self) -> "Fe":
        """x^(1/3) (Field._code_cube_root)."""
        return Fe(self.field, self.field._code_cube_root(self.code))

    def ninth_root(self) -> "Fe":
        return self.cube_root().cube_root()

    def trace(self) -> int:
        """Tr(x) = sum c_i Tr(alpha^i), read from the chunk tables of the
        trace functional (_trace_images) on every field; trace_table serves
        only the oracle's numpy passes."""
        return _apply_images(self.field._trace_images, self.code) % 3

    def is_square(self) -> bool:
        """With log tables, whether log x is even: the table generator spans
        F_q*, and q - 1 is even.  Past them Euler's criterion
        x^((q-1)/2) = 1, one chain x^(sum_(j<m) 3^j)."""
        f = self.field
        if not self:
            return True
        if f.log is not None:
            return f._log_mv[self.code] % 2 == 0
        return f._frobenius_chain(_from_code(self.code), 1, f.m) == 1

    def sqrt(self) -> "Fe":
        """The square root y with y^2 = x and the smaller code of {y, -y}.

        Both signs are valid; the canonical pick keeps outputs reproducible
        across runs (downstream trace conditions are sign-invariant).
        Residuosity is decided without calling `is_square`: with log tables
        by the parity of log x, as in `is_square`, and past them
        Tonelli-Shanks raises (Field._tonelli_shanks, on packed ints).
        """
        f = self.field
        if f.log is None:
            return Fe(f, _to_code(f._tonelli_shanks(_from_code(self.code)), f.m))
        if self.code == 0:
            return self
        k = f._log_mv[self.code]
        if k % 2:
            raise NonResidue(f"{self} is not a square")
        y = Fe(f, f._exp_mv[k // 2])
        neg = -y
        return y if y.code <= neg.code else neg

    # -- formatting ----------------------------------------------------------

    @property
    def coeffs(self) -> tuple:
        return tuple(_from_code(self.code).to_bytes(self.field.m, "little"))

    @property
    def trit_str(self) -> str:
        raw = _from_code(self.code).to_bytes(self.field.m, "little")
        return "t:" + raw.translate(_DIGIT).decode()

    @property
    def power_str(self) -> Optional[str]:
        f = self.field
        if not f.alpha_primitive or f.log is None or self.code == 0:
            return None
        return f"p:{f._log_mv[self.code]}"

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
        if m not in BUILTIN_MODULI:
            raise FormatError(f"no builtin modulus for m={m}; pass one explicitly")
        modulus = BUILTIN_MODULI[m]
    return _cached_field(m, _modulus_tuple(modulus))
