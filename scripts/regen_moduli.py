#!/usr/bin/env python3
"""Regenerate the builtin tables in src/ksum3/moduli.py.

For each degree m = 2..M_CAP (40) the modulus table holds the first (by
ascending code of the low coefficients) monic irreducible polynomial over
F_3 whose residue of x is a primitive element, except m = 5 which is
pinned to x^5 + x^4 + x^2 + 1 so that power-format outputs line up with
the worked example shipped in the test suite.  GROUP_FACTORS holds the
sorted primes of 3^m - 1, factored here by sympy, so that the package
itself needs no factoring at run time.
"""

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from sympy import factorint

from ksum3 import moduli
from ksum3.field import LANE, M_CAP, _modulus_tuple, _order_is_full, _Ring, is_irreducible

PINNED = {5: "t:101011"}


def alpha_is_primitive(modulus: tuple) -> bool:
    """Whether modulus is irreducible and its residue of x generates the
    multiplicative group: no field and no tables are built."""
    m = len(modulus) - 1
    return (is_irreducible(modulus)
            and _order_is_full(_Ring(modulus), 1 << LANE, 3 ** m, moduli.GROUP_FACTORS[m]))


def find_modulus(m: int) -> str:
    if m in PINNED:
        assert alpha_is_primitive(_modulus_tuple(PINNED[m]))
        return PINNED[m]
    for code in range(3 ** m):
        coeffs = []
        c = code
        for _ in range(m):
            coeffs.append(c % 3)
            c //= 3
        if coeffs[0] == 0:
            continue  # x divides
        modulus = tuple(coeffs) + (1,)
        if alpha_is_primitive(modulus):
            return "t:" + "".join(map(str, modulus))
    raise RuntimeError(f"no primitive modulus found for m={m}")


def main():
    factors = {m: sorted(factorint(3 ** m - 1)) for m in range(2, M_CAP + 1)}
    moduli.GROUP_FACTORS.update(factors)   # alpha_is_primitive reads it, so new degrees work too
    lines = []
    for m in range(2, M_CAP + 1):
        s = find_modulus(m)
        lines.append(f"    {m}: {s!r},")
        print(f"m={m}: {s}", file=sys.stderr)
    body = "\n".join(lines)
    table = "\n".join(f"    {m}: {ps}," for m, ps in factors.items())
    out = Path(__file__).resolve().parents[1] / "src" / "ksum3" / "moduli.py"
    out.write_text(
        f'"""Builtin moduli for 2 <= m <= {M_CAP}, one primitive polynomial per degree,\n'
        "and the prime factors of each group order 3^m - 1.\n"
        "\n"
        "Generated by scripts/regen_moduli.py; regenerate with\n"
        "    python3 scripts/regen_moduli.py\n"
        "Each modulus is monic irreducible over F_3 and the residue of x is a\n"
        "primitive element, so the power format p:<k> is always available.\n"
        "GROUP_FACTORS[m] is the sorted list of primes dividing 3^m - 1; Field\n"
        "reads it to test primitivity.\n"
        '"""\n'
        "\n"
        "BUILTIN_MODULI = {\n" + body + "\n}\n"
        "\n"
        "GROUP_FACTORS = {\n" + table + "\n}\n"
    )
    print(f"wrote {out}", file=sys.stderr)


if __name__ == "__main__":
    main()
