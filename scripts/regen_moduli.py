#!/usr/bin/env python3
"""Regenerate the builtin modulus table in src/ksum3/moduli.py.

For each degree m = 2..M_CAP (40) the table holds the first (by ascending
code of the low coefficients) monic irreducible polynomial over F_3 whose
residue of x is a primitive element, except m = 5 which is pinned to
x^5 + x^4 + x^2 + 1 so that power-format outputs line up with the worked
example shipped in the test suite.
"""

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from ksum3.errors import ReducibleModulus
from ksum3.field import M_CAP, Field

PINNED = {5: "t:101011"}


def find_modulus(m: int) -> str:
    if m in PINNED:
        f = Field(m, PINNED[m])
        assert f.alpha_primitive
        return PINNED[m]
    for code in range(3 ** m):
        coeffs = []
        c = code
        for _ in range(m):
            coeffs.append(c % 3)
            c //= 3
        if coeffs[0] == 0:
            continue  # x divides
        try:
            f = Field(m, tuple(coeffs) + (1,))
        except ReducibleModulus:
            continue
        if f.alpha_primitive:
            return f.modulus_string()
    raise RuntimeError(f"no primitive modulus found for m={m}")


def main():
    lines = []
    for m in range(2, M_CAP + 1):
        s = find_modulus(m)
        lines.append(f"    {m}: {s!r},")
        print(f"m={m}: {s}", file=sys.stderr)
    body = "\n".join(lines)
    out = Path(__file__).resolve().parents[1] / "src" / "ksum3" / "moduli.py"
    out.write_text(
        f'"""Builtin moduli for 2 <= m <= {M_CAP}, one primitive polynomial per degree.\n'
        "\n"
        "Generated by scripts/regen_moduli.py; regenerate with\n"
        "    python3 scripts/regen_moduli.py\n"
        "Each entry is monic irreducible over F_3 and the residue of x is a\n"
        "primitive element, so the power format p:<k> is always available.\n"
        '"""\n'
        "\n"
        "BUILTIN_MODULI = {\n" + body + "\n}\n"
    )
    print(f"wrote {out}", file=sys.stderr)


if __name__ == "__main__":
    main()
