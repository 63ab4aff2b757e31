"""End-to-end acceptance battery.

Tests 1-9 run the `ksum3 verify` checks (src/ksum3/verify.py) at larger
sizes than the CLI's desk battery; a check raises CheckFailed on a wrong
value, so these fail under python -O too.  Each test records one
"ACCEPTANCE n (...): PASS|FAIL" verdict line; the conftest
terminal-summary hook prints them after the run, past pytest's output
capture.
"""

import functools
import time

from ksum3 import verify
from ksum3.cli import main

ACCEPTANCE_LINES = []


def acceptance(n, name):
    def deco(fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            try:
                fn(*args, **kwargs)
            except BaseException:
                ACCEPTANCE_LINES.append(f"ACCEPTANCE {n} ({name}): FAIL")
                raise
            ACCEPTANCE_LINES.append(f"ACCEPTANCE {n} ({name}): PASS")
        return wrapper
    return deco


@acceptance(1, "worked example in GF(3^5)")
def test_acceptance_01_worked_example():
    t0 = time.perf_counter()
    verify._field_basics()
    verify._example31()
    assert time.perf_counter() - t0 < 1.0


@acceptance(2, "valuation matches brute-force oracle, m = 2..7, 3 seeds")
def test_acceptance_02_oracle_equivalence():
    verify._oracle_equivalence((0, 1, 2), range(2, 8))


@acceptance(3, "divisibility by 9 and 27 matches oracle, m <= 6")
def test_acceptance_03_divisibility():
    verify._divisibility(range(2, 7))


@acceptance(4, "curve order equals 3^m + K(a), m <= 6")
def test_acceptance_04_order_identity():
    verify._order_identity(range(2, 7))


@acceptance(5, "group-law soundness, m <= 5")
def test_acceptance_05_group_law():
    # >= 10^3 random triples per field; |E(a)| P = O and triple_x exhaustively
    verify._group_law(0, range(2, 6), curves=1000, triples=1, exhaustive=range(2, 6))


@acceptance(6, "Weil bound and full-field sum, m <= 5")
def test_acceptance_06_weil_and_sum():
    verify._weil_and_sum(range(2, 6))


@acceptance(7, "lifting laws for the valuation in extensions")
def test_acceptance_07_lifting_laws():
    verify._tower_laws([(2, 2), (3, 2), (2, 3), (3, 3), (2, 6)])


@acceptance(8, "degree-3 lift identity adjudication, m = 2 and 3")
def test_acceptance_08_adjudication():
    winner = verify._k3_adjudication((2, 3))["winner"]
    ACCEPTANCE_LINES.append(
        f"adjudicated degree-3 identity: winner = {winner!r} "
        "(K_3 = (K-1)^3 - 3q(K-1) + 1)")


@acceptance(9, "no Kloosterman zeros among lifted subfield elements")
def test_acceptance_09_no_lifted_zeros():
    verify._subfield_nonzero([(2, 2), (2, 3), (3, 2)])


@acceptance(10, "scan output byte-identical across worker counts")
def test_acceptance_10_scan_determinism():
    import io
    outputs = []
    for w in (1, 4, 8):
        buf = io.StringIO()
        assert main(["--m", "5", "--workers", str(w), "--seed", "0", "scan"],
                    out=buf) == 0
        outputs.append(buf.getvalue())
    assert outputs[0] == outputs[1] == outputs[2]
