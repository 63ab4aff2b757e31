import contextlib
import hashlib
import io
import json
import os
import random
import runpy
import subprocess
import sys
from pathlib import Path

import pytest

from ksum3 import cli, curve, oracle, tower, valuation, verify
from ksum3.cli import build_parser, main
from ksum3.curve import CurveParams
from ksum3.field import get_field
from ksum3.valuation import descent


def run(argv):
    buf = io.StringIO()
    code = main(argv, out=buf)
    return code, buf.getvalue()


def run_json(argv):
    code, text = run(argv)
    return code, [json.loads(line) for line in text.splitlines()]


# ---------------------------------------------------------------------------
# single-element subcommands
# ---------------------------------------------------------------------------

def test_ksum_golden():
    code, recs = run_json(["--m", "5", "--a", "p:31", "ksum"])
    assert code == 0
    (rec,) = recs
    assert rec["K"] == 27
    assert rec["val3"] == 3
    assert rec["a_pow"] == "p:31"
    assert sum(rec["counts"]) == 3 ** 5
    assert rec["counts"][1] == rec["counts"][2]


def test_ksum_accepts_trit_form():
    f5 = get_field(5)
    a = f5.alpha ** 31
    code, recs = run_json(["--m", "5", "--a", a.trit_str, "ksum"])
    assert code == 0
    assert recs[0]["K"] == 27


def test_kval_golden_and_seed_field():
    code, recs = run_json(["--m", "5", "--a", "p:31", "--seed", "7", "kval"])
    assert code == 0
    (rec,) = recs
    assert rec["k"] == 3
    assert rec["seed"] == 7
    assert rec["trail"][0] == rec["u1"]
    assert not rec["kloosterman_zero"]


def test_kval_zero_element_m2():
    # t:21 is a Kloosterman zero in GF(9)
    code, recs = run_json(["--m", "2", "--a", "t:21", "kval"])
    assert code == 0
    assert recs[0]["k"] == 2
    assert recs[0]["case"] == "hit_order_three"
    assert recs[0]["kloosterman_zero"]


def test_explicit_modulus_matches_builtin():
    _, recs_a = run_json(["--m", "5", "--a", "p:31", "ksum"])
    _, recs_b = run_json(["--m", "5", "--modulus", "t:101011", "--a", "p:31", "ksum"])
    assert recs_a == recs_b


# ---------------------------------------------------------------------------
# scan
# ---------------------------------------------------------------------------

def test_scan_deterministic_across_workers():
    outputs = []
    for w in ("1", "4", "8"):
        _, text = run(["--m", "4", "--workers", w, "--seed", "3", "scan"])
        outputs.append(text)
    assert outputs[0] == outputs[1] == outputs[2]


def test_scan_summary_m3():
    code, recs = run_json(["--m", "3", "scan"])
    assert code == 0
    body, summary = recs[:-1], recs[-1]["summary"]
    assert len(body) == 3 ** 3 - 1
    # trace(a) != 0 <=> k = 1, and exactly 2 * 3^{m-1} elements qualify
    assert summary["histogram"]["1"] == 2 * 3 ** 2
    assert sum(summary["histogram"].values()) == 3 ** 3 - 1
    assert sorted(summary["zeros"]) == ["t:020", "t:120", "t:220"]
    assert all(r["agree"] for r in body)


@pytest.mark.parametrize("output,walks_before_first_line", [("json", 1), ("table", 26)])
def test_scan_json_streams_and_table_collects(output, walks_before_first_line, monkeypatch):
    """json prints each record as soon as its walk ends; table prints after
    all q - 1 walks, as it needs every record for its column widths."""
    walks, first = [], []
    real = cli.kval
    monkeypatch.setattr(cli, "kval", lambda *a: walks.append(1) or real(*a))

    class Out(io.StringIO):
        def write(self, text):
            first.append(len(walks))
            return super().write(text)

    assert main(["--m", "3", "--output", output, "scan"], out=Out()) == 0
    assert first[0] == walks_before_first_line and len(walks) == 26


def test_scan_zeros_m2():
    _, recs = run_json(["--m", "2", "scan"])
    assert sorted(recs[-1]["summary"]["zeros"]) == ["t:12", "t:21"]


def test_scan_respects_oracle_cap():
    _, recs = run_json(["--m", "2", "--oracle-cap", "1", "scan"])
    assert all("K" not in r for r in recs[:-1])


# ---------------------------------------------------------------------------
# descent
# ---------------------------------------------------------------------------

def test_descent_full_dot():
    code, text = run(["--m", "5", "--a", "p:31", "descent", "--full"])
    assert code == 0
    assert text.startswith("digraph descent {")
    assert text.count("->") == 12
    assert text.count("label=") == 13


def test_descent_default_policy_linear():
    _, text = run(["--m", "5", "--a", "p:31", "descent"])
    # one expanded node per level: 1 + 3 + 3 nodes, 3 + 3 edges
    assert text.count("->") == 6
    assert text.count("label=") == 7


def test_descent_m40_custom_modulus():
    modulus = "t:21" + "0" * 38 + "1"
    code, text = run(["--m", "40", "--modulus", modulus, "--a", "t:" + "1021" * 10, "descent"])
    assert code == 0
    assert text.startswith("digraph descent {")
    assert text.rstrip().endswith("}")


# ---------------------------------------------------------------------------
# tower
# ---------------------------------------------------------------------------

def test_tower_all_m2_n3():
    code, recs = run_json(["--m", "2", "tower", "--n", "3", "--all"])
    assert code == 0
    assert len(recs) == 8
    for r in recs:
        assert r["consistent"]
        assert r["H_n"] == r["H"] + 1


def test_tower_single_element():
    code, recs = run_json(["--m", "2", "--a", "p:1", "tower", "--n", "2"])
    assert code == 0
    assert recs[0]["H_n"] == recs[0]["H"]


@pytest.mark.parametrize("n", ["0", "1", "-3"])
def test_tower_degenerate_degree_exits(n):
    """n < 2 is a CapExceeded usage error; it runs in a subprocess with a
    timeout, so a hang fails the test instead of stalling the suite."""
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    proc = subprocess.run([sys.executable, "-m", "ksum3", "--m", "2", "--a", "p:1", "tower",
                           "--n", n], env=env, capture_output=True, text=True, timeout=30)
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert json.loads(proc.stderr)["error"] == "CapExceeded"


# ---------------------------------------------------------------------------
# verify
# ---------------------------------------------------------------------------

def test_verify_exit_zero():
    code, recs = run_json(["--m", "2", "verify"])
    assert code == 0
    assert all(r["ok"] for r in recs)
    assert len(recs) == 10


def test_verify_requires_the_variant_k3_form(monkeypatch):
    """K_3 = 1 - V_3 is the variant form, so a "printed" verdict fails."""
    monkeypatch.setattr(tower, "adjudicate_k3",
                        lambda base: {"m": base.m, "winner": "printed", "witnesses": []})
    code, recs = run_json(["--m", "2", "verify"])
    assert code == 1
    assert [r["check"] for r in recs if r.get("ok") is False] == ["k3_adjudication"]
    assert recs[-1] == {"failures": ["k3_adjudication"]}


def test_verify_catches_a_bad_triple_x(monkeypatch):
    """The walk steps with valuation.triple_x, so only the group-law check
    sees a wrong curve.triple_x."""
    monkeypatch.setattr(curve, "triple_x", lambda params, u: u + 1)
    assert [r["check"] for r in verify.run_all() if not r["ok"]] == ["group_law"]


def test_verify_catches_a_bad_div27(monkeypatch):
    div27 = valuation.div27
    monkeypatch.setattr(valuation, "div27", lambda f, a: not div27(f, a))
    failed = [r for r in verify.run_all() if not r["ok"]]
    assert [r["check"] for r in failed] == ["divisibility_9_27"]
    assert failed[0]["detail"].startswith("div27 at ")
    with pytest.raises(verify.CheckFailed, match="^div27 at "):
        verify._divisibility(range(2, 7))


_BROKEN_UNDER_O = """
import io, json
from ksum3 import cli, errors, oracle, valuation
assert False, "run with python -O: asserts are stripped"
div9 = valuation.div9
valuation.div9 = lambda f, a: not div9(f, a)
buf = io.StringIO()
code = cli.main(["--m", "2", "verify"], out=buf)
try:
    oracle.KloostermanValue(value=5, counts=(3, 1, 2))
    bad_value = "accepted"
except errors.Ksum3Error:
    bad_value = "rejected"
print(json.dumps({"code": code, "out": buf.getvalue(), "bad_value": bad_value}))
"""


def test_verify_and_oracle_fail_under_optimize():
    """python -O strips asserts; the battery and the oracle's consistency
    check must still fail on wrong values."""
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    proc = subprocess.run([sys.executable, "-O", "-c", _BROKEN_UNDER_O], env=env,
                          capture_output=True, text=True, check=True)
    got = json.loads(proc.stdout)
    assert got["bad_value"] == "rejected"
    assert got["code"] == 1
    recs = [json.loads(line) for line in got["out"].splitlines()]
    failed = [r["check"] for r in recs if r.get("ok") is False]
    assert failed == ["divisibility_9_27"]
    assert recs[-1] == {"failures": ["divisibility_9_27"]}
    detail = next(r["detail"] for r in recs if r.get("check") == "divisibility_9_27")
    assert detail.startswith("div9 at ")


# ---------------------------------------------------------------------------
# output formats and errors
# ---------------------------------------------------------------------------

def test_table_output():
    code, text = run(["--m", "5", "--a", "p:31", "--output", "table", "ksum"])
    assert code == 0
    header, row = text.splitlines()[:2]
    assert header.split()[:3] == ["a", "a_pow", "K"]
    assert "27" in row


def test_missing_a_is_usage_error(capsys):
    code, _ = run(["--m", "5", "ksum"])
    assert code == 2
    err = json.loads(capsys.readouterr().err)
    assert "needs --a" in err["message"]


def test_bad_element_format_is_usage_error(capsys):
    code, _ = run(["--m", "5", "--a", "q:3", "ksum"])
    assert code == 2
    assert json.loads(capsys.readouterr().err)["error"] == "FormatError"


def test_tower_without_n_is_usage_error(capsys):
    code, _ = run(["--m", "2", "tower"])
    assert code == 2
    capsys.readouterr()


def test_bad_modulus_is_usage_error(capsys):
    # x^2 - 1 factors as (x - 1)(x + 1)
    code, _ = run(["--m", "2", "--modulus", "t:201", "--a", "p:1", "ksum"])
    assert code == 2
    assert json.loads(capsys.readouterr().err)["error"] == "ReducibleModulus"


def test_missing_m_rejected_by_argparse(capsys):
    with pytest.raises(SystemExit) as exc:
        build_parser().parse_args(["ksum"])
    assert exc.value.code == 2
    capsys.readouterr()


def test_dot_output_choice_is_rejected(capsys):
    # descent always prints DOT; --output only selects json or table
    with pytest.raises(SystemExit) as exc:
        main(["--m", "5", "--a", "p:31", "--output", "dot", "descent"])
    assert exc.value.code == 2
    assert "invalid choice" in capsys.readouterr().err


# sha256 of the stdout of each command.  These bytes are the package's
# results, so a change of design must leave them as they are.
GOLDEN_DIGESTS = {
    "--m 5 --a p:31 descent --full":
        "13f78d50b88a86ac477c02aed1f77d9658ec001bd9c593f6d6148022936f3701",
    "--m 6 --seed 3 scan":
        "4729e62ae6e8e6c08bb6baa8258aead4a4f6b0c38450bc373280474545f5566c",
    "--m 7 --seed 101 scan":
        "1bca080a18558c54a8315062b6b8777b745ed298edb6b722407cb860cc833ba4",
    "--m 7 --seed 101 --output table scan":
        "6de62c445cdb40a0d94e5bcc8232aaadaf0d360342ce2c9fa77b46d45e4eecd8",
    "--m 2 tower --n 3 --all":
        "2ecf63a1782babaa4ca0b6b2626c3192c910c8ee2e5794c6ccfbbf5c09fd943f",
    "--m 3 tower --n 2 --all":
        "69a873d26d22941da79fedf473b7b72b879cfef7bd94704817073125e81a5e47",
    "--m 2 verify":
        "3aee6091250a33ba3e85b63458bec6461e2a904dc3e5cdb2b162c1ca51e316c9",
}


@pytest.mark.parametrize("argv", sorted(GOLDEN_DIGESTS))
def test_golden_output_digest(argv):
    code, text = run(argv.split())
    assert code == 0
    assert hashlib.sha256(text.encode()).hexdigest() == GOLDEN_DIGESTS[argv]


def test_scan_oracle_column_needs_no_direct_sum(monkeypatch):
    """scan's K and agree come from the one convolution, kloosterman_sums:
    with the per-element direct sum patched to raise, the bytes hold."""
    def refuse(*args):
        raise AssertionError("scan called the direct sum")
    monkeypatch.setattr(oracle, "kloosterman_sum", refuse)
    monkeypatch.setattr(cli, "kloosterman_sum", refuse)
    argv = "--m 6 --seed 3 scan"
    code, text = run(argv.split())
    assert code == 0
    assert hashlib.sha256(text.encode()).hexdigest() == GOLDEN_DIGESTS[argv]


def test_cli_import_loads_neither_openssl_nor_numpy_fft():
    """The per-element seed's blake2b comes without OpenSSL's _hashlib, and
    numpy.fft loads only when the oracle column is summed."""
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    probe = "import sys, ksum3.cli; print(sorted({'_hashlib', 'numpy.fft'} & set(sys.modules)))"
    proc = subprocess.run([sys.executable, "-c", probe], env=env,
                          capture_output=True, text=True, check=True)
    assert proc.stdout.strip() == "[]"


# The same for fields past the table cap, where every product is a packed
# integer product: m = 14 (a of descent depth 4) and m = 40 (a of trace 0,
# descent depth 3).
GOLDEN_DIGESTS_PAST_TABLE_CAP = {
    "--m 14 --modulus t:210000000000001 --a p:1 descent --full":
        "d8d44e7bd57b72e000594aa1359439de15f22d4d91d8837136ee74ffff2df755",
    "--m 40 --modulus t:21000000000000000000000000000000000000001"
    " --a t:0212210221011202112202120210022121212212 descent --full":
        "ac2ae034f0af622dca4616e6b2951551a7ada9eb64f6ed1565e07de2b4313064",
}


@pytest.mark.parametrize("argv", sorted(GOLDEN_DIGESTS_PAST_TABLE_CAP))
def test_golden_output_digest_past_table_cap(argv):
    code, text = run(argv.split())
    assert code == 0
    assert hashlib.sha256(text.encode()).hexdigest() == GOLDEN_DIGESTS_PAST_TABLE_CAP[argv]


# The same at the table cap, the largest fields with tables: the m = 13
# descent's DOT labels read the log table, and the m = 12 ksum reads exp and
# trace_table.
GOLDEN_DIGESTS_AT_TABLE_CAP = {
    "--m 13 --a p:5 descent":
        "d8502e0ea3131933f8762d0e46c5d55c88913bf778459a4366b894d42e087ae7",
    "--m 12 --a p:5 ksum":
        "16908cbcb7b24cf138fffd114b0ce265ac66623a9a67783c7b78b2435cce0250",
}


@pytest.mark.parametrize("argv", sorted(GOLDEN_DIGESTS_AT_TABLE_CAP))
def test_golden_output_digest_at_table_cap(argv):
    code, text = run(argv.split())
    assert code == 0
    assert hashlib.sha256(text.encode()).hexdigest() == GOLDEN_DIGESTS_AT_TABLE_CAP[argv]


# sha256 over the levels and edges (element codes) of descent graphs: both
# policies for every a at m = 2..7, and the seeded a of the seeded descent
# test in test_valuation.py (same moduli, seeds and policies).
DESCENT_DIGEST = "b975d76cc1fbeaab3b524967a5fbdf128f07bebcf88e419a81f869f2e4827a3c"
M40_MODULUS = "t:21" + "0" * 38 + "1"
DIGEST_SEEDED = [(m, None) for m in (8, 9, 10, 11, 12, 13, 14, 20, 27)] + [(40, M40_MODULUS)]


def test_descent_digest():
    h = hashlib.sha256()

    def feed(g):
        h.update(repr(([[n.code for n in lv] for lv in g.levels],
                       [(p.code, c.code) for p, c in g.edges])).encode())

    for m in range(2, 8):
        f = get_field(m)
        for a in f.nonzero_elements():
            params = CurveParams.make(f, a)
            feed(descent(params))
            feed(descent(params, full=True))
    for m, modulus in DIGEST_SEEDED:
        f = get_field(m, modulus)
        rng = random.Random(1000 + m)
        for i in range(12):
            a = f.el(rng.randrange(1, f.q))
            if i % 2:
                a = a ** 3 - a
            if a:
                feed(descent(CurveParams.make(f, a), full=m <= 10))
    assert h.hexdigest() == DESCENT_DIGEST


def test_worked_example_output_digest():
    script = Path(__file__).resolve().parents[1] / "scripts" / "worked_example.py"
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        runpy.run_path(str(script), run_name="__main__")
    assert (hashlib.sha256(buf.getvalue().encode()).hexdigest()
            == "3dc002ddff1a69001a31b66731064d1ef66c79661ad5091ae079df392e773c55")
