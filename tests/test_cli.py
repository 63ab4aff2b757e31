import hashlib
import io
import json

import pytest

from ksum3.cli import build_parser, main
from ksum3.field import get_field


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


# ---------------------------------------------------------------------------
# verify
# ---------------------------------------------------------------------------

def test_verify_exit_zero():
    code, recs = run_json(["--m", "2", "verify"])
    assert code == 0
    assert all(r["ok"] for r in recs)
    assert len(recs) == 10


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
