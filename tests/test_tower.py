import io
import random

import pytest

from ksum3 import cli, errors, oracle, tower, valuation
from ksum3.curve import CurveParams
from ksum3.field import get_field


@pytest.fixture(scope="module")
def emb22(f2):
    ext, emb = tower.build_extension(f2, 2)
    return ext, emb


@pytest.fixture(scope="module")
def emb23(f2):
    ext, emb = tower.build_extension(f2, 3)
    return ext, emb


# ---------------------------------------------------------------------------
# embedding
# ---------------------------------------------------------------------------

def test_embedding_is_homomorphism(f2, emb22):
    ext, emb = emb22
    for x in f2.elements():
        for y in f2.elements():
            assert emb(x + y) == emb(x) + emb(y)
            assert emb(x * y) == emb(x) * emb(y)


def test_embedding_injective_and_fixes_f3(f2, emb23):
    ext, emb = emb23
    images = {emb(x).code for x in f2.elements()}
    assert len(images) == f2.q
    for c in range(3):
        assert emb(f2.from_int(c)) == ext.from_int(c)


def test_embedding_root_property(f2, emb22):
    ext, emb = emb22
    beta = emb.beta
    acc = ext.zero
    for i, c in enumerate(f2.modulus):
        acc = acc + c * beta ** i
    assert acc == ext.zero


def test_absolute_trace_relation(f2, emb22, emb23):
    # Tr down to F_3 of an embedded element is n * Tr(base)
    for n, (ext, emb) in ((2, emb22), (3, emb23)):
        for x in f2.elements():
            assert emb(x).trace() == (n * x.trace()) % 3


def test_project_roundtrip(f2, emb23):
    ext, emb = emb23
    for x in f2.elements():
        assert emb.project(emb(x)) == x
    assert emb.contains(emb(f2.alpha))
    gamma = next(y for y in ext.nonzero_elements() if not emb.contains(y))
    with pytest.raises(errors.NoRootFound):
        emb.project(gamma)


def test_build_extension_caps(f5):
    with pytest.raises(errors.CapExceeded):
        tower.build_extension(f5, 3)  # 15 > cap
    with pytest.raises(errors.CapExceeded):
        tower.build_extension(f5, 1)


# ---------------------------------------------------------------------------
# relative trace
# ---------------------------------------------------------------------------

def test_rel_trace_on_embedded_elements(f2, emb22, emb23):
    for n, (ext, emb) in ((2, emb22), (3, emb23)):
        for x in f2.elements():
            got = tower.rel_trace(emb, emb(x))
            assert got == n * emb(x)
            if n % 3 == 0:
                assert got == ext.zero


def test_rel_trace_lands_in_base_and_transitivity(f2, emb23):
    ext, emb = emb23
    rng = random.Random(4)
    for _ in range(40):
        x = ext.random_element(rng)
        t = tower.rel_trace(emb, x)
        assert emb.contains(t)
        assert emb.project(t).trace() == x.trace()


# ---------------------------------------------------------------------------
# lifting laws
# ---------------------------------------------------------------------------

def test_h2_equals_h(f2):
    for a in f2.nonzero_elements():
        rep = tower.lifting_law_check(f2, a, 2)
        assert rep.h == 0 and rep.s == 2
        assert rep.consistent and rep.H_n == rep.H


def test_h3_is_h_plus_one(f2):
    for a in f2.nonzero_elements():
        rep = tower.lifting_law_check(f2, a, 3)
        assert rep.h == 1 and rep.s == 1
        assert rep.consistent and rep.H_n == rep.H + 1


def test_h4_sampled_base_m3(f3):
    rng = random.Random(12)
    for _ in range(5):
        a = f3.el(rng.randrange(1, f3.q))
        rep = tower.lifting_law_check(f3, a, 4)
        assert rep.h == 0 and rep.consistent


def test_lifting_law_check_raises_on_descent_oracle_disagreement(f2, monkeypatch):
    # a plain assert would vanish under python -O; the check must raise
    real = tower.descent

    def off_by_one(params):
        g = real(params)
        return valuation.DescentGraph(levels=g.levels + [g.levels[-1]])

    monkeypatch.setattr(tower, "descent", off_by_one)
    with pytest.raises(errors.Ksum3Error, match="descent disagrees with oracle"):
        tower.lifting_law_check(f2, f2.alpha, 2)


def test_tower_and_zero_test_never_walk(f2, monkeypatch):
    def no_walk(*args, **kwargs):
        raise AssertionError("the tripling walk ran")

    monkeypatch.setattr(valuation, "kval", no_walk)
    assert not hasattr(tower, "kval")
    assert not valuation.is_kloosterman_zero(CurveParams.make(f2, f2.alpha))
    for n in (2, 3):
        assert all(tower.lifting_law_check(f2, a, n).consistent
                   for a in f2.nonzero_elements())
    assert tower.subfield_nonzero_scan(f2, 2) == []
    assert cli.main(["--m", "2", "tower", "--n", "3", "--all"], out=io.StringIO()) == 0


# ---------------------------------------------------------------------------
# degree-3 identity adjudication
# ---------------------------------------------------------------------------

def test_k3_identity_check_values(f2):
    for a in f2.nonzero_elements():
        k3, printed, variant = tower.k3_identity_check(f2, a)
        assert variant == printed + 3 * f2.q
        assert k3 == variant


def test_k3_zero_witness_is_decisive(f2):
    # F_9 contains Kloosterman zeros; the printed identity would force
    # K_3 = 0 there, contradicting the lifted sum
    zeros = [a for a in f2.nonzero_elements()
             if oracle.kloosterman_sum(f2, a).value == 0]
    assert zeros
    for a in zeros:
        k3, printed, variant = tower.k3_identity_check(f2, a)
        assert printed == 0
        assert k3 != 0
        assert k3 == variant
        assert oracle.val3(k3, 3 * f2.m) == f2.m + 1


def test_adjudicate_winner_is_variant(f2):
    adj = tower.adjudicate_k3(f2)
    assert adj["winner"] == "variant"


def test_adjudicated_formula_consistent_with_lifting_law(f2):
    for a in f2.nonzero_elements():
        K = oracle.kloosterman_sum(f2, a).value
        variant = (K - 1) ** 3 - 3 * f2.q * (K - 1) + 1
        H = oracle.val3(K, f2.m)
        assert oracle.val3(variant, 3 * f2.m) == H + 1


# ---------------------------------------------------------------------------
# no lifted zeros
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("m,n", [(2, 2), (2, 3), (3, 2)])
def test_subfield_nonzero_scan(m, n):
    assert tower.subfield_nonzero_scan(get_field(m), n) == []


@pytest.mark.parametrize("m,n", [(2, 2), (2, 3), (2, 4), (3, 2), (4, 2)])
def test_find_root_is_smallest_root_in_extension(m, n):
    # brute force: evaluate the base modulus at every element of GF(3^{mn})
    base = get_field(m)
    ext = get_field(m * n)
    smallest = None
    for x in ext.elements():
        acc = ext.zero
        for c in reversed(base.modulus):
            acc = acc * x + c
        if not acc:
            smallest = x
            break
    assert smallest is not None
    assert tower._find_root(base, ext) == smallest
