import random

import pytest

from ksum3 import errors, oracle, verify
from ksum3.field import Field, get_field
from test_packed import NON_PRIMITIVE_FIELDS


def test_golden_k_alpha31(f5):
    kv = oracle.kloosterman_sum(f5, f5.alpha ** 31)
    assert kv.value == 27
    assert sum(kv.counts) == f5.q
    assert kv.counts[1] == kv.counts[2]


def test_zero_parameter_rejected(f5):
    with pytest.raises(errors.ZeroParameter):
        oracle.kloosterman_sum(f5, f5.zero)
    with pytest.raises(errors.ZeroParameter):
        oracle.curve_order(f5, f5.zero)


@pytest.mark.parametrize("m", [2, 3, 4])
def test_sum_over_all_a(m):
    f = get_field(m)
    assert sum(oracle.kloosterman_sum(f, a).value for a in f.nonzero_elements()) == f.q


@pytest.mark.parametrize("m", [2, 3, 4, 5])
def test_divisible_by_3_and_9_iff_trace_zero(m):
    f = get_field(m)
    for a in f.nonzero_elements():
        K = oracle.kloosterman_sum(f, a).value
        assert K % 3 == 0
        assert (K % 9 == 0) == (a.trace() == 0)
        if a.trace() != 0:
            assert K % 9 in (3, 6)  # = +-3 mod 9


@pytest.mark.parametrize("m", [2, 3, 4, 5])
def test_weil_bound_and_integrality(m):
    """Weil bound and full-field sum; the convolution raises on a sum off
    the rational integers."""
    verify._weil_and_sum((m,))


def test_curve_order_golden(f5):
    assert oracle.curve_order(f5, f5.alpha ** 31) == 243 + 27


@pytest.mark.parametrize("m", [2, 3, 4, 5])
def test_order_identity(m):
    verify._order_identity((m,))


def test_f9_order_table_against_double_loop(f2):
    # independent oracle: literal double loop over (x, y) pairs
    for a in f2.nonzero_elements():
        brute = 1  # infinity
        for x in f2.elements():
            for y in f2.elements():
                if y * y == x ** 3 + x ** 2 - a:
                    brute += 1
        assert oracle.curve_order(f2, a) == brute


def test_val3():
    assert oracle.val3(27, 5) == 3
    assert oracle.val3(0, 4) == 4
    assert oracle.val3(-6, 3) == 1
    assert oracle.val3(1, 7) == 0


def test_chunking_does_not_change_counts(f5, monkeypatch):
    a = f5.alpha ** 100
    full = oracle.kloosterman_sum(f5, a)
    monkeypatch.setattr(oracle, "_CHUNK", 37)
    assert oracle.kloosterman_sum(f5, a) == full


def test_cap_exceeded_without_tables(tableless):
    stripped = tableless(get_field(4))
    with pytest.raises(errors.CapExceeded):
        oracle.kloosterman_sum(stripped, stripped.el(1))


def test_inconsistent_counts_rejected():
    with pytest.raises(errors.Ksum3Error):
        oracle.KloostermanValue(value=5, counts=(3, 1, 2))    # c1 != c2
    with pytest.raises(errors.Ksum3Error):
        oracle.KloostermanValue(value=5, counts=(3, 1, 1))    # value != c0 - c1
    assert oracle.KloostermanValue(value=2, counts=(3, 1, 1)).value == 2


# ---------------------------------------------------------------------------
# kloosterman_sums: every K(a) from one cyclic convolution
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("m,modulus", [(m, None) for m in range(2, 8)] + NON_PRIMITIVE_FIELDS,
                         ids=[f"m{m}" for m in range(2, 8)]
                         + [f"m{m}-{mod[2:]}" for m, mod in NON_PRIMITIVE_FIELDS])
def test_kloosterman_sums_match_the_direct_sum(m, modulus):
    f = Field(m, modulus) if modulus else get_field(m)
    K = oracle.kloosterman_sums(f)
    assert len(K) == f.q and K[0] is None
    assert K[1:] == [oracle.kloosterman_sum(f, a).value for a in f.nonzero_elements()]


@pytest.mark.parametrize("m", [8, 9, 10])
def test_kloosterman_sums_match_the_direct_sum_on_seeded_a(m):
    f = get_field(m)
    K = oracle.kloosterman_sums(f)
    rng = random.Random(m)
    for code in (rng.randrange(1, f.q) for _ in range(40)):
        assert K[code] == oracle.kloosterman_sum(f, f.el(code)).value


@pytest.mark.parametrize("m", range(2, 11))
def test_kloosterman_sums_total_and_weil_bound(m):
    f = get_field(m)
    K = oracle.kloosterman_sums(f)[1:]
    assert sum(K) == f.q
    assert max(k * k for k in K) <= 4 * f.q


@pytest.mark.parametrize("shift", [0.3, 0.3j])
def test_kloosterman_sums_refuse_to_round_an_inexact_convolution(f5, monkeypatch, shift):
    """A convolution 0.3 off the integers (in the real or the imaginary
    part) raises; it is not rounded to a wrong K."""
    import numpy.fft
    ifft = numpy.fft.ifft
    monkeypatch.setattr(numpy.fft, "ifft", lambda x: ifft(x) + shift)
    with pytest.raises(errors.Ksum3Error):
        oracle.kloosterman_sums(f5)


def test_kloosterman_sums_need_tables(tableless):
    stripped = tableless(get_field(4))
    with pytest.raises(errors.CapExceeded):
        oracle.kloosterman_sums(stripped)
