import pytest

from ksum3 import errors, oracle
from ksum3.field import get_field


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
    f = get_field(m)
    for a in f.nonzero_elements():
        kv = oracle.kloosterman_sum(f, a)
        assert kv.value ** 2 <= 4 * f.q
        assert kv.counts[1] == kv.counts[2]


def test_curve_order_golden(f5):
    assert oracle.curve_order(f5, f5.alpha ** 31) == 243 + 27


@pytest.mark.parametrize("m", [2, 3, 4, 5])
def test_order_identity(m):
    f = get_field(m)
    for a in f.nonzero_elements():
        K = oracle.kloosterman_sum(f, a).value
        order = oracle.curve_order(f, a)
        assert order == f.q + K
        assert order % 3 == 0


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
