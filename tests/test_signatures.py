import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from eocount import (
    DELTA0,
    DELTA1,
    NEQ2,
    SCALAR_ONE,
    SCALAR_ZERO,
    Signature,
    complement,
    delta_factors,
    extract,
    hat,
    is_eo,
    m_multiple,
    multiple_decompose,
    pin,
    pin2,
    signature_from_text,
    signature_to_text,
    strip_columns,
    tensor,
)
from eocount.errors import FormatError
from eocount.signatures import (
    WeightedSignature,
    connect,
    loop_diseq,
    wt,
)

F2 = Signature.from_strings(["1100", "1010", "1001"])
G2 = Signature.from_strings(["0011", "0101", "0110"])


def small_signatures():
    return st.integers(1, 5).flatmap(
        lambda ar: st.frozensets(
            st.tuples(*([st.integers(0, 1)] * ar)), min_size=1, max_size=8
        ).map(lambda sup: Signature(ar, sup))
    )


def test_constants():
    assert SCALAR_ONE.arity == 0 and len(SCALAR_ONE.support) == 1
    assert SCALAR_ZERO.is_zero()
    assert DELTA1.support == frozenset({(1,)})
    assert DELTA0.support == frozenset({(0,)})
    assert NEQ2.support == frozenset({(0, 1), (1, 0)})


def test_row_validation():
    with pytest.raises(ValueError):
        Signature.from_strings(["110", "10"])
    with pytest.raises(ValueError):
        Signature(2, frozenset({(0, 2)}))


def test_is_eo():
    assert is_eo(F2) and is_eo(G2) and is_eo(NEQ2)
    assert not is_eo(DELTA1)
    assert not is_eo(Signature.from_strings(["1110"]))
    # empty support is vacuously EO
    assert is_eo(Signature(4, frozenset()))


def test_pin_and_extract():
    assert pin(F2, 1, 1) == Signature.from_strings(["100", "010", "001"])
    assert pin(F2, 1, 0).is_zero()
    e = extract(F2, 2, 1)
    assert e == Signature.from_strings(["1100"])
    assert extract(F2, 2, 0) == Signature.from_strings(["1010", "1001"])
    with pytest.raises(IndexError):
        pin(F2, 5, 0)


def test_pin2():
    assert pin2(F2, 1, 2, 1, 0) == Signature.from_strings(["10", "01"])
    assert pin2(F2, 1, 2, 1, 1) == Signature.from_strings(["00"])


def test_tensor_and_complement():
    t = tensor(DELTA1, G2)
    assert t.arity == 5
    assert t.support == frozenset({(1,) + r for r in G2.support})
    assert complement(F2) == G2
    assert complement(complement(F2)) == F2


def test_hat_is_involution():
    assert hat(hat(F2)) == F2
    # hat toggles the all-1 row in the support
    assert hat(F2) == Signature.from_strings(["1100", "1010", "1001", "1111"])


def test_delta_factors():
    ones, zeros = delta_factors(F2)
    assert list(ones) == [1] and list(zeros) == []
    ones, zeros = delta_factors(tensor(DELTA0, F2))
    assert list(ones) == [2] and list(zeros) == [1]
    with pytest.raises(ValueError):
        delta_factors(Signature(3, frozenset()))


def test_strip_columns():
    assert strip_columns(F2, (1,)) == Signature.from_strings(["100", "010", "001"])


def test_m_multiple_roundtrip():
    f = m_multiple(F2, 3)
    assert f.arity == 12 and len(f.support) == 3
    base, m, grouping = multiple_decompose(f)
    assert m == 3 and base == F2
    assert all(len(g) == 3 for g in grouping)
    base1, m1, _ = multiple_decompose(F2)
    assert m1 == 1 and base1 == F2


def test_multiple_decompose_uneven_groups():
    # one duplicated column among distinct ones: not a uniform multiple
    f = Signature.from_strings(["11100", "10010", "10001"])
    _, m, _ = multiple_decompose(f)
    assert m == 1


def test_weighted_signature():
    w = WeightedSignature.of(F2)
    assert w[(1, 1, 0, 0)] == 1 and w[(0, 0, 1, 1)] == 0
    assert w.to_signature() == F2
    with pytest.raises(ValueError):
        WeightedSignature(2, {(0, 1): -1})


def test_loop_diseq_matches_manual_count():
    # looping two slots of f2 with a disequality leaves the arity-2 residual
    w = loop_diseq(F2, 1, 2)
    assert w.to_signature() == Signature.from_strings(["10", "01"])


def test_connect():
    w = connect(DELTA1, 1, NEQ2, 1)
    assert w.to_signature() == Signature.from_strings(["1"])


def test_text_roundtrip():
    text = signature_to_text(F2)
    assert signature_from_text(text) == F2
    assert signature_from_text("# a comment\n1100\n\n1010\n1001\n") == F2


def test_text_empty_support_needs_header():
    f = Signature(4, frozenset())
    text = signature_to_text(f)
    assert "arity 4" in text
    assert signature_from_text(text) == f
    with pytest.raises(FormatError):
        signature_from_text("# nothing here\n")


def test_text_rejects_ragged_rows():
    with pytest.raises(FormatError):
        signature_from_text("110\n10\n")
    with pytest.raises(FormatError):
        signature_from_text("1a0\n")


@settings(max_examples=60, deadline=None)
@given(small_signatures())
def test_complement_involution_property(f):
    assert complement(complement(f)) == f


@settings(max_examples=60, deadline=None)
@given(small_signatures(), st.integers(0, 1))
def test_pin_partitions_support(f, b):
    i = 1
    kept = {r for r in f.support if r[0] == b}
    assert len(pin(f, i, b).support) == len(kept)
    assert len(pin(f, i, 0).support) + len(pin(f, i, 1).support) == len(f.support)


@settings(max_examples=60, deadline=None)
@given(small_signatures())
def test_text_roundtrip_property(f):
    assert signature_from_text(signature_to_text(f)) == f


@settings(max_examples=40, deadline=None)
@given(small_signatures(), small_signatures())
def test_tensor_support_sizes(f, g):
    t = tensor(f, g)
    assert t.arity == f.arity + g.arity
    assert len(t.support) == len(f.support) * len(g.support)
    assert all(wt(r) == wt(r[: f.arity]) + wt(r[f.arity :]) for r in t.support)
