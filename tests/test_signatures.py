from dataclasses import FrozenInstanceError

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
    is_eo,
    m_multiple,
    pin,
    pin2,
    signature_from_text,
    signature_to_text,
    strip_columns,
    tensor,
)
from eocount.errors import FormatError
from eocount.signatures import WeightedSignature, permute_columns

import helpers
from helpers import wt

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
    assert strip_columns(f, range(5, 13)) == F2


def test_weighted_signature():
    with pytest.raises(ValueError):
        WeightedSignature(2, {(0, 1): -1})
    with pytest.raises(ValueError):
        WeightedSignature(2, {(2, 0): 1, (0, 7): 3})


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


def test_text_scalars_round_trip():
    assert signature_to_text(SCALAR_ONE) == "-\n"
    assert signature_to_text(SCALAR_ZERO) == "arity 0\n"
    for f in (SCALAR_ONE, SCALAR_ZERO):
        assert signature_from_text(signature_to_text(f)) == f
    assert signature_from_text("arity 0\n-\n") == SCALAR_ONE
    with pytest.raises(FormatError):
        signature_from_text("arity 2\n-\n")
    with pytest.raises(FormatError):
        signature_from_text("-\n10\n")


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


def bit_supports(max_arity=10):
    """(arity, support as a frozenset of 0/1 tuples), arity 0 and the empty
    support included."""
    return st.integers(0, max_arity).flatmap(
        lambda n: st.tuples(
            st.just(n),
            st.frozensets(st.tuples(*([st.integers(0, 1)] * n)), max_size=12),
        )
    )


def view(f):
    return f.arity, f.support


@settings(max_examples=200, deadline=None)
@given(bit_supports(), st.data())
def test_packed_operations_match_bit_vector_references(case, data):
    n, sup = case
    f = Signature(n, sup)
    assert view(f) == (n, sup)
    assert is_eo(f) == (n % 2 == 0 and all(2 * wt(r) == n for r in sup))
    assert view(complement(f)) == helpers.ref_complement(n, sup)
    m = data.draw(st.integers(1, 3))
    assert view(m_multiple(f, m)) == helpers.ref_m_multiple(n, sup, m)
    drop = data.draw(st.sets(st.integers(1, n))) if n else set()
    assert view(strip_columns(f, drop)) == helpers.ref_strip_columns(n, sup, drop)
    perm = data.draw(st.permutations(range(n)))
    assert permute_columns(f, perm) == helpers.permute_columns(f, perm)
    text = signature_to_text(f)
    assert text == helpers.ref_text(n, sup)
    assert signature_from_text(text) == f
    if n:
        i, b = data.draw(st.integers(1, n)), data.draw(st.integers(0, 1))
        assert view(pin(f, i, b)) == helpers.ref_pin(n, sup, i, b)
        assert view(extract(f, i, b)) == helpers.ref_extract(n, sup, i, b)
    if n >= 2:
        i, j = data.draw(st.lists(st.integers(1, n), min_size=2, max_size=2,
                                  unique=True))
        a, b = data.draw(st.integers(0, 1)), data.draw(st.integers(0, 1))
        want = helpers.ref_pin2(n, sup, i, j, a, b)
        assert view(pin2(f, i, j, a, b)) == want
        assert view(pin2(f, j, i, b, a)) == want
    if not sup:
        with pytest.raises(ValueError):
            delta_factors(f)
        return
    assert delta_factors(f) == helpers.ref_delta_factors(n, sup)


@settings(max_examples=100, deadline=None)
@given(bit_supports(6), bit_supports(6))
def test_packed_tensor_matches_reference(left, right):
    f, g = Signature(*left), Signature(*right)
    assert view(tensor(f, g)) == helpers.ref_tensor(*left, *right)


@settings(max_examples=100, deadline=None)
@given(bit_supports())
def test_packed_constructor_matches_public_one(case):
    n, sup = case
    f = Signature(n, sup)
    g = Signature._packed(n, f.rows)
    assert type(g) is Signature
    assert g == f and hash(g) == hash(f)
    for name, value in (("arity", 0), ("rows", frozenset()), ("_support", None)):
        with pytest.raises(FrozenInstanceError):
            setattr(g, name, value)
    assert g._support is None  # the tuple view waits for its first use
    assert g.support == sup and g._support is g.support
