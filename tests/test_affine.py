import random

import pytest

from eocount import NEQ2, Signature, is_affine
from eocount.affine import (
    AffineSystem,
    affine_system,
    constant_weight_profile,
    count_packed,
    count_solutions,
    gf2_eliminate,
    gf2_nullspace,
    gf2_rank,
    pairwise_opposite_pairs,
    random_affine_signature,
)
from eocount.errors import PairingError
from eocount.signatures import delta_factors, is_eo, wt

from helpers import random_affine_eo

F2 = Signature.from_strings(["1100", "1010", "1001"])


def test_gf2_basics():
    rows = [0b011, 0b101, 0b110]
    assert gf2_rank(rows, 3) == 2
    ech = gf2_eliminate(rows, 3)
    assert len(ech) == 2
    null = gf2_nullspace(rows, 3)
    assert len(null) == 1
    v = null[0]
    for r in rows:
        assert bin(r & v).count("1") % 2 == 0


def test_is_affine_basic():
    assert is_affine(NEQ2)
    assert is_affine(Signature.from_strings(["0110", "1001"]))
    assert not is_affine(F2)
    # full weight-2 support of arity 4 has size 6, not a power of two
    full = Signature.from_strings(["1100", "1010", "1001", "0110", "0101", "0011"])
    assert not is_affine(full)
    # closure under triple XOR holds exactly for affine sets
    assert is_affine(Signature.from_strings(["00", "01", "10", "11"]))
    assert not is_affine(Signature.from_strings(["00", "01", "10"]))


def test_empty_and_singleton_are_affine():
    assert is_affine(Signature(3, frozenset()))
    assert is_affine(Signature.from_strings(["101"]))


def test_affine_system_roundtrip():
    for f in (
        NEQ2,
        Signature.from_strings(["0110", "1001"]),
        Signature.from_strings(["101"]),
        Signature(2, frozenset()),
    ):
        sys_ = affine_system(f)
        assert frozenset(sys_.solutions()) == f.support


def test_affine_system_rejects_non_affine():
    with pytest.raises(Exception):
        affine_system(F2)


def test_affine_system_text():
    text = affine_system(NEQ2).to_text()
    assert "constraints" in text


def test_count_solutions():
    s1 = affine_system(NEQ2)
    assert count_solutions([s1]) == 2
    # systems stack over one shared variable set
    assert count_solutions([s1, s1]) == 2
    assert count_solutions([s1], extra_equations=[(1, 0, 1)]) == 1
    assert count_solutions([s1], extra_equations=[(1, 1, 0)]) == 0


def test_count_packed_inconsistent():
    # 0 = 1 alone
    assert count_packed([1 << 2], 2) == 0
    assert count_packed([], 2) == 4


def test_pairwise_opposite_simple():
    pairs = pairwise_opposite_pairs(NEQ2)
    assert pairs == [(1, 2)]
    with pytest.raises(ValueError):
        pairwise_opposite_pairs(F2)


def test_pairwise_opposite_random_affine_eo(rng):
    # every affine EO signature decomposes into complementary column pairs
    for _ in range(200):
        f = random_affine_eo(rng, rng.randint(1, 3))
        pairs = pairwise_opposite_pairs(f)
        assert len(pairs) == f.arity // 2
        rows = f.rows_sorted()
        for i, j in pairs:
            for r in rows:
                assert r[i - 1] != r[j - 1]


def test_constant_weight_without_delta_is_eo_and_balanced(rng):
    # an affine signature of constant weight and no delta factor must be a
    # half-weight (EO) signature with balanced columns
    seen = 0
    while seen < 120:
        f = random_affine_signature(rng, rng.randint(2, 6))
        if not f.support:
            continue
        constant, weight = constant_weight_profile(f)
        if not constant:
            continue
        ones, zeros = delta_factors(f)
        if ones or zeros or len(f.support) < 2:
            continue
        seen += 1
        assert f.arity % 2 == 0 and weight == f.arity // 2
        assert is_eo(f)
        for i in range(1, f.arity + 1):
            col = f.column(i)
            assert wt(col) * 2 == len(f.support)


def test_random_affine_signature_is_affine(rng):
    for _ in range(100):
        f = random_affine_signature(rng, rng.randint(1, 6))
        assert is_affine(f)


def test_pairing_error_type_exists():
    assert issubclass(PairingError, Exception)
