import pytest

from eocount import is_affine
from eocount.errors import SizeCapExceeded
from eocount.hadamard import (
    Polarity,
    balanced_code,
    basic_kernel,
    basic_kernel_zero,
    butterfly,
    hadamard_code,
    sylvester,
    wings,
)
from eocount.signatures import bits_str, complement, delta_factors, is_eo

from helpers import column, wt

B2_ROWS = {"00001111", "01101001", "01011010", "00111100"}
L2_ROWS = {"0110", "0101", "0011"}
R2_ROWS = {"1001", "1010", "1100"}


def rows(sig):
    return {bits_str(r) for r in sig.support}


def test_sylvester_matrices():
    for k in range(0, 5):
        h = sylvester(k)
        assert h.order == 2**k
        assert h.is_hadamard()


def test_sylvester_cap():
    with pytest.raises(SizeCapExceeded):
        sylvester(9)


def test_hadamard_code_shapes():
    for k in (1, 2, 3):
        for variant in Polarity:
            c = hadamard_code(k, variant)
            assert c.arity == 2**k
            assert len(c.support) == 2**k
    # 0-variant contains the all-0 word, 1-variant the all-1 word
    assert (0,) * 4 in hadamard_code(2, Polarity.ZERO).support
    assert (1,) * 4 in hadamard_code(2, Polarity.ONE).support


def test_codes_read_their_definitions():
    for k in range(0, 6):
        entries = sylvester(k).entries
        for variant, hit in ((Polarity.ONE, 1), (Polarity.ZERO, 0)):
            want = {tuple(hit if e > 0 else 1 - hit for e in row) for row in entries}
            assert hadamard_code(k, variant).support == want
    for k in range(1, 5):
        # row a: bit m is the parity of a & m, then the complement of that
        half = range(1 << k)
        left = [tuple(bin(a & m).count("1") % 2 for m in half) for a in half]
        want = {r + tuple(1 - b for b in r) for r in left}
        assert butterfly(k).support == want


def test_balanced_code_drops_constant_word():
    for k in (1, 2, 3, 4):
        for variant in Polarity:
            b = balanced_code(k, variant)
            assert len(b.support) == 2**k - 1
            assert (0,) * 2**k not in b.support
            assert (1,) * 2**k not in b.support
            # every remaining word is balanced
            assert all(wt(r) * 2 == 2**k for r in b.support)


def test_butterfly_structure():
    for k in (1, 2, 3, 4):
        b = butterfly(k)
        assert b.arity == 2 ** (k + 1)
        assert len(b.support) == 2**k
        assert is_affine(b)
        assert is_eo(b)
        # no two columns identical
        cols = [column(b, i) for i in range(1, b.arity + 1)]
        assert len(set(cols)) == b.arity


def test_butterfly_golden():
    assert rows(butterfly(2)) == B2_ROWS


def test_wings_golden():
    left, right = wings(2)
    assert rows(left) == L2_ROWS
    assert rows(right) == R2_ROWS


def test_wings_are_halves():
    for k in (2, 3):
        left, right = wings(k)
        assert left.arity == right.arity == 2**k
        assert len(left.support) == len(right.support) == 2**k - 1
        assert complement(right) == left


def test_right_wing_is_balanced_code():
    for k in (1, 2, 3, 4, 5):
        left, right = wings(k)
        assert right.support == balanced_code(k, Polarity.ONE).support
        assert left.support == balanced_code(k, Polarity.ZERO).support


def test_basic_kernel_small():
    assert rows(basic_kernel(1)) == {"10"}
    assert rows(basic_kernel(2)) == R2_ROWS
    ones, zeros = delta_factors(basic_kernel(3))
    assert len(ones) == 1 and not zeros


def test_basic_kernel_zero_is_complement():
    for k in (1, 2, 3):
        assert basic_kernel_zero(k) == complement(basic_kernel(k))


def test_butterfly_cap():
    with pytest.raises(SizeCapExceeded):
        butterfly(6)
    with pytest.raises(ValueError):
        butterfly(0)
