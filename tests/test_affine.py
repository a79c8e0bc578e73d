import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from eocount import NEQ2, Signature, is_affine
from eocount.affine import (
    _affine_rows,
    affine_system,
    constant_weight_profile,
    count_packed,
    gf2_eliminate,
    pairwise_opposite_pairs,
    random_affine_signature,
)
from eocount.errors import NotAffineError, PairingError
from eocount.signatures import delta_factors, is_eo

from helpers import column, gauss_jordan, random_affine_eo, ref_is_affine, rows_sorted, wt

F2 = Signature.from_strings(["1100", "1010", "1001"])


def test_gf2_basics():
    rows = [0b011, 0b101, 0b110]
    assert gf2_eliminate(rows, 3) == [0b101, 0b110]


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


# coset dimensions d in two bands of row count 2^d, fewer than 16 rows and
# 16 or more, so that large cosets get as many examples as small ones
_DIMS = {
    "full_reduction": [d for d in range(8) if 1 << d < 16],
    "coset": [d for d in range(8) if 1 << d >= 16],
}


@st.composite
def _row_sets(draw, dims):
    """(width, rows, container): a coset of 2^d points for d in ``dims``,
    1 to 192 bits wide, the same coset with one bit of one point flipped,
    or a random set of 2^d rows; passed as a shuffled list, a set or a
    frozenset."""
    d = draw(st.sampled_from(dims))
    width = draw(st.integers(d + 1, 192))
    word = st.integers(0, (1 << width) - 1)
    kind = draw(st.sampled_from(["coset", "flipped", "random"]))
    if kind == "random":
        rows = draw(st.sets(word, min_size=1 << d, max_size=1 << d))
    else:
        # distinct lowest set bits make the basis independent
        lows = draw(st.lists(st.integers(0, width - 1), min_size=d, max_size=d,
                             unique=True))
        points = [draw(word)]
        for p in lows:
            b = draw(word) >> (p + 1) << (p + 1) | 1 << p
            points += [x ^ b for x in points]
        if kind == "flipped":
            points[draw(st.integers(0, len(points) - 1))] ^= 1 << draw(
                st.integers(0, width - 1))
        rows = set(points)
    container = draw(st.sampled_from([list, set, frozenset]))
    given = container(rows)
    if container is list:
        draw(st.randoms(use_true_random=False)).shuffle(given)
    return width, rows, given


@pytest.mark.parametrize("path", sorted(_DIMS))
@settings(max_examples=500, deadline=None)
@given(data=st.data())
def test_affine_rows_matches_rank_reference(path, data):
    width, rows, given = data.draw(_row_sets(_DIMS[path]))
    got = _affine_rows(given)
    assert (got is not None) == ref_is_affine(rows, width)
    if got is not None:
        base, basis = got
        span = {base}
        for b in basis:
            span |= {x ^ b for x in span}
        assert span == rows and len(span) == 1 << len(basis)


def _cut_out(constraints, n) -> frozenset:
    """Vectors of n bits on which every packed constraint row holds."""
    return frozenset(
        tuple(x >> i & 1 for i in range(n))
        for x in range(1 << n)
        if all(((x << 1 | 1) & row).bit_count() % 2 == 0 for row in constraints)
    )


def test_affine_system_roundtrip(rng):
    fixed = [
        NEQ2,
        Signature.from_strings(["0110", "1001"]),
        Signature.from_strings(["101"]),
        Signature(2, frozenset()),
    ]
    randoms = [random_affine_signature(rng, rng.randint(1, 6)) for _ in range(40)]
    for f in fixed + randoms:
        sys_ = affine_system(f)
        assert _cut_out(sys_.constraints, f.arity) == f.support
        # the constraints are rows for count_packed, "0 = 1" for no support
        assert count_packed(list(sys_.constraints), f.arity) == len(f.rows)
        assert (sys_.offset is None) == (not f.support)
        if f.support:
            assert 1 << len(sys_.basis) == len(f.support)
            assert tuple(sys_.offset >> i & 1 for i in range(f.arity)) in f.support


def test_affine_system_rejects_non_affine():
    with pytest.raises(NotAffineError):
        affine_system(F2)
    # a power-of-two support that is not affine
    with pytest.raises(NotAffineError):
        affine_system(Signature.from_strings(["1100", "1010", "1001", "0110"]))


def test_count_packed_inconsistent():
    # 0 = 1 alone
    assert count_packed([1], 2) == 0
    assert count_packed([], 2) == 4


def _width_and_rows(max_width: int, extra_bits: int):
    """(n, up to 12 random rows of n + extra_bits bits) for n <= max_width."""
    return st.integers(0, max_width).flatmap(
        lambda n: st.tuples(
            st.just(n),
            st.lists(st.integers(0, (1 << (n + extra_bits)) - 1), max_size=12),
        )
    )


@settings(max_examples=150, deadline=None)
@given(_width_and_rows(40, 0))
def test_gf2_eliminate_matches_gauss_jordan(case):
    ncols, rows = case
    assert gf2_eliminate(rows, ncols) == gauss_jordan(rows, ncols)


@settings(max_examples=150, deadline=None)
@given(_width_and_rows(10, 1))  # the constant term sits at bit 0
def test_count_packed_matches_enumeration(case):
    n, rows = case
    want = sum(
        all(((x << 1 | 1) & r).bit_count() % 2 == 0 for r in rows)
        for x in range(1 << n)
    )
    assert count_packed(rows, n) == want


@st.composite
def _wide_systems(draw):
    """(n, rows) with n <= 192 variables, the constant at bit 0: random
    rows, then XORs of some of them, each with its constant flipped or not.
    A flipped XOR puts 0 = 1 in the row space, so some systems are
    inconsistent on purpose."""
    n = draw(st.integers(0, 192))
    rows = draw(st.lists(st.integers(0, (2 << n) - 1), max_size=24))
    for _ in range(draw(st.integers(0, 3)) if rows else 0):
        pick = draw(st.integers(1, (1 << len(rows)) - 1))
        combo = 0
        for i, r in enumerate(rows):
            if pick >> i & 1:
                combo ^= r
        rows.append(combo ^ draw(st.integers(0, 1)))
    return n, rows


@settings(max_examples=150, deadline=None)
@given(_wide_systems())
def test_count_packed_matches_rank_reference_on_wide_rows(case):
    n, rows = case
    rank = len(gauss_jordan([r >> 1 for r in rows], n))
    augmented = len(gauss_jordan(rows, n + 1))
    assert count_packed(rows, n) == (1 << n - rank if augmented == rank else 0)


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
        rows = rows_sorted(f)
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
            col = column(f, i)
            assert wt(col) * 2 == len(f.support)


def test_random_affine_signature_is_affine(rng):
    for _ in range(100):
        f = random_affine_signature(rng, rng.randint(1, 6))
        assert is_affine(f)


def test_pairing_error_type_exists():
    assert issubclass(PairingError, Exception)
