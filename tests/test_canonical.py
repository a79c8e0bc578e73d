import itertools
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from eocount import (
    NEQ2, Signature, canonical, canonical_form, classes, permutation_equivalent, tensor,
)
from eocount.errors import BudgetExceeded
from eocount.hadamard import Polarity, balanced_code, basic_kernel, butterfly, wings
from eocount.signatures import DELTA0, DELTA1, m_multiple

from helpers import permute_columns, random_affine_eo, ref_canonical, rows_sorted

F2 = Signature.from_strings(["1100", "1010", "1001"])
G2 = Signature.from_strings(["0011", "0101", "0110"])


def reference_canonical(f: Signature) -> Signature:
    """Exhaustive minimum over all column permutations (column-major order
    of the row-sorted matrix); only usable for tiny arities."""
    rows = rows_sorted(f)
    best = None
    for p in itertools.permutations(range(f.arity)):
        mat = sorted(tuple(r[c] for c in p) for r in rows)
        key = tuple(tuple(row[j] for row in mat) for j in range(f.arity))
        if best is None or key < best[0]:
            best = (key, frozenset(mat))
    return Signature(f.arity, best[1])


def test_reversed_columns_equal():
    rev = permute_columns(F2, list(reversed(range(4))))
    assert canonical_form(rev) == canonical_form(F2)


def test_f2_g2_differ():
    assert canonical_form(F2) != canonical_form(G2)
    assert not permutation_equivalent(F2, G2)


def test_delta_order_irrelevant():
    assert canonical_form(tensor(DELTA1, DELTA0)) == canonical_form(
        tensor(DELTA0, DELTA1)
    )


def test_trivial_cases():
    empty = Signature(3, frozenset())
    assert canonical_form(empty) == empty
    scalar = Signature(0, frozenset({()}))
    assert canonical_form(scalar) == scalar


def test_matches_reference_on_random_supports():
    rng = random.Random(42)
    for _ in range(150):
        ar = rng.randint(1, 6)
        size = rng.randint(1, min(10, 2**ar))
        sup = set()
        while len(sup) < size:
            sup.add(tuple(rng.randint(0, 1) for _ in range(ar)))
        f = Signature(ar, frozenset(sup))
        assert canonical_form(f) == reference_canonical(f)


def test_shuffle_invariance_large():
    rng = random.Random(7)
    for f in (basic_kernel(4), butterfly(3), basic_kernel(5)):
        perm = list(range(f.arity))
        rng.shuffle(perm)
        g = permute_columns(f, perm)
        assert canonical_form(g) == canonical_form(f)
        # the kernels share a shape, so the route alone would make the first
        # check hold; the search is compared across the two orders here
        assert canonical._canonicalize(g) == canonical._canonicalize(f)
        assert permutation_equivalent(f, g)


def test_different_sizes_not_equivalent():
    assert not permutation_equivalent(F2, Signature.from_strings(["1100", "1010"]))
    assert not permutation_equivalent(F2, Signature.from_strings(["110", "101"]))


def test_no_arity_cap():
    # NODE_BUDGET bounds the search, not the arity: the kernels that
    # `eocount gen kernel --k 6 --m 2` and `--m 3` emit (arity 128 and 192)
    # and a 4-multiple of basic_kernel(5) get their forms
    wide = Signature(70, frozenset({(1,) * 70}))
    assert canonical_form(wide) == wide
    rng = random.Random(27)
    for f in (m_multiple(basic_kernel(6), 2), m_multiple(basic_kernel(6), 3),
              m_multiple(basic_kernel(5), 4)):
        want = fresh_form(f)
        for _ in range(2):
            perm = list(range(f.arity))
            rng.shuffle(perm)
            assert fresh_form(permute_columns(f, perm)) == want


def test_cap_bounds_the_arity_not_the_support():
    rng = random.Random(1)
    f = random_affine_eo(rng, 7)
    assert (f.arity, len(f.rows)) == (14, 128)
    forms = set()
    for _ in range(4):
        perm = list(range(f.arity))
        rng.shuffle(perm)
        forms.add(fresh_form(permute_columns(f, perm)))
    assert forms == {ref_canonical(f)}


# generator families up to arity 32: kernels with m = 1..3, wings, balanced
# codes and butterflies
FAMILIES = [
    *(m_multiple(basic_kernel(k), m)
      for k in range(1, 6) for m in (1, 2, 3) if m << k <= 32),
    *(w for k in range(1, 6) for w in wings(k)),
    *(balanced_code(k, pol) for k in range(1, 6) for pol in Polarity),
    *(butterfly(k) for k in range(1, 5)),
]


@st.composite
def supports_with_twins(draw):
    """Random support of arity <= 12 in which some columns repeat."""
    base = draw(st.integers(1, 8))
    arity = draw(st.integers(base + 1, 12))
    rows = draw(st.sets(st.integers(0, (1 << base) - 1), min_size=1, max_size=16))
    twins = draw(st.lists(st.integers(0, base - 1),
                          min_size=arity - base, max_size=arity - base))
    cols = draw(st.permutations([*range(base), *twins]))
    return Signature(arity, frozenset(tuple((r >> c) & 1 for c in cols) for r in rows))


def fresh_form(f: Signature) -> Signature:
    """canonical_form with no kept form and no kept representative, so a
    kernel is searched as given."""
    canonical._canonicalize.cache_clear()
    canonical._representatives.clear()
    return canonical_form(f)


@settings(max_examples=150, deadline=None)
@given(supports_with_twins())
def test_matches_reference_search_with_twin_columns(f):
    assert fresh_form(f) == ref_canonical(f)


@settings(max_examples=30, deadline=None)
@given(st.sampled_from(FAMILIES).flatmap(
    lambda f: st.permutations(range(f.arity)).map(lambda p: permute_columns(f, p))))
def test_matches_reference_search_on_permuted_families(g):
    assert fresh_form(g) == ref_canonical(g)


def test_node_budget_is_enforced(monkeypatch):
    perm = list(range(32))
    random.Random(3).shuffle(perm)
    g = permute_columns(basic_kernel(5), perm)
    monkeypatch.setattr(canonical, "NODE_BUDGET", 10)
    with pytest.raises(BudgetExceeded):
        fresh_form(g)
    assert canonical._canonicalize.cache_info().currsize == 0
    # a search that keys its way down to every leaf takes over 2,000 nodes
    monkeypatch.setattr(canonical, "NODE_BUDGET", 1000)
    assert canonical_form(g) == fresh_form(basic_kernel(5))


@pytest.mark.parametrize("k, nodes", [(4, 21), (5, 48)])
def test_search_tree_size_is_pinned(monkeypatch, k, nodes):
    # the search on one column permutation of basic_kernel(k) completes in
    # exactly ``nodes`` nodes, forced tails included: a change to how a
    # node keys or prunes its columns that moves the tree fails here
    perm = list(range(1 << k))
    random.Random(3).shuffle(perm)
    g = permute_columns(basic_kernel(k), perm)
    monkeypatch.setattr(canonical, "NODE_BUDGET", nodes - 1)
    canonical._canonicalize.cache_clear()
    with pytest.raises(BudgetExceeded):
        canonical._canonicalize(g)
    monkeypatch.setattr(canonical, "NODE_BUDGET", nodes)
    canonical._canonicalize.cache_clear()
    assert canonical._canonicalize(g) == ref_canonical(g)


def shuffled(f: Signature, seed) -> Signature:
    perm = list(range(f.arity))
    random.Random(seed).shuffle(perm)
    return permute_columns(f, perm)


@pytest.mark.parametrize("pol", list(Polarity))
@pytest.mark.parametrize("k", [3, 4, 5])
def test_route_by_shape_matches_the_search(pol, k):
    # every kernel of one shape is given its representative's form, which
    # must be the form the search finds on the kernel itself
    for m in (1, 2, 3):
        f = m_multiple(balanced_code(k, pol), m)
        for seed in range(3):
            g = shuffled(f, f"{pol.value}/{k}/{m}/{seed}")
            assert classes._hadamard_shape(g) == (pol, k, m)
            form = canonical_form(g)
            assert form == canonical._canonicalize(g)
            if g.arity <= 32:
                assert form == ref_canonical(g)


def test_route_by_shape_matches_the_search_at_arity_64():
    first, second = (shuffled(basic_kernel(6), seed) for seed in (64, 65))
    canonical._representatives.clear()
    canonical_form(first)
    assert canonical_form(second) == canonical._canonicalize(second)


@pytest.mark.parametrize("f", [
    m_multiple(basic_kernel(2), 3),  # the trivial kernel: support 3
    tensor(NEQ2, basic_kernel(3)),
    # seven-row EO supports of arity 8 that are no kernel
    Signature._packed(8, basic_kernel(3).rows - {0b00001111} | {0b11110000}),
    Signature._packed(8, frozenset(
        random.Random(8).sample([r for r in range(256) if r.bit_count() == 4], 7))),
])
def test_labels_of_no_hadamard_shape_take_the_search(f):
    assert classes._hadamard_shape(f) is None
    canonical._canonicalize.cache_clear()
    copies = {shuffled(f, seed) for seed in range(3)}
    for g in copies:
        assert canonical_form(g) == ref_canonical(g)
    assert canonical._canonicalize.cache_info().misses == len(copies)


def test_one_search_per_shape():
    f = m_multiple(basic_kernel(4), 2)
    canonical._canonicalize.cache_clear()
    forms = {canonical_form(shuffled(f, seed)) for seed in range(5)}
    assert forms == {ref_canonical(f)}
    assert canonical._canonicalize.cache_info().misses == 1


def test_representatives_stay_bounded(monkeypatch):
    monkeypatch.setattr(canonical, "SHAPES_KEPT", 2)
    canonical._representatives.clear()
    for pol in Polarity:
        for k in (3, 4):
            g = shuffled(balanced_code(k, pol), k)
            assert canonical_form(g) == ref_canonical(g)
            assert len(canonical._representatives) <= 2
    assert list(canonical._representatives) == [(Polarity.ZERO, 3, 1),
                                                (Polarity.ZERO, 4, 1)]


def test_permutation_equivalent_on_hadamard_kernels():
    f = m_multiple(basic_kernel(4), 2)
    assert permutation_equivalent(shuffled(f, 1), shuffled(f, 2))
    one, zero = balanced_code(4, Polarity.ONE), balanced_code(4, Polarity.ZERO)
    assert (one.arity, len(one.rows)) == (zero.arity, len(zero.rows))
    assert not permutation_equivalent(one, zero)
    assert not permutation_equivalent(zero, shuffled(one, 3))
    # one side a kernel, the other of the same size but no kernel
    other = Signature._packed(16, frozenset(sorted(r for r in range(1 << 16)
                                                   if r.bit_count() == 8)[:15]))
    assert not permutation_equivalent(one, other)
