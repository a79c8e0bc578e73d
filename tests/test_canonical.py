import itertools
import random

import pytest

from eocount import Signature, canonical_form, permutation_equivalent, tensor
from eocount.errors import SizeCapExceeded
from eocount.hadamard import basic_kernel, butterfly
from eocount.signatures import DELTA0, DELTA1

from helpers import permute_columns

F2 = Signature.from_strings(["1100", "1010", "1001"])
G2 = Signature.from_strings(["0011", "0101", "0110"])


def reference_canonical(f: Signature) -> Signature:
    """Exhaustive minimum over all column permutations (column-major order
    of the row-sorted matrix); only usable for tiny arities."""
    rows = f.rows_sorted()
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
        assert canonical_form(permute_columns(f, perm)) == canonical_form(f)
        assert permutation_equivalent(f, permute_columns(f, perm))


def test_different_sizes_not_equivalent():
    assert not permutation_equivalent(F2, Signature.from_strings(["1100", "1010"]))
    assert not permutation_equivalent(F2, Signature.from_strings(["110", "101"]))


def test_size_cap():
    wide = Signature(70, frozenset({(1,) * 70}))
    with pytest.raises(SizeCapExceeded):
        canonical_form(wide)
