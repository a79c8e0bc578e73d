import random
from collections import Counter
from functools import lru_cache

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from eocount import (
    NEQ2,
    Signature,
    classify,
    complement,
    in_d0,
    in_d1,
    is_balanced_hadamard,
    is_d0_kernel,
    is_d1_kernel,
    kernel_structure,
    m_multiple,
    tensor,
)
from eocount import affine, canonical, canonical_form, classes, signatures
from eocount.classes import ClassReport, KernelKind, direct_d1_kernel
from eocount.errors import BudgetExceeded, SizeCapExceeded, StructureViolation
from eocount.hadamard import Polarity, balanced_code, basic_kernel, butterfly, wings
from eocount.signatures import (
    DELTA0,
    DELTA1,
    delta_factors,
    enumerate_eo_supports,
    strip_columns,
)

from helpers import (
    permute_columns,
    random_affine_eo,
    ref_hull,
    ref_in_class,
    ref_is_balanced_hadamard,
    ref_multiple_decompose,
)

F2 = Signature.from_strings(["1100", "1010", "1001"])
G2 = Signature.from_strings(["0011", "0101", "0110"])


def test_in_d1_families():
    assert in_d1(F2)
    assert not in_d1(G2)
    for k in (1, 2, 3, 4):
        assert in_d1(basic_kernel(k))
    assert in_d1(tensor(DELTA1, DELTA0))
    # plain affine signatures without a delta1 factor sit outside the class
    assert not in_d1(NEQ2)


def test_in_d1_budget_counts_memo_entries_not_arity(monkeypatch):
    classes._in_class.cache_clear()
    monkeypatch.setattr(classes, "MEMO_BUDGET", 2)
    assert in_d1(basic_kernel(6))  # arity 64, two new memo entries
    deep = tensor(tensor(basic_kernel(2), basic_kernel(2)), basic_kernel(2))
    with pytest.raises(BudgetExceeded, match="in_d1 budget of 2 "):
        in_d1(deep)  # arity 12, 13 new memo entries
    with pytest.raises(BudgetExceeded, match="in_d0 budget of 2 "):
        in_d0(complement(deep))


def test_in_d1_refusal_depends_on_the_label_alone(monkeypatch):
    # the recursion's memo lives for one call: verdicts kept from earlier
    # calls on the labels it reaches do not lift a refusal, while a label's
    # own kept verdict is returned
    classes._in_class.cache_clear()
    deep = tensor(tensor(basic_kernel(2), basic_kernel(2)), basic_kernel(2))
    own = signatures._folds(deep)[1]
    c = (own & -own).bit_length()
    children = [signatures.pin2(deep, c, i, 1, 0)
                for i in classes._open_pins(deep, own, affine._hull(deep.rows), 1)]
    assert len(children) == 9 and all(map(in_d1, children))
    monkeypatch.setattr(classes, "MEMO_BUDGET", 2)
    for _ in range(2):
        with pytest.raises(BudgetExceeded, match="in_d1 budget of 2 "):
            in_d1(deep)
    assert all(map(in_d1, children))


def test_memo_and_canonical_cache_stay_bounded(monkeypatch):
    rng = random.Random(3)
    bases = [basic_kernel(3), m_multiple(basic_kernel(2), 2), butterfly(2), F2,
             tensor(tensor(basic_kernel(2), basic_kernel(2)), DELTA1)]
    copies = []
    for f in bases:
        for _ in range(8):
            perm = list(range(f.arity))
            rng.shuffle(perm)
            copies.append(permute_columns(f, perm))

    classes._in_class.cache_clear()
    canonical._canonicalize.cache_clear()
    want = [(classify(g), canonical_form(g)) for g in copies]
    unbounded = (classes._in_class.cache_info().currsize,
                 canonical._canonicalize.cache_info().currsize)

    small = (lru_cache(maxsize=8)(classes._in_class.__wrapped__),
             lru_cache(maxsize=4)(canonical._canonicalize.__wrapped__))
    monkeypatch.setattr(classes, "_in_class", small[0])
    monkeypatch.setattr(canonical, "_canonicalize", small[1])
    for g, answer in zip(copies, want):
        assert (classify(g), canonical_form(g)) == answer
        assert small[0].cache_info().currsize <= 8
        assert small[1].cache_info().currsize <= 4
    assert unbounded[0] > 8 and unbounded[1] > 4


def test_in_d1_rejects_non_eo():
    with pytest.raises(ValueError):
        in_d1(Signature.from_strings(["1110"]))


def test_duality():
    for f in (F2, G2, basic_kernel(3), butterfly(2), NEQ2):
        assert in_d0(f) == in_d1(complement(f))
        assert is_d0_kernel(f) == is_d1_kernel(complement(f))


def test_kernels_detected():
    for k in (2, 3, 4, 5):
        for m in (1, 2):
            f = m_multiple(basic_kernel(k), m)
            assert is_d1_kernel(f)
            assert not is_d0_kernel(f)
    # order 1 is too small: stripping the delta1 leaves an affine residual
    assert not is_d1_kernel(basic_kernel(1))
    assert in_d1(basic_kernel(1))


def test_non_kernels():
    assert not is_d1_kernel(NEQ2)  # affine residual but no non-affine core
    assert not is_d1_kernel(butterfly(2))  # affine
    assert not is_d1_kernel(G2)  # delta-0 polarity
    assert is_d0_kernel(G2)
    # extra delta-0 factor disqualifies (delta1 added to keep the signature EO)
    assert not is_d1_kernel(tensor(DELTA0, tensor(DELTA1, F2)))


def test_kernel_structure_trivial():
    info = kernel_structure(F2)
    assert info.kind is KernelKind.TRIVIAL
    assert info.polarity is Polarity.ONE
    assert info.m == 1


def test_kernel_structure_hadamard():
    for k in (3, 4):
        for m in (1, 2, 3):
            info = kernel_structure(m_multiple(basic_kernel(k), m))
            assert info.kind is KernelKind.HADAMARD
            assert info.k == k and info.m == m
            assert info.polarity is Polarity.ONE
    info = kernel_structure(complement(basic_kernel(3)))
    assert info.polarity is Polarity.ZERO and info.k == 3


def test_kernel_structure_rejects_non_kernel():
    with pytest.raises(ValueError):
        kernel_structure(NEQ2)


def test_hadamard_shape_is_the_kernel_structure_of_kind_hadamard():
    rng = random.Random(31)
    labels = [F2, G2, NEQ2, m_multiple(basic_kernel(2), 3), butterfly(3),
              tensor(NEQ2, basic_kernel(3)), random_affine_eo(rng, 8),
              Signature._packed(8, frozenset(rng.sample(range(256), 7))),
              *(m_multiple(balanced_code(k, pol), m)
                for k in (1, 2, 3, 4, 5) for m in (1, 2, 3) for pol in Polarity),
              *(w for k in (3, 4) for w in wings(k))]
    for f in labels:
        perm = list(range(f.arity))
        rng.shuffle(perm)
        g = permute_columns(f, perm)
        info = classify(g).kernel_info
        want = (None if info is None or info.kind is KernelKind.TRIVIAL
                else (info.polarity, info.k, info.m))
        assert classes._hadamard_shape(g) == want


def test_is_balanced_hadamard():
    for k in (2, 3, 4, 5):
        assert is_balanced_hadamard(balanced_code(k, Polarity.ONE), Polarity.ONE) == k
        assert is_balanced_hadamard(balanced_code(k, Polarity.ZERO), Polarity.ZERO) == k
    # wrong polarity, wrong sizes, multiples: all rejected
    assert is_balanced_hadamard(balanced_code(3, Polarity.ONE), Polarity.ZERO) is None
    # F2 happens to BE the k=2 balanced code; G2 is its 0-polarity twin
    assert is_balanced_hadamard(F2, Polarity.ONE) == 2
    assert is_balanced_hadamard(G2, Polarity.ONE) is None
    assert (
        is_balanced_hadamard(m_multiple(balanced_code(3, Polarity.ONE), 2), Polarity.ONE)
        is None
    )


@st.composite
def hadamard_inputs(draw):
    """A balanced code of either polarity (k <= 5) as it is, with one row
    changed to another word of the same weight, or m-multiplied; n - 1
    random rows of weight n/2 at arity n = 4 or 8; or a random linear code
    of length n = 2^k <= 8 less its zero word, or the complement of one;
    columns permuted."""
    kind = draw(st.sampled_from(["code", "swapped", "multiple", "random", "linear"]))
    if kind == "linear":
        # a random code of n = 2^k words, less its all-0 or all-1 word:
        # affine with that word added, but balanced only when Hadamard
        k = draw(st.integers(1, 3))
        n = 1 << k
        span = {0}
        for _ in range(k):
            b = draw(st.integers(0, (1 << n) - 1))
            span |= {x ^ b for x in span}
        word = draw(st.sampled_from([0, (1 << n) - 1]))
        f = Signature._packed(n, frozenset(x ^ word for x in span) - {word})
    elif kind == "random":
        n = draw(st.sampled_from([4, 8]))
        words = [v for v in range(1 << n) if v.bit_count() == n // 2]
        f = Signature._packed(n, frozenset(
            draw(st.sets(st.sampled_from(words), min_size=n - 1, max_size=n - 1))))
    else:
        f = balanced_code(draw(st.integers(1, 5)), draw(st.sampled_from(Polarity)))
        if kind == "multiple":
            f = m_multiple(f, draw(st.integers(2, 3)))
        elif kind == "swapped":
            # move a 1 of one row to a 0 of the same row
            rows = sorted(f.rows)
            i = draw(st.integers(0, len(rows) - 1))
            bits = [rows[i] >> c & 1 for c in range(f.arity)]
            one = draw(st.sampled_from([c for c, b in enumerate(bits) if b]))
            zero = draw(st.sampled_from([c for c, b in enumerate(bits) if not b]))
            rows[i] ^= 1 << one | 1 << zero
            f = Signature._packed(f.arity, frozenset(rows))
    return permute_columns(f, draw(st.permutations(range(f.arity))))


@settings(max_examples=300, deadline=None)
@given(hadamard_inputs())
def test_is_balanced_hadamard_matches_its_definition(f):
    for polarity in Polarity:
        assert is_balanced_hadamard(f, polarity) == ref_is_balanced_hadamard(f, polarity)


def test_census_arity_4():
    total = 0
    kernels = []
    for f in enumerate_eo_supports(4):
        total += 1
        direct = direct_d1_kernel(f)
        fast = is_d1_kernel(f)
        assert direct == fast
        if fast:
            kernels.append(f)
    assert total == 64
    assert len(kernels) == 4
    for f in kernels:
        assert len(f.support) == 3
        ones, zeros = delta_factors(f)
        assert ones and not zeros


def test_census_refuses_too_many_supports_quickly():
    # arity 14 has C(3432, s) supports of size s; the refusal stops summing
    # at the cap and does not print the whole count
    with pytest.raises(SizeCapExceeded) as err:
        enumerate_eo_supports(14)
    assert len(str(err.value)) < 200


def test_kernel_column_balance():
    # every non-delta column of the stripped core splits the support evenly
    for k in (3, 4):
        f = basic_kernel(k)
        ones, _ = delta_factors(f)
        h = strip_columns(f, ones)
        for i in range(1, h.arity + 1):
            zero_count = sum(1 for r in h.support if r[i - 1] == 0)
            assert zero_count == 2 ** (k - 1)


def test_classify_report():
    rep = classify(basic_kernel(3))
    assert rep.is_eo and not rep.is_affine
    assert rep.in_d1 and not rep.in_d0
    assert rep.is_d1_kernel and not rep.is_d0_kernel
    assert rep.kernel_info is not None and rep.kernel_info.k == 3

    rep = classify(butterfly(2))
    assert rep.is_affine and rep.kernel_info is None

    rep = classify(Signature.from_strings(["1110"]))
    assert not rep.is_eo


def test_classify_runs_the_kernel_test_once(monkeypatch):
    calls = []
    real = classes._kernel_polarity

    def counted(f):
        calls.append(f)
        return real(f)

    monkeypatch.setattr(classes, "_kernel_polarity", counted)
    for f in (
        basic_kernel(4),
        complement(basic_kernel(4)),
        m_multiple(basic_kernel(3), 2),
    ):
        calls.clear()
        assert classify(f).kernel_info is not None
        assert len(calls) == 1


def _weight_rows(n: int, weight: int, max_size: int, min_size: int = 0):
    """Sets of rows of arity n, each of the given weight."""
    vectors = [v for v in range(1 << n) if v.bit_count() == weight]
    return st.sets(st.sampled_from(vectors), min_size=min_size,
                   max_size=max_size).map(
        lambda rows: Signature(n, frozenset(
            tuple(r >> c & 1 for c in range(n)) for r in rows)))


@st.composite
def class_inputs(draw):
    """An EO signature with its columns permuted: a random EO support of
    arity <= 8, an m-multiple kernel (k <= 5, m <= 3), a wing, a balanced
    code of either polarity, a tensor with DELTA1 or DELTA0, four rows
    beside DELTA1 and DELTA0, or a tensor of two or three small EO
    signatures, whose recursion runs more than one level deep."""
    kind = draw(st.sampled_from(["support", "kernel", "wing", "balanced",
                                 "tensor", "four", "pair", "triple"]))
    if kind == "support":
        half = draw(st.integers(0, 4))
        f = draw(_weight_rows(2 * half, half, 12))
    elif kind == "kernel":
        f = m_multiple(basic_kernel(draw(st.integers(1, 5))), draw(st.integers(1, 3)))
    elif kind == "wing":
        f = wings(draw(st.integers(1, 5)))[draw(st.integers(0, 1))]
    elif kind == "balanced":
        f = balanced_code(draw(st.integers(1, 5)), draw(st.sampled_from(Polarity)))
    elif kind == "tensor":
        # rows of weight half - 1 (or half) beside a constant 1 (or 0)
        half, t = draw(st.integers(1, 4)), draw(st.integers(0, 1))
        g = draw(_weight_rows(2 * half - 1, half - t, 8))
        f = tensor(g, DELTA1 if t else DELTA0)
    elif kind == "four":
        # four rows of weight 3, rarely a coset, beside a constant-(1 - t)
        # and a constant-t column: pinning the first to 1 - t after the
        # second to t leaves the four rows, a pin set of power-of-two size
        # whose affinity can decide the answer
        t = draw(st.integers(0, 1))
        g = draw(_weight_rows(6, 3, 4, min_size=4))
        f = tensor(tensor(g, DELTA0 if t else DELTA1), DELTA1 if t else DELTA0)
    else:
        pool = st.sampled_from([F2, G2, NEQ2, basic_kernel(2), butterfly(1),
                                tensor(DELTA1, DELTA0)])
        f = tensor(draw(pool), draw(pool))
        if kind == "triple":
            f = tensor(f, draw(pool))
    return permute_columns(f, draw(st.permutations(range(f.arity))))


@settings(max_examples=300, deadline=None)
@given(class_inputs())
def test_classes_match_the_definitions(f):
    classes._in_class.cache_clear()  # every example runs the recursion cold
    d1, d0 = ref_in_class(f, 1), ref_in_class(f, 0)
    k1, k0 = direct_d1_kernel(f), direct_d1_kernel(complement(f))
    assert (in_d1(f), in_d0(f)) == (d1, d0)
    assert (is_d1_kernel(f), is_d0_kernel(f)) == (k1, k0)
    rep = classify(f)
    assert (rep.in_d1, rep.in_d0, rep.is_d1_kernel, rep.is_d0_kernel) == (d1, d0, k1, k0)
    assert (rep.kernel_info is not None) == (k1 or k0)


# Every delta_t kernel family of order k = 2..6: m-multiples (m <= 3) of the
# balanced codes of both polarities, which include basic_kernel(k) and both
# halves of wings(k).
# Order 2 gives the trivial kernels of three rows.
KERNEL_FAMILIES = [(k, polarity, m, m_multiple(balanced_code(k, polarity), m))
                   for k in range(2, 7) for polarity in Polarity for m in (1, 2, 3)]


@st.composite
def pin_inputs(draw):
    """(kernel, f), f a column-permuted EO support of arity <= 10: random
    rows of weight half, or a random affine EO support with some of its rows
    taken out and perhaps one row of weight half put in, so that the rows'
    affine hull has missing points with either bit at a column; or, with
    kernel True, a kernel family."""
    kind = draw(st.sampled_from(["support", "punctured", "kernel"]))
    if kind == "support":
        half = draw(st.integers(1, 5))
        f = draw(_weight_rows(2 * half, half, 12, min_size=1))
    elif kind == "punctured":
        half = draw(st.integers(1, 5))
        g = random_affine_eo(random.Random(draw(st.integers(0, 2**32))), half)
        rows = sorted(g.rows)
        keep = draw(st.sets(st.sampled_from(rows), min_size=1))
        n = 2 * half
        extra = draw(st.sets(st.sampled_from(
            [v for v in range(1 << n) if v.bit_count() == half]), max_size=1))
        f = Signature._packed(n, frozenset(keep | extra))
    else:
        f = draw(st.sampled_from(KERNEL_FAMILIES))[3]
    return kind == "kernel", permute_columns(f, draw(st.permutations(range(f.arity))))


@settings(max_examples=300, deadline=None)
@given(pin_inputs())
def test_filled_pins_are_affine_and_cover_a_kernel(case):
    kernel, f = case
    rows = f.rows
    base = next(iter(rows))
    varying = 0
    for r in rows:
        varying |= r ^ base
    for b in (0, 1):
        filled = classes._filled_pins(classes._hull(rows), b)
        assert filled & ~varying == 0
        for i in range(1, f.arity + 1):
            if filled >> (i - 1) & 1:
                assert classes._pin_affine(rows, i, b)
    if kernel:
        # every pin to 1 - t is a hyperplane of the code (with the all-t
        # word, which has bit t everywhere, put back)
        t, _, _ = classes._kernel_polarity(f)
        assert classes._filled_pins(classes._hull(rows), 1 - t) == varying


def test_kernel_tests_settle_every_pin_from_the_hull(monkeypatch):
    calls = []
    real = classes._pin_affine

    def counted(rows, i, b):
        calls.append(i)
        return real(rows, i, b)

    monkeypatch.setattr(classes, "_pin_affine", counted)
    rng = random.Random(18)
    for k, polarity, m, f in KERNEL_FAMILIES:
        perm = list(range(f.arity))
        rng.shuffle(perm)
        info = kernel_structure(permute_columns(f, perm))
        assert (info.polarity, info.m) == (polarity, m)
        assert info.k == (k if k > 2 else None)
        assert calls == []
    perm = list(range(32))
    rng.shuffle(perm)
    classes._in_class.cache_clear()
    rep = classify(permute_columns(basic_kernel(5), perm))
    assert rep.in_d1 and rep.is_d1_kernel and not rep.in_d0
    info = rep.kernel_info
    assert (info.kind, info.polarity, info.k, info.m) == (
        KernelKind.HADAMARD, Polarity.ONE, 5, 1)
    assert calls == []


@settings(max_examples=300, deadline=None)
@given(pin_inputs())
def test_hull_matches_full_elimination(case):
    _, f = case
    rows = f.rows
    points, missing = ref_hull(rows, f.arity)
    base, basis, got = affine._hull(rows)
    if len(points) > 2 * len(rows):
        assert got is None
    else:
        assert set(affine._coset(base, basis)) == points
        assert got == missing


def test_class_tests_test_no_pin_of_an_affine_label(monkeypatch):
    calls = []
    real = classes._pin_affine

    def counted(rows, i, b):
        calls.append(i)
        return real(rows, i, b)

    monkeypatch.setattr(classes, "_pin_affine", counted)
    rng = random.Random(19)
    labels = [butterfly(k) for k in range(1, 5)]
    labels += [random_affine_eo(rng, half) for half in range(1, 6) for _ in range(4)]
    for f in labels:
        perm = list(range(f.arity))
        rng.shuffle(perm)
        g = permute_columns(f, perm)
        classes._in_class.cache_clear()
        rep = classify(g)
        assert calls == []
        assert rep == ClassReport(True, True, ref_in_class(g, 1), ref_in_class(g, 0),
                                  False, False)


# Every kernel among the EO supports of arity 4: all are trivial.
ARITY4_KERNELS = [f for f in enumerate_eo_supports(4)
                  if f.rows and (direct_d1_kernel(f) or direct_d1_kernel(complement(f)))]


def _counting(calls: Counter, name: str, real):
    def counted(*args, **kwargs):
        calls[name] += 1
        return real(*args, **kwargs)
    return counted


def test_kernel_structure_reads_the_definition_off_the_hull():
    rng = random.Random(19)
    assert ARITY4_KERNELS
    for f in [f for *_, f in KERNEL_FAMILIES] + ARITY4_KERNELS:
        perm = list(range(f.arity))
        rng.shuffle(perm)
        g = permute_columns(f, perm)
        polarity = Polarity.ONE if direct_d1_kernel(g) else Polarity.ZERO
        if len(g.rows) == 3:
            own = delta_factors(g)[0 if polarity is Polarity.ONE else 1]
            want = (polarity, KernelKind.TRIVIAL, None, len(own), g,
                    tuple((i,) for i in range(1, g.arity + 1)))
        else:
            base, m, groups = ref_multiple_decompose(g.arity, g.support)
            base = Signature(*base)
            want = (polarity, KernelKind.HADAMARD, is_balanced_hadamard(base, polarity),
                    m, base, tuple(tuple(grp) for grp in groups))
        calls = Counter()
        with pytest.MonkeyPatch.context() as mp:
            for name in ("_pivots", "is_balanced_hadamard", "column_masks"):
                for module in (affine, classes, signatures):
                    real = getattr(module, name, None)
                    if real is not None:
                        mp.setattr(module, name, _counting(calls, name, real))
            info = kernel_structure(g)
        assert (info.polarity, info.kind, info.k, info.m, info.base,
                info.column_grouping) == want
        assert calls == {"_pivots": 1}


def _raise(*args, **kwargs):
    raise AssertionError("called")


def _permuted_kernels(seed: int, labels) -> list:
    rng = random.Random(seed)
    out = []
    for f in labels:
        perm = list(range(f.arity))
        rng.shuffle(perm)
        out.append(permute_columns(f, perm))
    return out


def test_classify_settles_kernels_without_the_class_recursion(monkeypatch):
    labels = [f for *_, f in KERNEL_FAMILIES]
    labels += [g for k in range(3, 6) for g in wings(k)]
    for g in _permuted_kernels(20, labels):
        classes._in_class.cache_clear()
        want = (affine.is_affine(g), in_d1(g), in_d0(g))
        with monkeypatch.context() as mp:
            mp.setattr(classes, "_in_class", _raise)
            rep = classify(g)
        assert (rep.is_affine, rep.in_d1, rep.in_d0) == want
        assert rep.kernel_info is not None


def test_hadamard_shape_builds_no_structure(monkeypatch):
    monkeypatch.setattr(classes, "_structure", _raise)
    members = [member for member in KERNEL_FAMILIES if member[0] >= 3]
    copies = _permuted_kernels(21, [f for *_, f in members])
    for (k, polarity, m, _), g in zip(members, copies):
        assert classes._hadamard_shape(g) == (polarity, k, m)


def test_kernel_structure_groups_no_column_when_m_is_1(monkeypatch):
    monkeypatch.setattr(classes, "_column_groups", _raise)
    labels = [f for k, _, m, f in KERNEL_FAMILIES if k >= 3 and m == 1]
    assert max(f.arity for f in labels) == 64
    for g in _permuted_kernels(22, labels):
        info = kernel_structure(g)
        base, m, groups = ref_multiple_decompose(g.arity, g.support)
        assert (info.m, info.base, info.column_grouping) == (
            m, Signature(*base), tuple(tuple(grp) for grp in groups))

