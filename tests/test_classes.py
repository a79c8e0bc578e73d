import pytest

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
from eocount import classes
from eocount.classes import KernelKind, direct_d1_kernel
from eocount.errors import BudgetExceeded, StructureViolation
from eocount.hadamard import Polarity, balanced_code, basic_kernel, butterfly
from eocount.signatures import (
    DELTA0,
    DELTA1,
    delta_factors,
    enumerate_eo_supports,
    strip_columns,
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
    monkeypatch.setattr(classes, "_d1_memo", {})
    monkeypatch.setattr(classes, "MEMO_BUDGET", 2)
    assert in_d1(basic_kernel(6))  # arity 64, two new memo entries
    deep = tensor(tensor(basic_kernel(2), basic_kernel(2)), basic_kernel(2))
    with pytest.raises(BudgetExceeded):
        in_d1(deep)  # arity 12, 13 new memo entries


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
