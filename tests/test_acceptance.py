"""Acceptance suite: one test per criterion, each printing a pass/fail line
and asserting both the property and its time budget."""

import io
import random
import time
from contextlib import redirect_stdout

from eocount import (
    NEQ2,
    Signature,
    brute_force,
    canonical_form,
    chain_reaction,
    complement,
    is_balanced_hadamard,
    is_d1_kernel,
    kernel_structure,
    m_multiple,
    permutation_equivalent,
    solve_affine,
    tensor,
    validate,
)
from eocount.affine import (
    constant_weight_profile,
    pairwise_opposite_pairs,
    random_affine_signature,
)
from eocount.classes import direct_d1_kernel
from eocount.cli import main as cli_main
from eocount.engine import gadget_demo_hardness
from eocount.hadamard import (
    Polarity,
    balanced_code,
    basic_kernel,
    butterfly,
    wings,
)
from eocount.signatures import (
    DELTA1,
    bits_str,
    delta_factors,
    enumerate_eo_supports,
    extract,
    is_eo,
    strip_columns,
)

from helpers import column, random_affine_eo, random_instance, rows_sorted, wt

F2_ROWS = {"1100", "1010", "1001"}
F3_ROWS = {
    "10101010", "11001100", "10011001", "11110000",
    "10100101", "11000011", "10010110",
}
F4_ROWS = {
    "1010101010101010", "1100110011001100", "1001100110011001",
    "1111000011110000", "1010010110100101", "1100001111000011",
    "1001011010010110", "1111111100000000", "1010101001010101",
    "1100110000110011", "1001100101100110", "1111000000001111",
    "1010010101011010", "1100001100111100", "1001011001101001",
}
B2_ROWS = {"00001111", "01101001", "01011010", "00111100"}
L2_ROWS = {"0110", "0101", "0011"}
R2_ROWS = {"1001", "1010", "1100"}
HARDNESS_GADGET_ROWS = {"0011", "1001", "1010", "0101", "0110"}

F2 = Signature.from_strings(sorted(F2_ROWS))
G2 = Signature.from_strings(["0011", "0101", "0110"])


def _report(num, name, ok, elapsed, budget):
    status = "PASS" if ok else "FAIL"
    print(f"[criterion {num}] {status}: {name} ({elapsed:.2f}s, budget {budget}s)")
    assert ok, f"criterion {num} failed"
    assert elapsed < budget, f"criterion {num} over budget: {elapsed:.2f}s"


def _gen_rows(args):
    buf = io.StringIO()
    with redirect_stdout(buf):
        code = cli_main(args)
    assert code == 0
    return set(buf.getvalue().split())


def test_criterion_1_golden_kernels():
    start = time.perf_counter()
    ok = (
        _gen_rows(["gen", "kernel", "--k", "2"]) == F2_ROWS
        and _gen_rows(["gen", "kernel", "--k", "3"]) == F3_ROWS
        and _gen_rows(["gen", "kernel", "--k", "4"]) == F4_ROWS
    )
    _report(1, "gen kernel reproduces f2/f3/f4", ok, time.perf_counter() - start, 1)


def test_criterion_2_butterfly_goldens():
    start = time.perf_counter()
    left, right = wings(2)
    ok = (
        {bits_str(r) for r in butterfly(2).support} == B2_ROWS
        and {bits_str(r) for r in left.support} == L2_ROWS
        and {bits_str(r) for r in right.support} == R2_ROWS
    )
    _report(2, "butterfly(2)/wings(2) match B2/L2/R2", ok, time.perf_counter() - start, 1)


def test_criterion_3_hadamard_equivalence():
    start = time.perf_counter()
    ok = True
    for k in (2, 3, 4, 5):
        left, right = wings(k)
        ok = ok and canonical_form(right) == canonical_form(
            balanced_code(k, Polarity.ONE)
        )
        ok = ok and is_balanced_hadamard(basic_kernel(k), Polarity.ONE) == k
        if k >= 3:
            ok = ok and is_d1_kernel(basic_kernel(k))
    _report(3, "wings = balanced Hadamard codes", ok, time.perf_counter() - start, 5)


def test_criterion_4_arity4_census():
    start = time.perf_counter()
    total = 0
    kernels = set()
    expected = set()
    ok = True
    for f in enumerate_eo_supports(4):
        total += 1
        fast = is_d1_kernel(f)
        ok = ok and fast == direct_d1_kernel(f)
        if fast:
            kernels.add(f.support)
        if len(f.support) == 3:
            cols = list(zip(*rows_sorted(f)))
            if (1, 1, 1) in cols and (0, 0, 0) not in cols:
                expected.add(f.support)
    ok = ok and total == 64 and kernels == expected
    _report(4, "arity-4 census, 64 supports", ok, time.perf_counter() - start, 1)


def test_criterion_5_kernel_sizes():
    start = time.perf_counter()
    ok = True
    for k in (3, 4, 5):
        for m in (1, 2, 3):
            f = m_multiple(basic_kernel(k), m)
            ok = ok and len(f.support) == 2**k - 1
            ok = ok and f.arity == m * 2**k
            ones, zeros = delta_factors(f)
            ok = ok and not zeros
            h = strip_columns(f, ones)
            for i in range(1, h.arity + 1):
                zc = sum(1 for r in h.support if r[i - 1] == 0)
                ok = ok and zc == 2 ** (k - 1)
            info = kernel_structure(f)
            ok = ok and info.k == k and info.m == m
    _report(5, "kernel sizes and column balance, k in 3..5, m in 1..3", ok, time.perf_counter() - start, 5)


def _oracle_suite(rng, pool, polarity, rounds):
    ok = True
    trials = 0
    while trials < rounds:
        inst = random_instance(rng, pool, rng.randint(1, 4), 14)
        if inst is None or validate(inst)[0]:
            continue
        trials += 1
        ok = ok and (
            chain_reaction(inst, polarity).count == brute_force(inst).count
        )
    return ok


def test_criterion_6_chain_vs_brute():
    start = time.perf_counter()
    rng = random.Random(60601)
    pool = [
        basic_kernel(2),
        basic_kernel(3),
        NEQ2,
        butterfly(1),
        m_multiple(basic_kernel(2), 2),
        tensor(NEQ2, basic_kernel(1)),
        tensor(DELTA1, Signature.from_strings(["0"])),
    ]
    ok = _oracle_suite(rng, pool, Polarity.ONE, 200)
    zero_pool = [complement(s) for s in pool]
    ok = ok and _oracle_suite(random.Random(60602), zero_pool, Polarity.ZERO, 200)
    _report(6, "chain reaction = brute force, 400 instances", ok, time.perf_counter() - start, 60)


def test_criterion_7_affine_solver():
    start = time.perf_counter()
    rng = random.Random(70701)
    ok = True
    trials = 0
    while trials < 200:
        pool = [random_affine_eo(rng, rng.randint(1, 3)) for _ in range(3)]
        inst = random_instance(rng, pool, rng.randint(1, 4), 12)
        if inst is None or validate(inst)[0]:
            continue
        trials += 1
        ok = ok and solve_affine(inst).count == brute_force(inst).count
    _report(7, "affine solver = brute force, 200 instances", ok, time.perf_counter() - start, 30)


def test_criterion_8_gadget():
    start = time.perf_counter()
    h = gadget_demo_hardness(F2, G2, [(1, 1), (2, 2)])
    ok = {bits_str(r) for r in h.values} == HARDNESS_GADGET_ROWS
    ok = ok and set(h.values.values()) == {1}
    _report(8, "gadget reproduces the 5-row hardness support", ok, time.perf_counter() - start, 1)


def test_criterion_9_property_suites():
    start = time.perf_counter()
    ok = True

    # pairwise-opposite matching on 200 random affine EO signatures
    rng = random.Random(90901)
    for _ in range(200):
        f = random_affine_eo(rng, rng.randint(1, 3))
        pairs = pairwise_opposite_pairs(f)
        ok = ok and len(pairs) == f.arity // 2
        rows = rows_sorted(f)
        for i, j in pairs:
            ok = ok and all(r[i - 1] != r[j - 1] for r in rows)

    # constant-weighted affine signatures without delta factors are EO with
    # balanced columns
    seen = 0
    while seen < 100:
        f = random_affine_signature(rng, rng.randint(2, 6))
        if len(f.support) < 2:
            continue
        constant, _ = constant_weight_profile(f)
        if not constant:
            continue
        ones, zeros = delta_factors(f)
        if ones or zeros:
            continue
        seen += 1
        ok = ok and is_eo(f)
        for i in range(1, f.arity + 1):
            ok = ok and wt(column(f, i)) * 2 == len(f.support)

    # extract-1-kernel and the inductive extraction identities, k <= 5
    for k in (3, 4, 5):
        f = basic_kernel(k)
        ones, _ = delta_factors(f)
        d1cols = set(ones)
        for l in range(1, f.arity + 1):
            if l in d1cols:
                continue
            e1 = extract(f, l, 1)
            o1, z1 = delta_factors(e1)
            if not z1:
                ok = ok and is_d1_kernel(e1)
            ok = ok and permutation_equivalent(
                e1, m_multiple(basic_kernel(k - 1), 2)
            )
            ok = ok and permutation_equivalent(extract(f, l, 0), butterfly(k - 1))

    _report(9, "structural property suites", ok, time.perf_counter() - start, 30)
