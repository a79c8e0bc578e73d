"""The four benchmark workloads: fixed ladders of generated inputs, each
operation checked against an answer known without the solver under test.

A workload turns a ``random.Random`` drawn from the seed and the pass index
into one *pass*: a list of operations whose inputs are fully generated (and
serialized) up front.  The runner times ``Op.run`` and then, untimed, hands
its result to ``Op.check``.  The ladder workloads ignore the pass index, so
every pass repeats the same inputs; ``classify_families`` takes fresh column
permutations in every pass.  Sizes are fixed here; later changes must not
shrink them.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Callable

from eocount import canonical, classes, engine, hadamard, instance_io
from eocount import signatures as sg
from eocount.hadamard import Polarity

from planted import complemented, permute_columns, plant, random_affine_eo


class WrongAnswer(Exception):
    """The program answered, and the answer contradicts the known one."""


@dataclass
class Op:
    kind: str
    rung: int | None  # index into the workload's ladder; None when off it
    size: int  # what the ladder scales: edges, or a signature's arity
    edges: int  # 0 for a signature
    labels: int  # vertices of an instance; 1 for a signature
    run: Callable[[], object]  # the timed calls into eocount
    check: Callable[[object], None]  # raises WrongAnswer
    copies: int = 1  # inputs of this size that run() handles


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    ladder: tuple  # the rung sizes, in ``ladder_unit``
    ladder_unit: str
    make_pass: Callable[[random.Random, int], list]  # (rng, pass index)


def _expect(cond: bool, msg: str) -> None:
    if not cond:
        raise WrongAnswer(msg)


def _solve_text(text: str) -> engine.CountResult:
    """The ``eocount solve FILE`` path: parse, then dispatch with ``auto``."""
    return engine.solve(instance_io.instance_from_text(text))


def _balanced(pool: list, n: int, rng: random.Random) -> list:
    """n labels cycling through the pool, shuffled: every rung of a ladder
    has the same label mix, so sizes differ only by the vertex count."""
    labels = [pool[i % len(pool)] for i in range(n)]
    rng.shuffle(labels)
    return labels


def _pair_ops(rung: int, inst, affine_only: bool) -> list:
    """The instance solved as drawn and complemented.

    Reversing every edge maps orientations of one onto the other, so both
    counts agree and are >= 1 (the planted orientation); an affine count is
    also a power of two.
    """
    seen: dict = {}

    def op(polarity, text):
        def check(count):
            _expect(count >= 1, f"count {count} on a planted instance")
            if affine_only:
                _expect(count & (count - 1) == 0,
                        f"affine count {count} is not a power of two")
            other = seen.setdefault("count", count)
            _expect(count == other,
                    f"{polarity} count {count} != other polarity {other}")

        return Op(polarity, rung, len(inst.edges), len(inst.edges),
                  len(inst.vertices), lambda: _solve_text(text).count, check)

    return [op("as_drawn", instance_io.instance_to_text(inst)),
            op("complemented", instance_io.instance_to_text(complemented(inst)))]


def _ladder_ops(rng, ladder, copies, pool_of, affine_only: bool) -> list:
    """``copies`` planted instances on every rung, each in both polarities,
    in random order so that every rung is sampled across the whole pass."""
    ops = []
    for rung, n in enumerate(ladder):
        for _ in range(copies):
            inst, _ = plant(rng, _balanced(pool_of(rng), n, rng))
            ops += _pair_ops(rung, inst, affine_only)
    rng.shuffle(ops)
    return ops


# -- chain_planted ------------------------------------------------------------

# Rungs small enough that one pass takes under two seconds, so that a 30 s
# run repeats every solve fifteen times or more (see README.md), and
# instances enough per rung that their cost, which varies with the wiring by
# ~13% from one chain instance to the next, averages out.
CHAIN_LADDER = (20, 40, 80)
CHAIN_COPIES = 8


def _chain_pool(rng):
    bk = hadamard.basic_kernel
    return [bk(2), bk(3), sg.m_multiple(bk(2), 2), sg.NEQ2,
            hadamard.butterfly(1), sg.tensor(sg.NEQ2, bk(1))]


def chain_pass(rng: random.Random, pass_index: int) -> list:
    return _ladder_ops(rng, CHAIN_LADDER, CHAIN_COPIES, _chain_pool,
                       affine_only=False)


# -- affine_planted -----------------------------------------------------------

AFFINE_LADDER = (50, 100, 200)
AFFINE_COPIES = 4


# (arity, extra equations) of the random affine labels: a fixed shape, so
# that only their structure changes with the seed
AFFINE_SHAPES = ((2, 0), (4, 0), (4, 1), (6, 0), (6, 1), (6, 2), (8, 1), (8, 2))


def _affine_pool(rng):
    pool = [random_affine_eo(rng, a, e) for a, e in AFFINE_SHAPES * 2]
    return pool + [hadamard.butterfly(2), hadamard.butterfly(3)]


def affine_pass(rng: random.Random, pass_index: int) -> list:
    return _ladder_ops(rng, AFFINE_LADDER, AFFINE_COPIES, _affine_pool,
                       affine_only=True)


# -- small_verify -------------------------------------------------------------

VERIFY_LADDER = (4, 8, 12)  # edges
# instances per rung and pool: the middle rung holds the median slot and the
# top rung the 90th percentile, each among many same-size instances
VERIFY_COPIES = (8, 16, 8)


def _verify_pools(rng):
    bk = hadamard.basic_kernel
    d1 = [bk(2), bk(3), sg.m_multiple(bk(2), 2), sg.NEQ2,
          hadamard.butterfly(1), sg.tensor(sg.NEQ2, bk(1))]
    d0 = [sg.complement(f) for f in d1]
    aff = [sg.NEQ2, hadamard.butterfly(1), hadamard.butterfly(2)]
    aff += [random_affine_eo(rng, a, e) for a, e in AFFINE_SHAPES[2:]]
    # mixed: one kernel of each polarity first, so no single polarity
    # covers the instance and solve falls through to brute force
    return {"d1": ([], d1), "d0": ([], d0), "affine": ([], aff),
            "mixed": ([bk(2), sg.complement(bk(2))], d1 + d0)}


def _fill(rng, fixed, pool, edges) -> list:
    """Labels with exactly 2*edges slots: the fixed ones, then random pool
    draws that fit (every pool holds an arity-2 label, so the fill ends)."""
    labels = list(fixed)
    left = 2 * edges - sum(f.arity for f in labels)
    while left:
        f = rng.choice([g for g in pool if g.arity <= left])
        labels.append(f)
        left -= f.arity
    rng.shuffle(labels)
    return labels


def _verify_op(kind, rung, inst) -> Op:
    text = instance_io.instance_to_text(inst)

    def run():
        parsed = instance_io.instance_from_text(text)
        res = engine.solve(parsed)
        # as `eocount verify`: brute force solved it already, else compare
        if res.method is engine.Method.BRUTE:
            return res, None
        return res, engine.brute_force(parsed).count

    def check(out):
        res, brute = out
        _expect(res.count >= 1, f"count {res.count} on a planted instance")
        _expect(brute in (None, res.count),
                f"{res.method.value} count {res.count} != brute {brute}")

    return Op(kind, rung, len(inst.edges), len(inst.edges), len(inst.vertices),
              run, check)


def verify_pass(rng: random.Random, pass_index: int) -> list:
    ops = []
    for kind, (fixed, pool) in _verify_pools(rng).items():
        for rung, (edges, copies) in enumerate(zip(VERIFY_LADDER, VERIFY_COPIES)):
            for _ in range(copies):
                inst, _ = plant(rng, _fill(rng, fixed, pool, edges))
                ops.append(_verify_op(kind, rung, inst))
    rng.shuffle(ops)  # sample every pool and rung across the whole pass
    return ops


# -- classify_families ----------------------------------------------------------

CLASSIFY_LADDER = (4, 8, 16, 32, 64)  # arity of basic_kernel(2..6)


@dataclass(frozen=True)
class Known:
    """Answers fixed by a family's construction: d1/d0 membership and, for
    a kernel, its polarity, kind, order k (None when trivial) and m."""

    is_affine: bool
    in_d1: bool
    in_d0: bool
    kernel: tuple | None = None  # (Polarity, KernelKind, k, m)


def _kernel_known(k: int, m: int, polarity: Polarity) -> Known:
    # support 3 (k = 2) is the trivial kernel; its m counts the own-polarity
    # delta columns, which m_multiple repeats m times
    kind = classes.KernelKind.TRIVIAL if k == 2 else classes.KernelKind.HADAMARD
    kernel = (polarity, kind, None if k == 2 else k, m)
    one = polarity is Polarity.ONE
    return Known(False, one, not one, kernel)


def _affine_known(f) -> Known:
    """An affine EO signature lies in d1 iff it has a constant-1 column: the
    pins of an affine support stay affine (dually for d0)."""
    cols = [{r[i] for r in f.support} for i in range(f.arity)]
    return Known(True, {1} in cols, {0} in cols)


def _families(rng) -> list:
    """(name, unpermuted signature, known answers, rung)."""
    out = []
    for k in range(2, 7):
        for m in (1, 2, 3):
            f = sg.m_multiple(hadamard.basic_kernel(k), m)
            out.append((f"kernel_k{k}_m{m}", f, _kernel_known(k, m, Polarity.ONE),
                        k - 2 if m == 1 else None))
    for k in range(2, 6):
        left, right = hadamard.wings(k)
        out.append((f"wings_left_k{k}", left, _kernel_known(k, 1, Polarity.ZERO), None))
        out.append((f"wings_right_k{k}", right, _kernel_known(k, 1, Polarity.ONE), None))
        for pol in Polarity:
            out.append((f"balanced_{pol.value}_k{k}", hadamard.balanced_code(k, pol),
                        _kernel_known(k, 1, pol), None))
    for k in range(1, 5):
        f = hadamard.butterfly(k)
        out.append((f"butterfly_k{k}", f, _affine_known(f), None))
    for arity, extra in ((4, 1), (6, 1), (8, 1), (8, 2), (10, 1), (10, 2)):
        f = random_affine_eo(rng, arity, extra)
        out.append((f"affine_eo_{arity}_{extra}", f, _affine_known(f), None))
    return out


# The stages run on a signature only within fixed limits: ``classify``
# (through in_d1/in_d0) refuses arity above 32, so it runs up to 32.
# ``canonical_form`` accepts arity 64, but takes 0.06 to 0.2 s per signature
# at arity 32 and 1.3 to 4.5 s at 64, varying with the permutation, and so
# long an operation repeats too rarely in a run to give a steady fastest
# time; it runs up to arity 24 (~20 ms).  The limits are fixed here, not read
# from the package, so that raising a limit does not change the benchmark's
# work; ``kernel_structure`` runs at every arity.
CLASSIFY_MAX_ARITY = 32
CANONICAL_MAX_ARITY = 24


def _classify_op(name, f, copies: list, known: Known, rung) -> Op:
    """Classify every signature in ``copies``, column permutations of the
    family member ``f``."""
    do_classify = f.arity <= CLASSIFY_MAX_ARITY
    do_canonical = f.arity <= CANONICAL_MAX_ARITY

    def run():
        return [(classes.classify(g) if do_classify else None,
                 classes.kernel_structure(g) if known.kernel else None,
                 canonical.canonical_form(g) if do_canonical else None)
                for g in copies]

    def check_kernel(info, where):
        _expect(info is not None, f"{where}: no kernel structure")
        got = (info.polarity, info.kind, info.k, info.m)
        _expect(got == known.kernel, f"{where}: {got} != known {known.kernel}")

    def check(out):
        for rep, kernel, canon in out:
            if do_canonical:
                _expect(canon == canonical.canonical_form(f),
                        "canonical form differs from the unpermuted signature's")
            if known.kernel is not None:
                check_kernel(kernel, "kernel_structure")
            if do_classify:
                got = (rep.is_affine, rep.in_d1, rep.in_d0)
                want = (known.is_affine, known.in_d1, known.in_d0)
                _expect(got == want, f"classify (affine, d1, d0) {got} != {want}")
                if known.kernel is None:
                    _expect(rep.kernel_info is None, "classify: unexpected kernel")
                else:
                    check_kernel(rep.kernel_info, "classify")

    return Op(name, rung, f.arity, 0, 1, run, check, len(copies))


# Per pass, every signature gets COPY_ARITY // arity permuted copies (at
# least one), handled in one operation.  A copy's time varies with the
# permutation (by up to 3x at arity 8, with the hits it finds in eocount's
# in_d1 memo), and the sum over several copies varies less.
COPY_ARITY = 64
# draws after which _copies accepts a copy it has given in the same pass: a
# signature of arity 4 has as few as 4 distinct column permutations
MAX_MISSES = 20


def _copies(name, f, first: int, count: int) -> list:
    """Copies first .. first+count-1 of the column permutations of ``f``.

    Copy j is drawn by a generator seeded with the family and j, redrawn
    while it equals ``f`` or an earlier copy of the same call, so that a
    timed copy rarely finds its answer in the package's caches.  The copies
    depend on the family only, so every run classifies the same copies and
    their times, which vary with the permutation, do not vary with the seed.
    """
    seen, out = {f}, []
    for j in range(first, first + count):
        rng = random.Random(f"{name}/{j}")
        for _ in range(MAX_MISSES):
            perm = list(range(f.arity))
            rng.shuffle(perm)
            g = permute_columns(f, perm)
            if g not in seen:
                break
        seen.add(g)
        out.append(g)
    return out


def classify_pass(rng: random.Random, pass_index: int) -> list:
    ops = []
    for name, f, known, rung in _families(rng):
        copies = max(1, COPY_ARITY // f.arity)
        ops.append(_classify_op(
            name, f, _copies(name, f, pass_index * copies, copies), known,
            rung))
    # no shuffle: a copy's time depends on which sub-signatures earlier
    # operations left in eocount's in_d1 memo, so every run keeps one order
    return ops


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "chain_planted",
            "delta1 labels in both polarities: the chain-reaction loop and its "
            "is_affine/pin/delta_factors scans dominate",
            CHAIN_LADDER, "vertices", chain_pass),
        Workload(
            "affine_planted",
            "all-affine labels: affine_system and GF(2) elimination dominate; "
            "no pin, in_d1 or chain step runs",
            AFFINE_LADDER, "vertices", affine_pass),
        Workload(
            "small_verify",
            "tiny instances of every polarity cross-checked by brute force: "
            "per-call cost and the oracle dominate",
            VERIFY_LADDER, "edges", verify_pass),
        Workload(
            "classify_families",
            "classify, kernel_structure and canonical_form on permuted "
            "generator families up to arity 192, each stage within its limit",
            CLASSIFY_LADDER, "arity", classify_pass),
    )
}
