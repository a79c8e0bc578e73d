"""Membership tests for the tractable classes: affine, delta1-/delta0-affine,
their kernels, and the balanced-Hadamard structural characterization of
non-trivial kernels.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from functools import lru_cache

from .affine import _affine_rows, _coset, _hull, is_affine
from .errors import BudgetExceeded, StructureViolation
from .hadamard import Polarity
from .signatures import (
    Signature,
    _compress,
    _folds,
    _positions,
    delta_factors,
    is_eo,
    pin,
    pin2,
    strip_columns,
)

# Memo entries, one per label reached, that one in_d1/in_d0 recursion may
# make: the recursion scans one label's columns per entry, so this bounds
# its work whatever the arity (a kernel of arity 192 makes 2 entries, a
# tensor of five basic kernels of arity 4 about 100).
MEMO_BUDGET = 1 << 13


class KernelKind(enum.Enum):
    TRIVIAL = "trivial"
    HADAMARD = "hadamard"


@dataclass(frozen=True)
class KernelStructure:
    polarity: Polarity
    kind: KernelKind
    k: int | None
    m: int
    base: Signature
    column_grouping: tuple


@dataclass(frozen=True)
class ClassReport:
    is_eo: bool
    is_affine: bool
    in_d1: bool
    in_d0: bool
    is_d1_kernel: bool
    is_d0_kernel: bool
    kernel_info: KernelStructure | None = None


def _require_eo(f: Signature) -> None:
    if not is_eo(f):
        raise ValueError("not an EO signature")


def in_d1(f: Signature) -> bool:
    """Delta1-affine membership: a delta1 factor whose residual pins-to-0 all
    land back in affine-or-delta1, recursively."""
    _require_eo(f)
    return _in_class(f, 1)


def in_d0(f: Signature) -> bool:
    """Dual of in_d1 with the roles of 0 and 1 swapped."""
    _require_eo(f)
    return _in_class(f, 0)


@lru_cache(maxsize=1 << 16)
def _in_class(f: Signature, t: int) -> bool:
    """Delta_t-affine membership of an EO signature, by one recursion with
    its own memo; the last 2^16 verdicts are kept, so a refusal depends on
    the label alone."""
    return _in_class_rec(f, t, {})


def _pin_affine(rows, i: int, b: int) -> bool:
    """Whether pinning column i (1-based) to b leaves an affine support.
    The rows with bit b at i are that support with the constant column i
    kept, and a column constant on a set of rows does not change whether
    the set is affine, so no pinned signature is built."""
    bit = 1 << (i - 1)
    want = b * bit
    return _affine_rows({r for r in rows if r & bit == want}) is not None


def _filled_pins(hull: tuple, b: int) -> int:
    """Mask of the columns whose pin to b is affine for certain, read off
    the rows' affine hull A (see _hull).  On a column i that varies on A,
    the points of A with bit b at i form a hyperplane H of A, and the pin is
    H less the points of A missing from the rows, so it is H itself when no
    missing point has bit b at i.  H holds 2^(D-1) points, D the dimension
    of A, so when that exceeds the row count no pin fills one and the mask
    is 0.  A delta_t kernel's support is a balanced Hadamard code, or an
    m-multiple of one, less its all-t word, so each of its pins to 1 - t is
    a whole hyperplane of the code and the mask holds every column that
    varies."""
    _, basis, missing = hull
    if missing is None:
        return 0
    span = 0
    for v in basis:
        span |= v
    flip = 0 if b else span  # a missing point spoils the columns where it is b
    spoilt = 0
    for p in missing:
        spoilt |= p ^ flip
    return span & ~spoilt


def _open_pins(f: Signature, own: int, hull: tuple, t: int):
    """Yield, in column order, each column outside the constant-t mask own
    (whose pins are empty) whose pin to 1 - t the hull does not fill
    (_filled_pins) and is not affine on f's rows (_pin_affine).  Lazy, so a
    caller that stops early tests no further pin."""
    for i in _positions(((1 << f.arity) - 1) & ~(own | _filled_pins(hull, 1 - t))):
        if not _pin_affine(f.rows, i, 1 - t):
            yield i


def _in_class_rec(f: Signature, t: int, memo: dict) -> bool:
    """f is delta_t-affine when it has a constant-t column c and, for every
    other column i, pinning i to 1 - t is affine or pin2(f, c, i, t, 1 - t)
    is again delta_t-affine.  Rows that are their whole affine hull are a
    coset, every pin of which is affine; otherwise the recursion goes on
    exactly at the _open_pins, so a pin is built only there.  memo, made
    for one top-level call, holds one entry per label it reaches, and the
    call raises BudgetExceeded past MEMO_BUDGET entries."""
    hit = memo.get(f)
    if hit is not None:
        return hit
    if len(memo) >= MEMO_BUDGET:
        raise BudgetExceeded(f"in_d{t} budget of {MEMO_BUDGET} memo entries exceeded")
    rows = f.rows
    own = _folds(f)[t] if rows else 0
    if not own:
        result = False
    elif (hull := _hull(rows))[2] == set():
        result = True  # the rows are a coset, and every pin of a coset is affine
    else:
        c = (own & -own).bit_length()
        result = all(_in_class_rec(pin2(f, c, i, t, 1 - t), t, memo)
                     for i in _open_pins(f, own, hull, t))
    memo[f] = result
    return result


def is_d1_kernel(f: Signature) -> bool:
    """First level of the delta1-affine hierarchy: strip all delta1 columns,
    the residual must be non-affine with a delta0-free support whose every
    pin-to-0 is affine."""
    _require_eo(f)
    return _kernel_polarity(f)[0] == 1


def is_d0_kernel(f: Signature) -> bool:
    _require_eo(f)
    return _kernel_polarity(f)[0] == 0


def _kernel_polarity(f: Signature) -> tuple:
    """(t, own, hull) for a delta_t kernel f, own the mask of its constant-t
    columns and hull the _hull of its rows; (None, 0, None) when f is no
    kernel.  f is a delta_t kernel when it has constant-t columns and no
    constant-(1 - t) ones, and the residual h left when they are stripped is
    not affine while every pin of h to 1 - t is.  Stripped columns are
    constant, so h is affine exactly when f is, which is when the rows are
    their whole hull; h's pins are f's rows with bit 1 - t at one of the
    other columns, so f is a kernel when _open_pins, the scan that
    _in_class_rec recurses on, yields no column."""
    rows = f.rows
    if not rows:
        return None, 0, None
    zeros, ones = _folds(f)
    if bool(zeros) == bool(ones):
        return None, 0, None
    hull = _hull(rows)
    if hull[2] == set():  # the rows are a coset: f is affine
        return None, 0, None
    t, own = (1, ones) if ones else (0, zeros)
    if next(_open_pins(f, own, hull, t), None) is None:
        return t, own, hull
    return None, 0, None


def direct_d1_kernel(f: Signature) -> bool:
    """Literal transcription of the kernel definition (residual not affine,
    every pin-to-0 affine) without the delta0-free shortcut; used as an
    independent cross-check."""
    _require_eo(f)
    if not f.rows:
        return False
    ones, _ = delta_factors(f)
    if not ones:
        return False
    h = strip_columns(f, ones)
    if h.arity == 0 or is_affine(h):
        return False
    return all(is_affine(pin(h, i, 0)) for i in range(1, h.arity + 1))


def is_balanced_hadamard(f: Signature, polarity: Polarity = Polarity.ONE):
    """Return k if f is (a variable permutation of) the balanced Hadamard
    code of the given polarity and length 2^k, else None.

    Route for ONE: toggle the all-1 word, complement, and demand the
    result be a linear code whose 2^k columns are pairwise distinct -- that
    pins it to the code whose columns exhaust all linear functionals, i.e.
    the 0-Hadamard code.  For ZERO, the same of complement(f).

    The test runs on f's own rows: that code (of complement(f) for ZERO)
    is f's rows with the all-t word added, t = 1 for ONE and 0 for ZERO,
    translated by that word.  Rows of weight n/2 hold neither the all-0 nor
    the all-1 word, so the code holds the zero word and is linear exactly
    when those n rows are affine.  Its columns then need no test of their
    own: the number N(l) of columns equal to the linear functional l has a
    Walsh transform of n at 0 and, since every nonzero word has weight n/2,
    of 0 elsewhere, so N is 1 everywhere and the 2^k columns are the 2^k
    functionals, all distinct.
    """
    n = f.arity
    if n < 2 or n & (n - 1) or len(f.rows) != n - 1:
        return None
    if any(r.bit_count() != n // 2 for r in f.rows):
        return None
    word = 0 if polarity is Polarity.ZERO else (1 << n) - 1
    if _affine_rows(f.rows | {word}) is None:
        return None
    return n.bit_length() - 1


def kernel_structure(f: Signature) -> KernelStructure:
    """Structural decomposition of a kernel per the characterization:
    trivial (support 3) or an m-multiple of a balanced Hadamard code, read
    off the kernel test's hull (see _structure, _shape and
    is_balanced_hadamard)."""
    _require_eo(f)
    t, own, hull = _kernel_polarity(f)
    if t is None:
        raise ValueError("not a kernel")
    return _structure(f, t, own, hull)


def _shape(f: Signature, t: int, hull: tuple) -> tuple | None:
    """(k, m) for a delta_t kernel f of EO rows, more than 3 of them, whose
    rows' affine._hull is hull, when the hull's one missing point is the
    all-t word; else None.

    The rows and the word are then a coset of nb = |rows| + 1 points, and
    translated by the word they are a linear code whose nonzero words (the
    rows or their complements) all have weight n/2.  The Walsh argument of
    is_balanced_hadamard gives each of its nb linear functionals exactly
    m = n / nb columns (in general, Bonisoli's theorem: a linear code of one
    nonzero weight is a replicated simplex code), so f is the m-multiple of
    the balanced polarity-t Hadamard code of length nb = 2^k, up to column
    order; k >= 3, as up to 2 rows are affine and 3 are the trivial case."""
    word = (1 << f.arity) - 1 if t else 0
    if hull[2] != {word}:
        return None
    nb = len(f.rows) + 1
    return nb.bit_length() - 1, f.arity // nb


def _column_groups(n: int, vectors) -> tuple:
    """Columns 1..n grouped by their bits in the ints vectors, each group
    ascending and the groups in the order of their first members."""
    by_column: dict = {}
    bits = (format(v, f"0{n}b")[::-1] for v in vectors)
    for i, col in enumerate(zip(*bits), 1):
        by_column.setdefault(col, []).append(i)
    return tuple(map(tuple, by_column.values()))


def _structure(f: Signature, t: int, own: int, hull: tuple) -> KernelStructure:
    """kernel_structure for a delta_t kernel f, whose rows are EO, whose
    constant-t columns (the mask own) and rows' affine._hull the kernel test
    already found.  A trivial kernel (3 rows) has m the count of own; any
    other is the m-multiple of a balanced Hadamard code exactly when the
    hull's one missing point is the all-t word, and k and m follow from
    the row count and the arity (see _shape and is_balanced_hadamard).

    When m = 1 every column is its own group and the base is f, so no
    column is read.  Otherwise the columns are grouped, and the base keeps
    the first of each group: two columns are equal on the rows exactly
    when they are equal on the hull (their sum is affine, and an affine
    function that vanishes on a set vanishes on its affine hull), so they
    group by their bits in the hull's base and basis vectors, k + 1 ints."""
    polarity = Polarity.ONE if t else Polarity.ZERO
    n = f.arity
    if len(f.rows) == 3:
        return KernelStructure(polarity, KernelKind.TRIVIAL, None, own.bit_count(), f,
                               tuple(zip(range(1, n + 1))))
    shape = _shape(f, t, hull)
    if shape is None:
        raise StructureViolation("kernel base is not a balanced Hadamard code")
    k, m = shape
    if m == 1:
        return KernelStructure(polarity, KernelKind.HADAMARD, k, 1, f,
                               tuple(zip(range(1, n + 1))))
    origin, basis, _ = hull
    groups = _column_groups(n, (origin, *basis))
    # first members ascend, so the base keeps them in group order; the rows
    # are the hull less the word, so only its k + 1 ints compress
    keep = sum(1 << (g[0] - 1) for g in groups)
    origin, *basis = _compress((origin, *basis), keep)
    nb = 1 << k
    code = frozenset(_coset(origin, basis))
    base = Signature._packed(nb, code - {((1 << nb) - 1) * t})
    return KernelStructure(polarity, KernelKind.HADAMARD, k, m, base, groups)


def _hadamard_shape(f: Signature) -> tuple | None:
    """(polarity, k, m) when f is a kernel of kind HADAMARD, else None.

    Such a kernel is, up to column order, the m-multiple of the balanced
    polarity-Hadamard code of length 2^k (see _shape and
    is_balanced_hadamard), so two labels of one shape are column
    permutations of each other, and the shape is invariant under column
    permutation.  A row count other than 2^k - 1,
    k >= 3, or an arity that 2^k does not divide, is refused before any
    scan; that also leaves out the trivial kernels (support 3), which are
    not unique up to permutation.  The shape is read off the kernel test's
    hull; no column is grouped and no base is built."""
    n = len(f.rows) + 1
    if n < 8 or n & (n - 1) or f.arity % n or not is_eo(f):
        return None
    t, _, hull = _kernel_polarity(f)
    if t is None or (shape := _shape(f, t, hull)) is None:
        return None
    return (Polarity.ONE if t else Polarity.ZERO, *shape)


def classify(f: Signature) -> ClassReport:
    """Aggregate class membership report; non-EO inputs get all flags off.

    The kernel test runs first.  A delta_t kernel is not affine (its rows
    are not their hull), is delta_t-affine (the class recursion's top level
    finds the same hull and no _open_pins) and is not delta_(1-t)-affine (it
    has no constant-(1 - t) column), so only a label that is no kernel goes
    through is_affine and the class recursion.  A kernel's structure is
    read off the test's hull (see _shape and is_balanced_hadamard)."""
    if not is_eo(f):
        return ClassReport(False, False, False, False, False, False)
    t, own, hull = _kernel_polarity(f)
    if t is not None:
        one = t == 1
        return ClassReport(True, False, one, not one, one, not one,
                           _structure(f, t, own, hull))
    return ClassReport(True, is_affine(f), _in_class(f, 1), _in_class(f, 0), False, False)
