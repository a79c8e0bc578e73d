"""GF(2) affine machinery: affine detection, affine hulls and their cosets,
basis/constraint extraction, solution counting, and the pairwise-opposite
decomposition of affine EO signatures.

Vectors are packed into Python ints, bit i (0-based) holding variable i+1.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import NotAffineError, PairingError
from .signatures import Signature, column_masks, is_eo


def _pivots(rows, rank: int = -1) -> dict:
    """Echelon basis of the span of packed rows: a dict from the position of
    each basis row's highest set bit (``bit_length``, so bit i has key i+1)
    to the row.  An incoming row is reduced by the row that owns its highest
    bit until that bit is new (or the row vanishes), so the dict's size is
    the rank.  ``bit_length`` reads the int's top digit and builds no new
    int, and keys are small ints, so finding a pivot costs the same however
    wide the rows are.  Reading stops as soon as the dict holds ``rank``
    rows."""
    pivots: dict = {}
    for r in rows:
        while r:
            top = r.bit_length()
            p = pivots.get(top)
            if p is None:
                pivots[top] = r
                if len(pivots) == rank:
                    return pivots
                break
            r ^= p
    return pivots


def _coset(base: int, basis) -> list:
    """The 2^len(basis) points of base + span(basis)."""
    points = [base]
    for v in basis:
        points += [p ^ v for p in points]
    return points


def _hull(rows) -> tuple:
    """(base, basis, missing) for the affine hull A of the rows (nonempty):
    A is base + span(basis), the basis D independent vectors, and missing
    the set of A's points that are not rows.  missing is None when
    2^D > 2 * |rows|: then no hyperplane of A (2^(D-1) points) lies in the
    rows, so no pin fills one (see classes._filled_pins), A is not listed
    and basis may be cut short.  So the reduction stops at
    top = floor(log2(2 * |rows|)) pivots, and the coset they span is A
    exactly when it holds every row, that is when |rows| of its points are
    rows."""
    base = next(iter(rows))
    top = (2 * len(rows)).bit_length() - 1
    basis = tuple(_pivots(map(base.__xor__, rows), top).values())
    points = _coset(base, basis)
    missing = set(points).difference(rows)
    if len(points) - len(missing) != len(rows):
        return base, basis, None
    return base, basis, missing


def gf2_eliminate(rows: list, ncols: int) -> list:
    """Reduced row echelon form of int-packed rows; zero rows dropped.

    Pivots are chosen at the lowest column index, so the result is canonical
    for a given row space.  Rows sort by pivot column; a row with no bit
    among the ``ncols`` columns has no pivot and is dropped.  The echelon
    basis is keyed on each row's lowest set bit, which the back-substitution
    needs, so this keeps its own loop: ``_pivots`` keys on the highest bit
    and gives another basis of the same span.  The benchmark's label
    generator (``bench/planted.random_affine_eo``) reads this exact form.
    """
    pivots: dict = {}
    for r in rows:
        while r:
            low = (r & -r).bit_length()
            p = pivots.get(low)
            if p is None:
                pivots[low] = r
                break
            r ^= p
    reduced: dict = {}  # filled from the highest pivot down
    for low in sorted((low for low in pivots if low <= ncols), reverse=True):
        r = pivots[low]
        for high, q in reduced.items():
            if r >> (high - 1) & 1:
                r ^= q
        reduced[low] = r
    return list(reversed(reduced.values()))


@dataclass(frozen=True)
class AffineSystem:
    """An affine solution set over GF(2) on ``num_vars`` variables, packed:
    the ``offset`` vector plus the span of ``basis``, or ``offset`` None for
    the empty set.

    ``constraints`` holds rows in ``count_packed``'s layout, the constant at
    bit 0 and variable i at bit i; the empty set's one row is 1, "0 = 1".
    """

    num_vars: int
    offset: int | None
    basis: tuple
    constraints: tuple


def _affine_rows(rows):
    """(base, basis) with the distinct packed rows (any sized collection)
    equal to base + span(basis), the basis independent; (None, ()) for no
    rows; None when they are not an affine subspace.  s rows are affine
    exactly when s is a power of two and their differences from one of
    them have rank log2(s)."""
    s = len(rows)
    if s == 0:
        return None, ()
    if s & (s - 1):
        return None
    base = next(iter(rows))
    basis = tuple(_pivots(map(base.__xor__, rows)).values())
    return (base, basis) if s == 1 << len(basis) else None


def is_affine(f: Signature) -> bool:
    """True iff the support is an affine subspace (empty included)."""
    return _affine_rows(f.rows) is not None


def affine_system(f: Signature) -> AffineSystem:
    """Offset/basis/constraints view of an affine signature's support;
    NotAffineError when the support is not an affine subspace.  The basis
    is reduced, so each row alone sets its lowest bit, its lead; a column c
    that leads no row gives one constraint, variable c plus the leads of
    the rows that set c, with the parity the offset reads on it."""
    n = f.arity
    rows = f.rows
    if not rows:
        return AffineSystem(n, None, (), (1,))
    base = min(rows)
    basis = gf2_eliminate([r ^ base for r in rows], n)
    # the support lies in base + span(basis), equal to it iff same size
    if len(rows) != 1 << len(basis):
        raise NotAffineError("signature is not affine")
    leads = {r & -r: r for r in basis}
    constraints = []
    for c in range(n):
        if 1 << c not in leads:
            a = 1 << c | sum(low for low, r in leads.items() if r >> c & 1)
            constraints.append(a << 1 | (a & base).bit_count() & 1)
    return AffineSystem(n, base, tuple(basis), tuple(constraints))


def count_packed(rows: list, n: int) -> int:
    """Solutions of packed (n+1)-bit rows over n variables; 0 if inconsistent.

    A row holds its constant at bit 0 and variable i at bit i, the layout
    of ``affine_system``'s constraints: x is a solution iff every row has
    even overlap with x << 1 | 1.  The constant sits below every variable,
    so a row reduces to exactly 1 ("0 = 1") only when the system is
    inconsistent, and ``_pivots`` then holds key 1.
    """
    pivots = _pivots(rows)
    if 1 in pivots:  # the row space holds 0 = 1
        return 0
    return 1 << (n - len(pivots))


def pairwise_opposite_pairs(f: Signature) -> list:
    """Perfect matching of variables into positionwise-complementary column
    pairs; guaranteed to exist for affine EO signatures."""
    if not is_affine(f) or not is_eo(f) or not f.rows:
        raise ValueError("requires a nonempty affine EO signature")
    every = (1 << len(f.rows)) - 1  # one bit per support row
    groups: dict = {}
    for i, col in enumerate(column_masks(f), 1):
        groups.setdefault(col, []).append(i)
    pairs = []
    for col, members in groups.items():
        mates = groups.get(col ^ every)
        if mates is None or len(mates) != len(members):
            raise PairingError(
                "complementary column matching failed; this should be "
                "impossible for affine EO signatures"
            )
        if members[0] < mates[0]:
            pairs.extend(zip(members, mates))
    pairs.sort()
    return pairs


def constant_weight_profile(f: Signature) -> tuple:
    """(is_constant_weighted, weight); weight is None when not constant or
    the support is empty."""
    weights = {r.bit_count() for r in f.rows}
    if len(weights) == 1:
        return True, weights.pop()
    return (not weights), None


def random_affine_signature(rng, n: int) -> Signature:
    """Sample a random nonempty affine signature of arity n."""
    dim = rng.randint(0, n)
    offset = rng.getrandbits(n)
    vecs = [rng.getrandbits(n) for _ in range(dim)]
    basis = gf2_eliminate(vecs, n)
    return Signature._packed(n, frozenset(_coset(offset, basis)))
