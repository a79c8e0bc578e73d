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
    each basis row's lowest set bit (``bit_length``, so bit i has key i+1) to
    the row.  An incoming row is reduced by the row that owns its lowest bit
    until that bit is new (or the row vanishes), so the dict's size is the
    rank.  Keys are small ints, so a lookup costs the same however wide the
    rows are.  Reading stops as soon as the dict holds ``rank`` rows."""
    pivots: dict = {}
    for r in rows:
        while r:
            low = (r & -r).bit_length()
            p = pivots.get(low)
            if p is None:
                pivots[low] = r
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
    basis = tuple(_pivots((r ^ base for r in rows), top).values())
    points = _coset(base, basis)
    missing = set(points).difference(rows)
    if len(points) - len(missing) != len(rows):
        return base, basis, None
    return base, basis, missing


def gf2_eliminate(rows: list, ncols: int) -> list:
    """Reduced row echelon form of int-packed rows; zero rows dropped.

    Pivots are chosen at the lowest column index, so the result is canonical
    for a given row space.  Rows sort by pivot column; a row with no bit
    among the ``ncols`` columns has no pivot and is dropped.
    """
    pivots = _pivots(rows)
    reduced: dict = {}  # filled from the highest pivot down
    for low in sorted((low for low in pivots if low <= ncols), reverse=True):
        r = pivots[low]
        for high, q in reduced.items():
            if r >> (high - 1) & 1:
                r ^= q
        reduced[low] = r
    return list(reversed(reduced.values()))


def gf2_nullspace(rows: list, ncols: int) -> list:
    """Basis of {x : r·x = 0 for every r}, int-packed."""
    ech = gf2_eliminate(rows, ncols)
    basis = []
    for c in range(ncols):
        free = 1 << c
        if not any(r & -r == free for r in ech):
            basis.append(free | sum(r & -r for r in ech if r & free))
    return basis


@dataclass(frozen=True)
class AffineSystem:
    """An affine solution set over GF(2) on ``num_vars`` variables, packed:
    the ``offset`` vector plus the span of ``basis``, or ``offset`` None for
    the empty set.

    ``constraints`` holds rows of n+1 bits, the constant at bit n: x is a
    solution iff every row has even overlap with x | 1 << n.
    """

    num_vars: int
    offset: int | None
    basis: tuple
    constraints: tuple

    @property
    def is_empty(self) -> bool:
        return self.offset is None


def _affine_basis(f: Signature):
    """(base, basis) with the support equal to base + span(basis), the basis
    independent; (None, ()) for the empty support; None when the support is
    not an affine subspace."""
    return _affine_rows(f.rows)


def _affine_rows(rows):
    """``_affine_basis`` of any sized collection of distinct packed rows:
    s rows are affine exactly when s is a power of two and their
    differences from one of them have rank log2(s)."""
    s = len(rows)
    if s == 0:
        return None, ()
    if s & (s - 1):
        return None
    base = next(iter(rows))
    basis = tuple(_pivots(r ^ base for r in rows).values())
    return (base, basis) if s == 1 << len(basis) else None


def is_affine(f: Signature) -> bool:
    """True iff the support is an affine subspace (empty included)."""
    return _affine_basis(f) is not None


def affine_system(f: Signature) -> AffineSystem:
    """Offset/basis/constraints view of an affine signature's support;
    NotAffineError when the support is not an affine subspace."""
    n = f.arity
    rows = f.rows
    if not rows:
        # inconsistent system: the single row 0...0|1
        return AffineSystem(n, None, (), (1 << n,))
    base = min(rows)
    basis = gf2_eliminate([r ^ base for r in rows], n)
    # the support lies in base + span(basis), equal to it iff same size
    if len(rows) != 1 << len(basis):
        raise NotAffineError("signature is not affine")
    constraints = tuple(
        a | ((a & base).bit_count() & 1) << n for a in gf2_nullspace(basis, n)
    )
    return AffineSystem(n, base, tuple(basis), constraints)


def count_packed(rows: list, n: int) -> int:
    """Solutions of packed (n+1)-bit rows over n variables; 0 if inconsistent."""
    pivots = _pivots(rows)
    if n + 1 in pivots:  # the row space holds 0 = 1
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
