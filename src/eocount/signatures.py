"""0-1 signatures represented by their supports, and the syntactic operations
on them: pinning, extracting, tensoring, complements and friends.

A support row is stored packed in an int, bit i holding variable i+1, so the
operations on supports are mask operations.  Variable indices are 1-based at
every public interface.  ``Signature.support`` shows the rows as bit vectors,
tuples of 0/1 ints, for reading; weighted signatures keep bit-vector keys.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from functools import reduce
from operator import and_, itemgetter, or_
from typing import Iterable, Mapping

from .errors import FormatError, SizeCapExceeded

BitVector = tuple  # tuple of 0/1 ints

# Byte value -> digit for int(_, 2): 0 and 1 map to themselves, any other
# byte to "2", which int(_, 2) rejects.
_DIGITS = b"01" + b"2" * 254
_UNDIGITS = bytes.maketrans(b"01", b"\x00\x01")

# enumerate_eo_supports refuses to start on more supports than this
MAX_ENUMERATED_SUPPORTS = 1 << 20


def bits_str(bits: BitVector) -> str:
    return "".join(str(b) for b in bits)


def _strings(f: "Signature") -> list:
    """The support rows as 0/1 strings, variable ``arity`` first."""
    if not f.arity:
        return [""] * len(f.rows)
    fmt = f"0{f.arity}b"
    return [format(r, fmt) for r in f.rows]


@dataclass(frozen=True, slots=True, init=False)
class Signature:
    """A 0-1 constraint function given by its arity and support set.

    ``rows`` holds the support rows packed into ints, bit i for variable
    i+1; equality uses arity and rows, hashing the rows alone.  The
    constructor takes the support as 0/1 sequences of length ``arity``.
    Arity 0 is legal: support {()} is the scalar 1, empty support the
    scalar 0.
    """

    arity: int
    rows: frozenset
    _support: frozenset | None = field(compare=False)  # tuple view, once built

    def __init__(self, arity: int, support: Iterable = frozenset()):
        if arity < 0:
            raise ValueError("arity must be nonnegative")
        rows = set()
        for r in support:
            if len(r) != arity:
                raise ValueError(f"row {r!r} has length {len(r)}, expected {arity}")
            try:
                rows.add(int(bytes(r).translate(_DIGITS)[::-1], 2) if arity else 0)
            except (TypeError, ValueError):
                raise ValueError(f"row {r!r} contains non-bit entries") from None
        _set_arity(self, arity)
        _set_rows(self, frozenset(rows))
        _set_support(self, None)

    @staticmethod
    def _packed(arity: int, rows: frozenset) -> "Signature":
        """A signature of ints already packed below ``1 << arity``, unchecked."""
        f = object.__new__(Signature)
        _set_arity(f, arity)
        _set_rows(f, rows)
        _set_support(f, None)
        return f

    @classmethod
    def from_strings(cls, rows: Iterable[str], arity: int | None = None) -> "Signature":
        rows = list(rows)
        for r in rows:
            if r.strip("01"):
                raise FormatError(f"not a 0/1 string: {r!r}")
        packed = frozenset(int(r[::-1], 2) if r else 0 for r in rows)
        if arity is None:
            if not rows:
                raise ValueError("arity required for an empty support")
            arity = len(rows[0])
        for r in rows:
            if len(r) != arity:
                raise ValueError(f"row {r} has length {len(r)}, expected {arity}")
        return cls._packed(arity, packed)

    def __hash__(self) -> int:
        # the frozenset keeps its own hash; equal signatures have equal rows
        return hash(self.rows)

    def __repr__(self) -> str:
        rows = sorted(s[::-1] for s in _strings(self))
        return f"Signature.from_strings({rows!r}, arity={self.arity})"

    @property
    def support(self) -> frozenset:
        """The support rows as bit vectors, variable 1 first; built on first
        use and kept."""
        view = self._support
        if view is None:
            view = frozenset(
                tuple(s.encode().translate(_UNDIGITS)[::-1]) for s in _strings(self)
            )
            _set_support(self, view)
        return view

    def _check_index(self, i: int) -> None:
        if not 1 <= i <= self.arity:
            raise IndexError(f"variable index {i} out of range 1..{self.arity}")

    def is_zero(self) -> bool:
        return not self.rows


# The frozen dataclass refuses setattr; each field is set once, at
# construction, through its slot's own descriptor.
_set_arity, _set_rows, _set_support = (
    Signature.__dict__[name].__set__ for name in ("arity", "rows", "_support"))

SCALAR_ONE = Signature(0, frozenset({()}))
SCALAR_ZERO = Signature(0, frozenset())
DELTA1 = Signature(1, frozenset({(1,)}))
DELTA0 = Signature(1, frozenset({(0,)}))
NEQ2 = Signature(2, frozenset({(0, 1), (1, 0)}))


def column_masks(f: Signature) -> list:
    """Column i+1 at index i, as an int with one bit per support row; the
    rows take the same bit in every column."""
    strings = _strings(f)
    if not strings:
        return [0] * f.arity
    return [int("".join(col), 2) for col in zip(*strings)][::-1]


def permute_columns(f: Signature, perm) -> Signature:
    """Column j of the result is column perm[j] of ``f``, both 0-based."""
    n = f.arity
    if not n:
        return f
    # in a row's string, variable i + 1 is character n - 1 - i
    pick = itemgetter(*(n - 1 - perm[j] for j in reversed(range(n))))
    return Signature._packed(
        n, frozenset(int("".join(pick(s)), 2) for s in _strings(f))
    )


def _compress(rows: Iterable[int], keep: int) -> list:
    """The bits of each row at the set bits of ``keep``, moved down in order
    to bits 0, 1, ...; one int per row, so equal results are all kept."""
    runs = []  # (shift, width mask, destination) per run of kept bits
    dest = 0
    while keep:
        shift = (keep & -keep).bit_length() - 1
        width = ((keep >> shift) ^ ((keep >> shift) + 1)).bit_length() - 1
        runs.append((shift, (1 << width) - 1, dest))
        keep ^= ((1 << width) - 1) << shift
        dest += width
    return [sum(((r >> s) & m) << d for s, m, d in runs) for r in rows]


@dataclass(frozen=True)
class WeightedSignature:
    """Arity plus a map from bit vector to nonnegative integer value.

    Absent keys mean 0.  Produced by ``engine.gadget_demo_hardness``, where
    several rows may compress to one vector, which then has value 2 or more.
    """

    arity: int
    values: Mapping = field(default_factory=dict)

    def __post_init__(self):
        vals = {}
        for k, v in dict(self.values).items():
            k = tuple(k)
            if len(k) != self.arity:
                raise ValueError(f"key {k} has length {len(k)}, expected {self.arity}")
            if any(b not in (0, 1) for b in k):
                raise ValueError(f"key {k} contains non-bit entries")
            if v < 0:
                raise ValueError("values must be nonnegative")
            if v:
                vals[k] = int(v)
        object.__setattr__(self, "values", vals)


def is_eo(f: Signature) -> bool:
    """True iff arity is even and every support row has weight arity/2."""
    if f.arity % 2:
        return False
    half = f.arity // 2
    return all(r.bit_count() == half for r in f.rows)


def pin(f: Signature, i: int, b: int) -> Signature:
    """Fix variable i to bit b and drop it; arity decreases by one."""
    f._check_index(i)
    bit = 1 << (i - 1)
    low, want = bit - 1, b * bit
    return Signature._packed(
        f.arity - 1,
        frozenset((r & low) | (r >> 1 & ~low) for r in f.rows if (r & bit) == want),
    )


def extract(f: Signature, i: int, b: int) -> Signature:
    """Keep rows with bit b at position i; arity is unchanged."""
    f._check_index(i)
    bit = 1 << (i - 1)
    want = b * bit
    return Signature._packed(f.arity, frozenset(r for r in f.rows if (r & bit) == want))


def pin2(f: Signature, i: int, j: int, a: int, b: int) -> Signature:
    """Pin variable i to a and variable j to b; order-independent.  The
    higher index is pinned first, so the lower one keeps its position."""
    if i == j:
        raise IndexError("pin2 requires two distinct variables")
    f._check_index(i)
    f._check_index(j)
    if i < j:
        i, j, a, b = j, i, b, a
    return pin(pin(f, i, a), j, b)


def tensor(f: Signature, g: Signature) -> Signature:
    """Tensor product: all concatenations of a row of f with a row of g."""
    n = f.arity
    return Signature._packed(
        n + g.arity, frozenset(a | b << n for a in f.rows for b in g.rows)
    )


def complement(f: Signature) -> Signature:
    """Flip every bit of every support row."""
    full = (1 << f.arity) - 1
    return Signature._packed(f.arity, frozenset(r ^ full for r in f.rows))


def _positions(mask: int) -> list:
    """1-based indices of the set bits, ascending."""
    out = []
    while mask:
        low = mask & -mask
        out.append(low.bit_length())
        mask ^= low
    return out


def delta_factors(f: Signature) -> tuple:
    """Indices of constant-1 and constant-0 columns, as two sorted lists.

    The nonzero-signature factor notion does not apply to an empty support,
    so that case is rejected.
    """
    if not f.rows:
        raise ValueError("delta_factors requires a nonempty support")
    zeros, ones = _folds(f)
    return _positions(ones), _positions(zeros)


def _folds(f: Signature) -> tuple:
    """The constant-0 and the constant-1 columns of a nonempty support, as
    masks, so that index t holds the constant-t columns."""
    return ((1 << f.arity) - 1) ^ reduce(or_, f.rows), reduce(and_, f.rows)


def strip_columns(f: Signature, drop: Iterable[int]) -> Signature:
    """Delete the listed columns (1-based) from every support row."""
    keep = (1 << f.arity) - 1
    for i in set(drop):
        if 1 <= i <= f.arity:
            keep ^= 1 << (i - 1)
    return Signature._packed(keep.bit_count(), frozenset(_compress(f.rows, keep)))


def m_multiple(f: Signature, m: int) -> Signature:
    """Each support row repeated as an m-fold concatenation."""
    if m < 1:
        raise ValueError("m must be positive")
    repeat = sum(1 << (j * f.arity) for j in range(m))  # one bit per copy
    return Signature._packed(f.arity * m, frozenset(r * repeat for r in f.rows))


# -- text format ------------------------------------------------------------

# The text form of the empty row, the one support row of the scalar 1
EMPTY_ROW = "-"


def signature_to_text(f: Signature) -> str:
    """One row per line; an `arity N` header only when the support is empty,
    and `-` for the empty row of the scalar 1."""
    if not f.rows:
        return f"arity {f.arity}\n"
    if not f.arity:
        return EMPTY_ROW + "\n"
    return "".join(s + "\n" for s in sorted(s[::-1] for s in _strings(f)))


def _signature_of(rows: Iterable) -> Signature:
    """The signature of a text block as (line number, stripped nonblank row) pairs."""
    arity = width = None
    packed = set()
    for lineno, row in rows:
        if row.strip("01"):
            if row.startswith("arity"):
                parts = row.split()
                if len(parts) != 2 or not parts[1].isdecimal():
                    raise FormatError(f"line {lineno}: bad arity header {row!r}")
                arity = int(parts[1])
                continue
            if row != EMPTY_ROW:
                raise FormatError(f"line {lineno}: not a 0/1 string: {row!r}")
            row = ""
        if width is None:
            width = len(row)
        elif len(row) != width:
            raise FormatError(f"line {lineno}: rows have unequal lengths")
        packed.add(int(row[::-1], 2) if row else 0)
    if width is not None:
        if arity is not None and arity != width:
            raise FormatError(f"arity header {arity} does not match row length {width}")
        arity = width
    elif arity is None:
        raise FormatError("empty support requires an `arity N` header")
    return Signature._packed(arity, frozenset(packed))


def signature_from_text(text: str) -> Signature:
    rows = (raw.split("#", 1)[0].strip() for raw in text.splitlines())
    return _signature_of((n, row) for n, row in enumerate(rows, 1) if row)


def enumerate_eo_supports(arity: int, max_support: int | None = None):
    """All EO supports of the given arity, at most ``max_support`` rows each,
    as an iterator of Signatures.

    Used by the kernel census.  With V = C(arity, arity/2) half-weight
    vectors there are sum C(V, s) such supports; more than
    ``MAX_ENUMERATED_SUPPORTS`` raises SizeCapExceeded before any is made.
    """
    if arity < 0 or arity % 2:
        raise ValueError("EO signatures have even arity")
    half = arity // 2
    nvec = math.comb(arity, half)
    top = nvec if max_support is None else min(max_support, nvec)
    # stop at the first partial sum past the cap: the whole sum can take minutes
    totals = itertools.accumulate(math.comb(nvec, s) for s in range(top + 1))
    if any(total > MAX_ENUMERATED_SUPPORTS for total in totals):
        raise SizeCapExceeded(
            f"more than 2^{MAX_ENUMERATED_SUPPORTS.bit_length() - 1} EO "
            f"supports of arity {arity}; limit the support size"
        )
    vectors = [v for v in range(1 << arity) if v.bit_count() == half]
    return (
        Signature._packed(arity, frozenset(combo))
        for size in range(top + 1)
        for combo in itertools.combinations(vectors, size)
    )
