"""0-1 signatures represented by their supports, and the syntactic operations
on them: pinning, extracting, tensoring, looping, complements and friends.

A bit vector is a tuple of 0/1 ints.  Variable indices are 1-based at every
public interface.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Iterable, Mapping

from .errors import FormatError

BitVector = tuple  # tuple of 0/1 ints


def wt(bits: BitVector) -> int:
    """Hamming weight."""
    return sum(bits)


def bits_complement(bits: BitVector) -> BitVector:
    return tuple(1 - b for b in bits)


def parse_bits(text: str) -> BitVector:
    if not all(c in "01" for c in text):
        raise FormatError(f"not a 0/1 string: {text!r}")
    return tuple(int(c) for c in text)


def bits_str(bits: BitVector) -> str:
    return "".join(str(b) for b in bits)


def _check_rows(arity: int, rows: Iterable[BitVector]) -> frozenset:
    rows = frozenset(tuple(r) for r in rows)
    for r in rows:
        if len(r) != arity:
            raise ValueError(f"row {bits_str(r)} has length {len(r)}, expected {arity}")
        if any(b not in (0, 1) for b in r):
            raise ValueError(f"row {r!r} contains non-bit entries")
    return rows


@dataclass(frozen=True)
class Signature:
    """A 0-1 constraint function given by its arity and support set.

    Arity 0 is legal: support {()} is the scalar 1, empty support the scalar 0.
    """

    arity: int
    support: frozenset = field(default_factory=frozenset)

    def __post_init__(self):
        if self.arity < 0:
            raise ValueError("arity must be nonnegative")
        object.__setattr__(self, "support", _check_rows(self.arity, self.support))

    @classmethod
    def from_strings(cls, rows: Iterable[str], arity: int | None = None) -> "Signature":
        parsed = [parse_bits(r) for r in rows]
        if arity is None:
            if not parsed:
                raise ValueError("arity required for an empty support")
            arity = len(parsed[0])
        return cls(arity, frozenset(parsed))

    def __contains__(self, bits) -> bool:
        return tuple(bits) in self.support

    def rows_sorted(self) -> list:
        return sorted(self.support)

    def column(self, i: int) -> BitVector:
        """Column i (1-based) read down the sorted support rows."""
        self._check_index(i)
        return tuple(r[i - 1] for r in self.rows_sorted())

    def _check_index(self, i: int) -> None:
        if not 1 <= i <= self.arity:
            raise IndexError(f"variable index {i} out of range 1..{self.arity}")

    def is_zero(self) -> bool:
        return not self.support


SCALAR_ONE = Signature(0, frozenset({()}))
SCALAR_ZERO = Signature(0, frozenset())
DELTA1 = Signature(1, frozenset({(1,)}))
DELTA0 = Signature(1, frozenset({(0,)}))
NEQ2 = Signature(2, frozenset({(0, 1), (1, 0)}))


@dataclass(frozen=True)
class WeightedSignature:
    """Arity plus a map from bit vector to nonnegative integer value.

    Absent keys mean 0.  Produced by disequality looping, where a vector may
    pick up value 2 or more.
    """

    arity: int
    values: Mapping = field(default_factory=dict)

    def __post_init__(self):
        vals = {}
        for k, v in dict(self.values).items():
            k = tuple(k)
            if len(k) != self.arity:
                raise ValueError(f"key {k} has length {len(k)}, expected {self.arity}")
            if v < 0:
                raise ValueError("values must be nonnegative")
            if v:
                vals[k] = int(v)
        object.__setattr__(self, "values", vals)

    def __getitem__(self, bits) -> int:
        return self.values.get(tuple(bits), 0)

    def __eq__(self, other):
        return (
            isinstance(other, WeightedSignature)
            and self.arity == other.arity
            and self.values == other.values
        )

    def to_signature(self) -> Signature:
        """Lossless conversion, valid only when all values are 0 or 1."""
        if any(v > 1 for v in self.values.values()):
            raise ValueError("values exceed 1; not a 0-1 signature")
        return Signature(self.arity, frozenset(self.values))

    @classmethod
    def of(cls, f) -> "WeightedSignature":
        if isinstance(f, WeightedSignature):
            return f
        return cls(f.arity, {r: 1 for r in f.support})


def is_eo(f: Signature) -> bool:
    """True iff arity is even and every support row has weight arity/2."""
    if f.arity % 2:
        return False
    half = f.arity // 2
    return all(wt(r) == half for r in f.support)


def pin(f: Signature, i: int, b: int) -> Signature:
    """Fix variable i to bit b and drop it; arity decreases by one."""
    f._check_index(i)
    keep = (r[: i - 1] + r[i:] for r in f.support if r[i - 1] == b)
    return Signature(f.arity - 1, frozenset(keep))


def extract(f: Signature, i: int, b: int) -> Signature:
    """Keep rows with bit b at position i; arity is unchanged."""
    f._check_index(i)
    return Signature(f.arity, frozenset(r for r in f.support if r[i - 1] == b))


def pin2(f: Signature, i: int, j: int, a: int, b: int) -> Signature:
    """Pin variable i to a and variable j to b; order-independent."""
    if i == j:
        raise IndexError("pin2 requires two distinct variables")
    f._check_index(i)
    f._check_index(j)
    lo, hi = sorted((i, j))
    want = {i: a, j: b}
    keep = (
        r[: lo - 1] + r[lo : hi - 1] + r[hi:]
        for r in f.support
        if r[i - 1] == want[i] and r[j - 1] == want[j]
    )
    return Signature(f.arity - 2, frozenset(keep))


def loop_diseq(f, i: int, j: int) -> WeightedSignature:
    """Connect variables i and j of f through a disequality; values may sum."""
    w = WeightedSignature.of(f)
    if i == j:
        raise IndexError("loop_diseq requires two distinct variables")
    for idx in (i, j):
        if not 1 <= idx <= w.arity:
            raise IndexError(f"variable index {idx} out of range 1..{w.arity}")
    lo, hi = sorted((i, j))
    out: dict = {}
    for r, v in w.values.items():
        if r[i - 1] != r[j - 1]:
            key = r[: lo - 1] + r[lo : hi - 1] + r[hi:]
            out[key] = out.get(key, 0) + v
    return WeightedSignature(w.arity - 2, out)


def weighted_tensor(f, g) -> WeightedSignature:
    wf, wg = WeightedSignature.of(f), WeightedSignature.of(g)
    out: dict = {}
    for a, va in wf.values.items():
        for b, vb in wg.values.items():
            out[a + b] = va * vb
    return WeightedSignature(wf.arity + wg.arity, out)


def connect(f, i: int, g, j: int) -> WeightedSignature:
    """Join variable i of f to variable j of g through a disequality edge."""
    wf, wg = WeightedSignature.of(f), WeightedSignature.of(g)
    return loop_diseq(weighted_tensor(wf, wg), i, wf.arity + j)


def tensor(f: Signature, g: Signature) -> Signature:
    """Tensor product: all concatenations of a row of f with a row of g."""
    return Signature(
        f.arity + g.arity, frozenset(a + b for a in f.support for b in g.support)
    )


def complement(f: Signature) -> Signature:
    """Flip every bit of every support row."""
    return Signature(f.arity, frozenset(bits_complement(r) for r in f.support))


def hat(f: Signature) -> Signature:
    """Symmetric difference of the support with the all-1 vector."""
    if f.arity < 1:
        raise ValueError("hat undefined for arity 0")
    return Signature(f.arity, f.support ^ {(1,) * f.arity})


def delta_factors(f: Signature) -> tuple:
    """Indices of constant-1 and constant-0 columns, as two sorted lists.

    The nonzero-signature factor notion does not apply to an empty support,
    so that case is rejected.
    """
    if not f.support:
        raise ValueError("delta_factors requires a nonempty support")
    ones, zeros = [], []
    for i in range(1, f.arity + 1):
        col = {r[i - 1] for r in f.support}
        if col == {1}:
            ones.append(i)
        elif col == {0}:
            zeros.append(i)
    return ones, zeros


def strip_columns(f: Signature, drop: Iterable[int]) -> Signature:
    """Delete the listed columns (1-based) from every support row."""
    drop = set(drop)
    keep = [i for i in range(1, f.arity + 1) if i not in drop]
    return Signature(
        len(keep), frozenset(tuple(r[i - 1] for i in keep) for r in f.support)
    )


def m_multiple(f: Signature, m: int) -> Signature:
    """Each support row repeated as an m-fold concatenation."""
    if m < 1:
        raise ValueError("m must be positive")
    return Signature(f.arity * m, frozenset(r * m for r in f.support))


def multiple_decompose(f: Signature) -> tuple:
    """Undo m_multiple by grouping identical columns.

    Returns (base, m, grouping) where grouping is a list of 1-based index
    groups in first-occurrence order.  If identical columns do not come in
    equally sized groups, returns m=1 with base=f and singleton groups.
    """
    if not f.support:
        raise ValueError("multiple_decompose requires a nonempty support")
    rows = f.rows_sorted()
    seen: dict = {}
    order = []
    for i in range(1, f.arity + 1):
        col = tuple(r[i - 1] for r in rows)
        if col not in seen:
            seen[col] = []
            order.append(col)
        seen[col].append(i)
    groups = [seen[c] for c in order]
    sizes = {len(g) for g in groups}
    if len(sizes) != 1 or sizes == {1}:
        return f, 1, [[i] for i in range(1, f.arity + 1)]
    (m,) = sizes
    reps = [g[0] for g in groups]
    base = Signature(
        len(reps), frozenset(tuple(r[i - 1] for i in reps) for r in f.support)
    )
    return base, m, groups


# -- text format ------------------------------------------------------------

def signature_to_text(f: Signature) -> str:
    """One row per line; an `arity N` header only when the support is empty."""
    if not f.support:
        return f"arity {f.arity}\n"
    return "".join(bits_str(r) + "\n" for r in f.rows_sorted())


def signature_from_text(text: str) -> Signature:
    arity = None
    rows = []
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if line.startswith("arity"):
            parts = line.split()
            if len(parts) != 2 or not parts[1].isdigit():
                raise FormatError(f"line {lineno}: bad arity header {raw!r}")
            arity = int(parts[1])
            continue
        rows.append(parse_bits(line))
    if rows:
        lengths = {len(r) for r in rows}
        if len(lengths) != 1:
            raise FormatError("rows have unequal lengths")
        (n,) = lengths
        if arity is not None and arity != n:
            raise FormatError(f"arity header {arity} does not match row length {n}")
        arity = n
    elif arity is None:
        raise FormatError("empty support requires an `arity N` header")
    return Signature(arity, frozenset(rows))


def enumerate_eo_supports(arity: int, max_support: int | None = None):
    """All EO supports of the given arity as an iterator of Signatures.

    Used by the kernel census; the subset count is 2^C(arity, arity/2).
    """
    if arity % 2:
        raise ValueError("EO signatures have even arity")
    half = arity // 2
    vectors = [
        v for v in itertools.product((0, 1), repeat=arity) if wt(v) == half
    ]
    top = len(vectors) if max_support is None else min(max_support, len(vectors))
    for size in range(top + 1):
        for combo in itertools.combinations(vectors, size):
            yield Signature(arity, frozenset(combo))
