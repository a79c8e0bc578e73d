"""Sylvester Hadamard matrices, Hadamard codes, butterflies, wings and
basic kernels.

Polarity convention: ONE maps the +1 matrix entry to bit 1 (so the code
contains the all-1 word), ZERO maps +1 to bit 0.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

from .errors import SizeCapExceeded
from .signatures import Signature

DEFAULT_MAX_K = 6  # arity cap 2^6 = 64


class Polarity(enum.Enum):
    ONE = "1"
    ZERO = "0"


@dataclass(frozen=True)
class PmMatrix:
    """Square matrix with entries in {+1, -1}."""

    order: int
    entries: tuple  # tuple of row tuples

    def is_hadamard(self) -> bool:
        n = self.order
        for i in range(n):
            for j in range(i, n):
                dot = sum(a * b for a, b in zip(self.entries[i], self.entries[j]))
                if dot != (n if i == j else 0):
                    return False
        return True


def _check_k(k: int, low: int = 0, cap: int = DEFAULT_MAX_K) -> None:
    if k < low:
        raise ValueError(f"k must be >= {low}")
    if k > cap:
        raise SizeCapExceeded(f"k={k} exceeds cap {cap}")


def sylvester(k: int) -> PmMatrix:
    """The 2^k Sylvester Hadamard matrix: entry (a, m) is -1 exactly where
    bit m of _parity_rows(k)[a] is set."""
    _check_k(k)
    n = 1 << k
    rows = (tuple(1 - 2 * (r >> m & 1) for m in range(n)) for r in _parity_rows(k))
    return PmMatrix(n, tuple(rows))


def _parity_rows(k: int) -> list:
    """Row a, for 0 <= a < 2^k, has bit m set iff a & m has odd weight:
    the -1 entries of row a of the Sylvester matrix, built by blockwise
    doubling."""
    rows = [0]
    for j in range(k):
        n = 1 << j
        full = (1 << n) - 1
        rows = [r | r << n for r in rows] + [r | (r ^ full) << n for r in rows]
    return rows


def hadamard_code(k: int, variant: Polarity = Polarity.ONE) -> Signature:
    """Rows of the Sylvester matrix as a binary code of length 2^k."""
    _check_k(k)
    # ONE sets the +1 entries, the complement of the parity rows
    flip = (1 << (1 << k)) - 1 if variant is Polarity.ONE else 0
    return Signature._packed(1 << k, frozenset(r ^ flip for r in _parity_rows(k)))


def balanced_code(k: int, variant: Polarity = Polarity.ONE) -> Signature:
    """Hadamard code with its constant word removed; all words have weight
    2^(k-1)."""
    _check_k(k, low=1)
    code = hadamard_code(k, variant)
    const = (1 << code.arity) - 1 if variant is Polarity.ONE else 0
    return Signature._packed(code.arity, code.rows - {const})


def butterfly(k: int) -> Signature:
    """The maximal affine signature with k free variables and pairwise
    non-identical variables; arity 2^(k+1), support 2^k.

    Columns: position 1 is constant 0; position m (1 <= m <= 2^k) carries the
    linear combination whose coefficient vector is the binary counter value
    m-1 (first free variable in the low bit); position m + 2^k carries its
    complement.  The first support row (all free variables 0) is 0...01...1.
    """
    _check_k(k, low=1, cap=DEFAULT_MAX_K - 1)  # twice the codes' arity
    half = 1 << k
    full = (1 << half) - 1
    return Signature._packed(
        2 * half, frozenset(r | (r ^ full) << half for r in _parity_rows(k))
    )


def wings(k: int) -> tuple:
    """(left, right) halves of butterfly(k) with the constant row removed:
    the balanced 0- and 1-Hadamard codes of length 2^k."""
    return balanced_code(k, Polarity.ZERO), balanced_code(k, Polarity.ONE)


def basic_kernel(k: int) -> Signature:
    """The basic delta1-affine kernel of order k: by the paper's
    characterization of the base level, the balanced 1-Hadamard code of
    length 2^k (arity 2^k, support 2^k - 1)."""
    return balanced_code(k, Polarity.ONE)


def basic_kernel_zero(k: int) -> Signature:
    """Dual basic kernel for the delta0-affine side: the complement of
    basic_kernel(k), the balanced 0-Hadamard code."""
    return balanced_code(k, Polarity.ZERO)
