"""Membership tests for the tractable classes: affine, delta1-/delta0-affine,
their kernels, and the balanced-Hadamard structural characterization of
non-trivial kernels.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

from .affine import is_affine
from .errors import BudgetExceeded, StructureViolation
from .hadamard import Polarity
from .signatures import (
    Signature,
    column_masks,
    complement,
    delta_factors,
    hat,
    is_eo,
    multiple_decompose,
    pin,
    strip_columns,
)

# New _d1_memo entries that one top-level in_d1/in_d0 call may add: the
# recursion does one pin-and-scan per entry, so this bounds its work whatever
# the arity (a kernel of arity 192 adds 2 entries, a tensor of five basic
# kernels of arity 4 about 100).
MEMO_BUDGET = 1 << 13
# Size at which a top-level call clears _d1_memo before it starts, so the
# table never holds more than MEMO_CAP + MEMO_BUDGET entries.
MEMO_CAP = 1 << 16


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


_d1_memo: dict = {}


def _require_eo(f: Signature) -> None:
    if not is_eo(f):
        raise ValueError("not an EO signature")


def in_d1(f: Signature) -> bool:
    """Delta1-affine membership: a delta1 factor whose residual pins-to-0 all
    land back in affine-or-delta1, recursively."""
    _require_eo(f)
    return _in_d1_rec(f, _memo_limit())


def _memo_limit() -> int:
    """Start of a top-level call: clear _d1_memo if it has reached MEMO_CAP,
    and return the memo size at which the call's budget runs out."""
    if len(_d1_memo) >= MEMO_CAP:
        _d1_memo.clear()
    return len(_d1_memo) + MEMO_BUDGET


def _in_d1_rec(f: Signature, limit: int) -> bool:
    hit = _d1_memo.get(f)
    if hit is not None:
        return hit
    if len(_d1_memo) >= limit:
        raise BudgetExceeded(
            f"in_d1 budget of {MEMO_BUDGET} new memo entries exceeded"
        )
    if not f.rows:
        result = False
    else:
        ones, _ = delta_factors(f)
        if not ones:
            result = False
        else:
            g = pin(f, ones[0], 1)
            result = all(
                is_affine(p) or _in_d1_rec(p, limit)
                for p in (pin(g, i, 0) for i in range(1, g.arity + 1))
            )
    _d1_memo[f] = result
    return result


def in_d0(f: Signature) -> bool:
    """Dual of in_d1 with the roles of 0 and 1 swapped."""
    _require_eo(f)
    return _in_d1_rec(complement(f), _memo_limit())


def is_d1_kernel(f: Signature) -> bool:
    """First level of the delta1-affine hierarchy: strip all delta1 columns,
    the residual must be non-affine with a delta0-free support whose every
    pin-to-0 is affine."""
    _require_eo(f)
    if not f.rows:
        return False
    ones, zeros = delta_factors(f)
    if not ones or zeros:
        return False
    h = strip_columns(f, ones)
    if h.arity == 0 or is_affine(h):
        return False
    return all(is_affine(pin(h, i, 0)) for i in range(1, h.arity + 1))


def is_d0_kernel(f: Signature) -> bool:
    _require_eo(f)
    return is_d1_kernel(complement(f))


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

    Route for ONE: restore the all-1 word (hat), complement, and demand the
    result be a linear code whose 2^k columns are pairwise distinct -- that
    pins it to the code whose columns exhaust all linear functionals, i.e.
    the 0-Hadamard code.
    """
    if polarity is Polarity.ZERO:
        return is_balanced_hadamard(complement(f), Polarity.ONE)
    n = f.arity
    if n < 2 or n & (n - 1):
        return None
    k = n.bit_length() - 1
    if len(f.rows) != n - 1:
        return None
    if any(r.bit_count() != n // 2 for r in f.rows):
        return None
    c = complement(hat(f))
    if 0 not in c.rows:
        return None
    if not is_affine(c):
        return None
    if len(set(column_masks(c))) != n:
        return None
    return k


def kernel_structure(f: Signature) -> KernelStructure:
    """Structural decomposition of a kernel per the characterization:
    trivial (support 3) or an m-multiple of a balanced Hadamard code."""
    if is_d1_kernel(f):
        polarity = Polarity.ONE
    elif is_d0_kernel(f):
        polarity = Polarity.ZERO
    else:
        raise ValueError("not a kernel")
    return _structure(f, polarity)


def _structure(f: Signature, polarity: Polarity) -> KernelStructure:
    """kernel_structure for a kernel whose polarity is already known."""
    ones, zeros = delta_factors(f)
    own = ones if polarity is Polarity.ONE else zeros
    if len(f.rows) == 3:
        return KernelStructure(
            polarity,
            KernelKind.TRIVIAL,
            None,
            len(own),
            f,
            tuple((i,) for i in range(1, f.arity + 1)),
        )
    base, m, grouping = multiple_decompose(f)
    k = is_balanced_hadamard(base, polarity)
    if k is None:
        raise StructureViolation("kernel base is not a balanced Hadamard code")
    if len(f.rows) != (1 << k) - 1 or f.arity != m << k:
        raise StructureViolation(
            f"kernel size mismatch: support {len(f.rows)}, arity {f.arity}, "
            f"k={k}, m={m}"
        )
    return KernelStructure(
        polarity, KernelKind.HADAMARD, k, m, base, tuple(tuple(g) for g in grouping)
    )


def classify(f: Signature) -> ClassReport:
    """Aggregate class membership report; non-EO inputs get all flags off."""
    if not is_eo(f):
        return ClassReport(False, False, False, False, False, False)
    aff = is_affine(f)
    d1 = in_d1(f)
    d0 = in_d0(f)
    k1 = is_d1_kernel(f)
    k0 = is_d0_kernel(f)
    polarity = Polarity.ONE if k1 else Polarity.ZERO
    info = _structure(f, polarity) if (k1 or k0) else None
    return ClassReport(True, aff, d1, d0, k1, k0, info)
