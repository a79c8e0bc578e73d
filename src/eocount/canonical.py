"""Canonical form of a signature under variable (column) permutation.

The canonical representative is the column order minimizing the row-sorted
support matrix read column-major.  Column-major reading makes the objective a
prefix order over column prefixes, so a greedy search that keeps exactly the
minimal-key candidates at each depth is exact.  A column's key counts its
ones in each block of rows that the chosen prefix does not yet tell apart;
choosing a column splits the blocks.  A key is a list of these per-block
popcounts (lists order as tuples do), and each search node builds the keys
of all remaining columns in one pass.

Highly symmetric supports (Hadamard codes, butterflies) produce huge tie
fans, which the search cuts in the style of individualization-refinement
tools (McKay and Piperno, *Practical graph isomorphism, II*):

- Identical columns are one class, chosen with its multiplicity.  This seeds
  every swap of two identical columns as an automorphism, and an
  automorphism that only moves columns within their classes fixes the prefix.
- Once every row block is a single row, no split changes a key and equal keys
  mean identical columns, so the rest of the order is forced: the remaining
  classes sorted by key.  The search reads that tail off as one leaf.
- Tie siblings are pruned to one per orbit of the automorphisms found so far
  that fix the prefix.  A leaf equal to the best gives such an automorphism,
  and the search then unwinds to the node where the two leaves' paths part,
  since the rest of that branch is the image of one already searched.

``NODE_BUDGET`` bounds the number of search nodes (forced tails included)
of one search, whatever the arity, and the search raises ``BudgetExceeded``
past it.  The last 2^16 forms are kept, and a kept form is returned without
a search.

Kernels of kind Hadamard skip the search after the first of their shape.
By the paper's characterization of the base level, such a kernel is the
m-multiple of a balanced Hadamard code of length 2^k and polarity t, up to
column order (``classes._structure`` checks this), so all kernels of one
shape (t, k, m) are column permutations of each other and share one form.
``canonical_form`` keeps the first kernel it is given of each shape, for the
last ``SHAPES_KEPT`` new shapes, as that shape's representative, searched as
given, and gives every later kernel of the shape the representative's kept
form for the cost of the shape test (``classes._hadamard_shape``).  It keeps
no form of its own: clearing ``_canonicalize``'s cache resets every form.
Trivial kernels (support 3) are not unique up to column order, and they and
every other signature are searched as given.
"""

from __future__ import annotations

from functools import lru_cache

from .classes import _hadamard_shape
from .errors import BudgetExceeded
from .signatures import Signature, column_masks, permute_columns

NODE_BUDGET = 500_000
SHAPES_KEPT = 1 << 10

# Hadamard shape -> the first kernel of that shape given; the oldest goes first
_representatives: dict = {}


def canonical_form(f: Signature) -> Signature:
    """Canonical representative; equal for f, g iff they differ by a variable
    permutation.

    A kernel of kind Hadamard is searched through the representative of
    its shape (polarity, k, m), the first kernel of that shape given: by
    the paper's characterization of the base level, all kernels of one
    shape are column permutations of each other.  Every other signature is
    searched as given."""
    if f.arity == 0 or not f.rows:
        return f
    shape = _hadamard_shape(f)
    if shape is not None:
        f = _representatives.setdefault(shape, f)
        if len(_representatives) > SHAPES_KEPT:
            del _representatives[next(iter(_representatives))]
    return _canonicalize(f)


def permutation_equivalent(f: Signature, g: Signature) -> bool:
    if f.arity != g.arity or len(f.rows) != len(g.rows):
        return False
    return canonical_form(f) == canonical_form(g)


@lru_cache(maxsize=1 << 16)
def _canonicalize(f: Signature) -> Signature:
    # Identical columns make one class, searched once with its multiplicity:
    # swapping two of them fixes the support, so which one comes first never
    # changes a key.  A class, like a row block, is a bitmask over the rows,
    # so keys and refinement are popcounts and AND-masks.  Keys count rows,
    # so the search does not depend on which bit a row takes.
    twins: dict = {}
    for c, mask in enumerate(column_masks(f)):
        twins.setdefault(mask, []).append(c)
    cols = list(twins)
    k = len(cols)
    nrows = len(f.rows)

    best: dict = {"seq": None, "path": None}
    # class permutations; orbits are closed under them alone, as the inverse
    # of a permutation is one of its powers
    auts: list = []
    nodes = [0]

    def split(c: int, blocks):
        col = cols[c]
        out = []
        for m in blocks:
            zeros = m & ~col
            ones = m & col
            if zeros:
                out.append(zeros)
            if ones:
                out.append(ones)
        return tuple(out)

    def close(orbit: set, seeds, stab) -> None:
        frontier = list(seeds)
        while frontier:
            x = frontier.pop()
            for a in stab:
                y = a[x]
                if y not in orbit:
                    orbit.add(y)
                    frontier.append(y)

    def leaf(path, seq):
        """Record a complete order; on a tie with the best, record the
        automorphism and return the depth where the two paths part."""
        if best["seq"] is None or seq < best["seq"]:
            best["seq"], best["path"] = seq, path
            return None
        if seq > best["seq"]:
            return None
        sigma = list(range(k))
        for a, b in zip(best["path"], path):
            sigma[a] = b
        auts.append(sigma)
        return next(d for d, (a, b) in enumerate(zip(best["path"], path))
                    if a != b)

    def dfs(path, left, blocks, seq, stab, auts_seen):
        """Search below ``path``; return None, or the depth to unwind to
        after a leaf equal to the best (the rest of the subtree there is an
        image of an explored one)."""
        nodes[0] += 1
        if nodes[0] > NODE_BUDGET:
            raise BudgetExceeded("canonical_form search budget exceeded")
        keyed = [([(col & m).bit_count() for m in blocks], c)
                 for c, col in enumerate(cols) if left[c]]
        if len(blocks) == nrows:
            # Every row stands alone: splits change nothing, so the keys are
            # fixed and equal keys mean identical columns.  The rest of the
            # order is the remaining classes sorted by key.
            keyed.sort()
            return leaf(
                path + [c for _, c in keyed for _ in range(left[c])],
                seq + [kc for kc, c in keyed for _ in range(left[c])],
            )
        d = len(path)
        kmin = min(keyed)[0]
        # Compare against the live best each node; best can improve inside an
        # earlier sibling's subtree, so a sticky equal/less flag would stop
        # pruning exactly when it matters.
        if best["seq"] is not None and [*seq, kmin] > best["seq"][: d + 1]:
            return None
        orbit: set = set()  # the expanded ties and their images under stab
        for kc, c in keyed:
            if kc != kmin:
                continue
            # Stabilizer of the prefix, maintained incrementally: the parent
            # passed on the automorphisms it knew that fix this node's last
            # column.  One recorded since (in the subtree of an earlier tie)
            # fixes the prefix where its two leaves part, and the search has
            # unwound to that node or above, so it fixes this prefix too.
            if auts_seen < len(auts):
                stab = stab + auts[auts_seen:]
                auts_seen = len(auts)
                close(orbit, orbit, stab)
            if c in orbit:
                continue
            orbit.add(c)
            close(orbit, (c,), stab)
            left[c] -= 1
            jump = dfs(
                path + [c],
                left,
                split(c, blocks),
                seq + [kmin],
                [a for a in stab if a[c] == c],
                auts_seen,
            )
            left[c] += 1
            if jump is not None and jump < d:
                return jump
        return None

    dfs([], [len(cs) for cs in twins.values()], ((1 << nrows) - 1,), [], [], 0)
    members = [iter(cs) for cs in twins.values()]
    return permute_columns(f, [next(members[c]) for c in best["path"]])
