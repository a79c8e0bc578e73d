"""Canonical form of a signature under variable (column) permutation.

The canonical representative is the column order minimizing the row-sorted
support matrix read column-major.  Column-major reading makes the objective a
prefix order over column prefixes, so a greedy search that keeps exactly the
minimal-key candidates at each depth is exact.

Highly symmetric supports (Hadamard codes, butterflies) produce huge tie
fans, so tie siblings are pruned to one representative per orbit of the
automorphisms discovered so far, in the style of canonical-labeling tools.
"""

from __future__ import annotations

from .errors import BudgetExceeded, SizeCapExceeded
from .signatures import Signature, column_masks, permute_columns

DEFAULT_CANON_MAX = 64
_DEFAULT_NODE_BUDGET = 500_000
# Size at which _cache is cleared before the next form is stored.
CACHE_CAP = 1 << 16

_cache: dict = {}


def canonical_form(
    f: Signature,
    max_size: int = DEFAULT_CANON_MAX,
    node_budget: int = _DEFAULT_NODE_BUDGET,
) -> Signature:
    """Canonical representative; equal for f, g iff they differ by a variable
    permutation."""
    if f.arity > max_size or len(f.rows) > max_size:
        raise SizeCapExceeded(
            f"canonical_form cap {max_size} exceeded "
            f"(arity {f.arity}, support {len(f.rows)})"
        )
    if f.arity == 0 or not f.rows:
        return f
    hit = _cache.get(f)
    if hit is None:
        if len(_cache) >= CACHE_CAP:
            _cache.clear()
        hit = _cache[f] = _canonicalize(f, node_budget)
    return hit


def permutation_equivalent(f: Signature, g: Signature) -> bool:
    if f.arity != g.arity or len(f.rows) != len(g.rows):
        return False
    return canonical_form(f) == canonical_form(g)


def _canonicalize(f: Signature, node_budget: int) -> Signature:
    n = f.arity
    # Column c as a bitmask over the rows; row blocks as bitmasks too, so
    # keys and refinement are popcounts and AND-masks.  Keys count rows, so
    # the search does not depend on which bit a row takes.
    cols = column_masks(f)
    all_rows = (1 << len(f.rows)) - 1

    best: dict = {"seq": None, "perm": None}
    auts: list = []
    aut_set: set = set()
    nodes = [0]

    def key_of(c: int, blocks) -> tuple:
        col = cols[c]
        return tuple((col & m).bit_count() for m in blocks)

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

    def orbit_of(seeds, stab):
        seen = set(seeds)
        frontier = list(seeds)
        while frontier:
            x = frontier.pop()
            for a in stab:
                y = a[x]
                if y not in seen:
                    seen.add(y)
                    frontier.append(y)
        return seen

    def dfs(prefix, remaining, blocks, seq, stab, auts_seen):
        nodes[0] += 1
        if nodes[0] > node_budget:
            raise BudgetExceeded("canonical_form search budget exceeded")
        if not remaining:
            if best["seq"] is None or seq < best["seq"]:
                best["seq"] = list(seq)
                best["perm"] = list(prefix)
            elif seq == best["seq"]:
                sigma = [0] * n
                for a, b in zip(best["perm"], prefix):
                    sigma[a] = b
                sigma = tuple(sigma)
                inv = [0] * n
                for a, b in enumerate(sigma):
                    inv[b] = a
                for cand in (sigma, tuple(inv)):
                    if cand not in aut_set:
                        aut_set.add(cand)
                        auts.append(cand)
            return
        d = len(prefix)
        keyed = [(key_of(c, blocks), c) for c in remaining]
        kmin = min(k for k, _ in keyed)
        # Compare against the live best each node; best can improve inside an
        # earlier sibling's subtree, so a sticky equal/less flag would stop
        # pruning exactly when it matters.
        if best["seq"] is not None and [*seq, kmin] > best["seq"][: d + 1]:
            return
        ties = [c for k, c in keyed if k == kmin]
        expanded: list = []
        for c in ties:
            # Stabilizer of the prefix, maintained incrementally: the parent
            # filtered everything it knew about, so only automorphisms
            # recorded since then (some while expanding earlier tie
            # siblings, which they prune) need the full prefix check.
            if auts_seen < len(auts):
                fresh = [
                    a
                    for a in auts[auts_seen:]
                    if all(a[p] == p for p in prefix)
                ]
                if fresh:
                    stab = stab + fresh
                auts_seen = len(auts)
            if expanded and stab and c in orbit_of(expanded, stab):
                continue
            expanded.append(c)
            dfs(
                prefix + [c],
                [x for x in remaining if x != c],
                split(c, blocks),
                seq + [kmin],
                [a for a in stab if a[c] == c],
                auts_seen,
            )

    dfs([], list(range(n)), (all_rows,), [], [], 0)
    return permute_columns(f, best["perm"])
