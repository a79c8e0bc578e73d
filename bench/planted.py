"""Seeded planted #EO instances with a known nonzero count.

An instance is planted in four steps:

1. draw one label per vertex from a pool;
2. wire a random perfect matching of all slots (the edges);
3. pair each vertex's slots 2i-1 and 2i; together with the edges this splits
   the slots into closed trails, and orienting every trail consistently gives
   an Eulerian orientation in which every vertex has weight arity/2;
4. permute each vertex's label columns so that a random support row lands on
   the local pattern of that orientation.

The planted orientation is then a solution, so the count is at least 1, and a
column permutation keeps every label in its class.  Everything is drawn from
the ``random.Random`` passed in, so one seed gives byte-identical instance
text.
"""

from __future__ import annotations

import random

from eocount import Instance, Signature, complement
from eocount.affine import gf2_eliminate


def permute_columns(sig: Signature, perm) -> Signature:
    """Column j of the result is column perm[j] of ``sig`` (0-based)."""
    return Signature(
        sig.arity, frozenset(tuple(r[p] for p in perm) for r in sig.support)
    )


def random_affine_eo(rng: random.Random, arity: int, extra: int) -> Signature:
    """A random affine EO signature of even arity with support size
    2^(arity/2 - extra).

    A random perfect matching of the variables with x_p + x_q = 1 on each
    pair already forces weight arity/2; ``extra`` more random equations, kept
    only while they are independent and consistent, cut the space further.
    """
    n, half = arity, arity // 2
    if not 0 <= extra <= half:
        raise ValueError(f"extra must lie in 0..{half}")
    order = list(range(n))
    rng.shuffle(order)
    rows = [(1 << order[2 * a]) | (1 << order[2 * a + 1]) | (1 << n)
            for a in range(half)]
    while len(rows) < half + extra:
        ech = gf2_eliminate(rows + [rng.getrandbits(n + 1)], n + 1)
        if (1 << n) not in ech and len(ech) > len(rows):
            rows = ech
    rows_out = set()
    for x in range(1 << n):
        val = x | (1 << n)
        if all(bin(r & val).count("1") % 2 == 0 for r in rows):
            rows_out.add(tuple((x >> c) & 1 for c in range(n)))
    return Signature(n, frozenset(rows_out))


def _orient(arities: list, edges: list) -> dict:
    """Planted orientation as {(vertex index, slot): bit}, bit 1 at the tail.

    Edges and the slot pairing 2i-1 <-> 2i are two perfect matchings of the
    endpoints, so their union is a set of alternating cycles; each cycle is
    walked once, leaving every edge through a tail and entering its partner
    endpoint as a head.
    """
    partner = {}
    for a, b in edges:
        partner[a] = b
        partner[b] = a

    def twin(end):
        v, s = end
        return (v, s + 1 if s % 2 else s - 1)

    bit: dict = {}
    for v, n in enumerate(arities):
        for s in range(1, n + 1):
            start = (v, s)
            if start in bit:
                continue
            x = start
            while True:
                y = partner[x]
                bit[x], bit[y] = 1, 0
                x = twin(y)
                if x == start:
                    break
    return bit


def _fit_row(rng: random.Random, sig: Signature, pattern: tuple) -> Signature:
    """Permute the columns of ``sig`` so that a random support row reads
    ``pattern``; both have weight arity/2."""
    row = rng.choice(sorted(sig.support))
    ones = [i for i, b in enumerate(row) if b]
    zeros = [i for i, b in enumerate(row) if not b]
    rng.shuffle(ones)
    rng.shuffle(zeros)
    perm = [ones.pop() if b else zeros.pop() for b in pattern]
    return permute_columns(sig, perm)


def plant(rng: random.Random, labels: list) -> tuple:
    """(instance, orientation) with vertex ``v<i>`` labelled by a column
    permutation of ``labels[i]``; every label must be EO and the slot total
    even.  The orientation maps each (vertex, slot) to its planted bit."""
    arities = [sig.arity for sig in labels]
    ends = [(v, s) for v, n in enumerate(arities) for s in range(1, n + 1)]
    if any(n % 2 for n in arities):
        raise ValueError("planting needs EO labels, which have even arity")
    rng.shuffle(ends)
    edges = [(ends[2 * i], ends[2 * i + 1]) for i in range(len(ends) // 2)]
    bit = _orient(arities, edges)
    names: dict = {}
    vertices = []
    for v, sig in enumerate(labels):
        pattern = tuple(bit[(v, s)] for s in range(1, sig.arity + 1))
        fitted = _fit_row(rng, sig, pattern)
        name = names.setdefault(fitted, f"L{len(names)}")
        vertices.append((f"v{v}", name))
    inst = Instance(
        {name: sig for sig, name in names.items()},
        tuple(vertices),
        tuple(((f"v{a}", sa), (f"v{b}", sb)) for (a, sa), (b, sb) in edges),
    )
    return inst, {(f"v{v}", s): b for (v, s), b in bit.items()}


def complemented(inst: Instance) -> Instance:
    """The same graph with every label complemented; reversing every edge
    maps its orientations one-to-one onto the original's."""
    return Instance(
        {name: complement(sig) for name, sig in inst.signatures.items()},
        inst.vertices,
        inst.edges,
    )
