"""Random signatures and instances shared by the tests."""

import random

from eocount import Instance, Signature, complement
from eocount.affine import gf2_eliminate


def random_affine_eo(rng: random.Random, half: int) -> Signature:
    """Random affine EO signature of arity 2*half.

    Start from a perfect matching of the slots with x_p + x_q = 1 on each
    pair (which already forces an EO support), then throw in a few extra
    random linear equations and keep the result when nonempty.
    """
    n = 2 * half
    slots = list(range(n))
    rng.shuffle(slots)
    rows = []
    for a in range(half):
        p, q = slots[2 * a], slots[2 * a + 1]
        rows.append((1 << p) | (1 << q) | (1 << n))
    for _ in range(rng.randint(0, 2)):
        rows.append(rng.getrandbits(n + 1))
    ech = gf2_eliminate(rows, n + 1)
    if (1 << n) in ech:
        # inconsistent; retry without the extra equations
        return random_affine_eo(rng, half)
    sols = set()
    # simple enumeration; callers only use tiny arities
    for x in range(1 << n):
        val = x | (1 << n)
        if all(bin(r & val).count("1") % 2 == 0 for r in ech):
            sols.add(tuple((x >> c) & 1 for c in range(n)))
    if not sols:
        return random_affine_eo(rng, half)
    return Signature(n, frozenset(sols))


def random_instance(rng: random.Random, pool, num_vertices: int, max_edges: int):
    """Wire random vertices labelled from the pool into a perfect matching
    of their slots; returns None when the slot count is odd or too large."""
    names, verts, slots = {}, [], []
    for i in range(num_vertices):
        sig = rng.choice(pool)
        name = f"s{pool.index(sig)}"
        names[name] = sig
        vid = f"v{i}"
        verts.append((vid, name))
        slots.extend((vid, j) for j in range(1, sig.arity + 1))
    if len(slots) % 2 or len(slots) // 2 > max_edges:
        return None
    rng.shuffle(slots)
    edges = tuple((slots[2 * i], slots[2 * i + 1]) for i in range(len(slots) // 2))
    return Instance(signatures=names, vertices=tuple(verts), edges=edges)



def planted_instance(rng: random.Random, pool, num_edges: int):
    """Instance of exactly ``num_edges`` edges labelled from a pool of EO
    signatures, wired so that its count is at least 1.

    Labels are drawn until their slots total 2*num_edges (the pool needs an
    arity-2 label).  One support row is picked per vertex; each edge then
    joins a slot where that row reads 1 to one where it reads 0, so the
    picked rows form an admissible orientation.
    """
    labels, left = [], 2 * num_edges
    while left:
        sig = rng.choice([f for f in pool if f.arity <= left])
        labels.append(sig)
        left -= sig.arity
    names, verts, ones, zeros = {}, [], [], []
    for i, sig in enumerate(labels):
        name = f"s{pool.index(sig)}"
        names[name] = sig
        vid = f"v{i}"
        verts.append((vid, name))
        row = rng.choice(sorted(sig.support))
        for slot, bit in enumerate(row, start=1):
            (ones if bit else zeros).append((vid, slot))
    rng.shuffle(zeros)
    return Instance(
        signatures=names, vertices=tuple(verts), edges=tuple(zip(ones, zeros))
    )


def complemented(inst: Instance) -> Instance:
    """Every label complemented; reversing all edges maps the orientations
    of one instance one-to-one onto the other's."""
    return Instance(
        signatures={n: complement(s) for n, s in inst.signatures.items()},
        vertices=inst.vertices,
        edges=inst.edges,
    )
