"""Random signatures and instances shared by the tests, bit-vector
references for the packed signature operations, and a reference parser of
the instance text format."""

import random
from collections import deque
from functools import reduce
from operator import and_, or_

from eocount import CountResult, Instance, Method, Signature, classes, complement, engine
from eocount.affine import affine_system, count_packed, gf2_eliminate, is_affine
from eocount.errors import FormatError, InstanceError, NotAffineError
from eocount.hadamard import Polarity
from eocount.signatures import bits_str, column_masks, is_eo, pin, pin2


def gauss_jordan(rows, ncols: int) -> list:
    """Reduced row echelon form of int-packed rows by textbook Gauss-Jordan
    on 0/1 lists: columns left to right (bit 0 first), nonzero rows packed
    again, in pivot order.  A reference for ``gf2_eliminate``."""
    m = [[(r >> c) & 1 for c in range(ncols)] for r in rows]
    top = 0
    for c in range(ncols):
        p = next((i for i in range(top, len(m)) if m[i][c]), None)
        if p is None:
            continue
        m[top], m[p] = m[p], m[top]
        for i in range(len(m)):
            if i != top and m[i][c]:
                m[i] = [x ^ y for x, y in zip(m[i], m[top])]
        top += 1
    return [sum(b << c for c, b in enumerate(row)) for row in m[:top]]


def ref_validate(inst: Instance) -> tuple:
    """(errors, warnings) from one bit mask of wired slots per vertex id.
    A reference for ``validate``."""
    errors, warnings = [], []
    ids = [v for v, _ in inst.vertices]
    if len(set(ids)) != len(ids):
        errors.append("duplicate vertex ids")
    labels = {}
    for v, name in inst.vertices:
        if name not in inst.signatures:
            errors.append(f"vertex {v}: unknown signature {name!r}")
        else:
            labels[v] = inst.signatures[name]
    wired = dict.fromkeys(labels, 0)  # vertex -> its wired slots, bit s - 1
    for e, edge in enumerate(inst.edges):
        if len(edge) != 2:
            errors.append(f"edge {e}: expected 2 endpoints, got {len(edge)}")
        for v, slot in edge:
            if v not in labels:
                errors.append(f"edge endpoint {v}.{slot}: unknown vertex")
            elif not 1 <= slot <= labels[v].arity:
                errors.append(
                    f"edge endpoint {v}.{slot}: slot out of range "
                    f"1..{labels[v].arity}"
                )
            else:
                if wired[v] >> (slot - 1) & 1:
                    errors.append(f"endpoint {v}.{slot} wired more than once")
                wired[v] |= 1 << (slot - 1)
    for v, sig in labels.items():
        errors += [f"dangling slot {v}.{s}" for s in range(1, sig.arity + 1)
                   if not wired[v] >> (s - 1) & 1]
        if not is_eo(sig):
            warnings.append(f"vertex {v}: label is not an EO signature")
    return errors, warnings


def _endpoint_map(inst: Instance) -> dict:
    """(vertex, slot) -> (edge index, side)."""
    out = {}
    for e, (a, b) in enumerate(inst.edges):
        out[a] = (e, 0)
        out[b] = (e, 1)
    return out


def ref_brute_force(inst: Instance) -> int:
    """Count by summing over all 2^|edges| orientations; the side holding
    the tail gets bit 1, the head bit 0.  A reference for ``brute_force``."""
    ne = len(inst.edges)
    labels = inst.labels()
    ep = _endpoint_map(inst)
    # per vertex: packed rows, (edge, slot bit) per slot, and the slots that
    # sit on the second endpoint of their edge, whose bits are flipped
    plan = []
    for v, sig in labels.items():
        slots = [ep[(v, s)] for s in range(1, sig.arity + 1)]
        flip = sum(side << k for k, (_, side) in enumerate(slots))
        plan.append((sig.rows, [(e, k) for k, (e, _) in enumerate(slots)], flip))
    total = 0
    for x in range(1 << ne):
        for rows, bits, flip in plan:
            if sum(((x >> e) & 1) << k for e, k in bits) ^ flip not in rows:
                break
        else:
            total += 1
    return total


def ref_cut_order(w) -> tuple:
    """(vertex order, widest cut), frontier first: the vertex that grows
    the cut least among those not yet taken with a taken neighbour, ties by
    the lowest index, or the lowest-index vertex not yet taken when no
    vertex has a taken neighbour.  Taking a vertex opens its edges to
    vertices not yet taken and closes those to vertices already taken; its
    self-loops leave the cut unchanged.  A reference for
    ``engine._cut_order``, a ``min`` over the frontier per step."""
    mate, owner = w.mate, w.owner
    growth = {v: sum(owner[mate[p]] != v for p in w.slots(v))
              for v in range(len(w.labels))}
    frontier = set()
    order, cut, widest = [], 0, 0
    while growth:
        if frontier:
            v = min(frontier, key=lambda u: (growth[u], u))
            frontier.remove(v)
        else:
            v = min(growth)
        order.append(v)
        cut += growth.pop(v)
        widest = max(widest, cut)
        for p in w.slots(v):
            u = owner[mate[p]]
            if u in growth:
                growth[u] -= 2  # an opening edge of u becomes a closing one
                frontier.add(u)
    return order, widest


def ref_solve_affine(inst: Instance) -> int:
    """Count with one GF(2) variable per edge: every vertex contributes its
    label's ``affine_system`` constraints, with slots substituted by the
    edge variable or its complement.  A reference for ``solve_affine``."""
    ne = len(inst.edges)
    ep = _endpoint_map(inst)
    systems: dict = {}
    rows = []
    for v, sig in inst.labels().items():
        sys = systems.get(sig)
        if sys is None:
            try:
                sys = systems[sig] = affine_system(sig)
            except NotAffineError:
                raise InstanceError(f"vertex {v}: label is not affine") from None
        if sys.is_empty:
            return 0
        for crow in sys.constraints:
            packed, const = 0, crow >> sig.arity
            for slot in range(1, sig.arity + 1):
                if crow >> (slot - 1) & 1:
                    e, side = ep[(v, slot)]
                    packed ^= 1 << e
                    const ^= side  # second endpoint holds the complement
            rows.append(packed << 1 | const)
    return count_packed(rows, ne)


def ref_chain_reaction(inst: Instance, polarity: Polarity = Polarity.ONE,
                       trace: bool = False) -> CountResult:
    """The chain reaction as it ran before steps that lose no row stopped
    building labels: every step pins the firing slot and its neighbour, and
    ``live`` drops both endpoints.  It refuses up front a label that is
    neither affine nor an EO signature in the polarity's class, by the
    recursive class test.  A reference for ``chain_reaction``."""
    t = 1 if polarity is Polarity.ONE else 0
    w = engine._checked(inst)
    ids, start, mate, owner = w.ids, w.start, w.mate, w.owner
    for v, f in enumerate(w.labels):
        if not (is_affine(f) or is_eo(f) and classes._in_class(f, t)):
            raise InstanceError(
                f"vertex {ids[v]}: label outside the polarity-{polarity.value} "
                "tractable class"
            )
    method = Method.CHAIN_D1 if t == 1 else Method.CHAIN_D0
    steps: list = []

    def result(count):
        return CountResult(count, method, tuple(steps) if trace else None)

    def forced(f):
        # 1-based position of the first constant-t column, 0 if none
        full = (1 << f.arity) - 1
        col = reduce(and_, f.rows, full) if t else full & ~reduce(or_, f.rows)
        return (col & -col).bit_length()

    sig = list(w.labels)
    if any(f.is_zero() for f in sig):
        steps.append("zero signature reached; count is 0")
        return result(0)
    live = [list(w.slots(v)) for v in range(len(sig))]
    queue = deque(range(len(sig)))
    while queue:
        u = queue.popleft()
        f = sig[u]
        pos = forced(f)
        if not pos:
            continue
        p = live[u][pos - 1]
        q = mate[p]
        v = owner[q]
        j = live[v].index(q) + 1
        if v == u:
            sig[u] = pin2(f, pos, j, t, 1 - t)
            steps.append(f"self-loop at {ids[u]}: pinned slots "
                         f"{p - start[u] + 1},{q - start[u] + 1}")
        else:
            sig[u] = pin(f, pos, t)
            sig[v] = pin(sig[v], j, 1 - t)
            steps.append(f"propagated {ids[u]}.{p - start[u] + 1} -> "
                         f"{ids[v]}.{q - start[v] + 1}")
        del live[u][pos - 1]
        live[v].remove(q)
        if sig[u].is_zero() or sig[v].is_zero():
            steps.append("zero signature reached; count is 0")
            return result(0)
        queue.append(u)
        if v != u and forced(sig[v]):
            queue.append(v)
    count = engine._count_affine(w, sig, live, "label still non-affine at "
                                 "the fixpoint")
    steps.append(f"affine residual with {sum(map(len, live)) // 2} edges: "
                 f"count {count}")
    return result(count)


def ref_canonical(f: Signature) -> Signature:
    """Canonical form by a search that keys every remaining column against
    every row block at every node, with orbit pruning by the automorphisms
    found at tied leaves and no node budget.  A reference for
    ``canonical_form``."""
    if f.arity == 0 or not f.rows:
        return f
    n = f.arity
    # Column c as a bitmask over the rows; row blocks as bitmasks too, so
    # keys and refinement are popcounts and AND-masks.  Keys count rows, so
    # the search does not depend on which bit a row takes.
    cols = column_masks(f)
    all_rows = (1 << len(f.rows)) - 1

    best: dict = {"seq": None, "perm": None}
    auts: list = []
    aut_set: set = set()

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


BAND = 12  # endpoints per block of a banded wiring


def banded_instance(rng: random.Random, pool, num_vertices: int):
    """Instance of ``num_vertices`` vertices labelled from a pool of EO
    signatures, wired in a band so that every cut in instance order stays
    narrow, and planted so that its count is at least 1.

    The endpoints, in vertex order, are cut into blocks of ``BAND``; each
    block is shuffled and its neighbours paired.  The edges and the slot
    pairing 2i-1 <-> 2i are two perfect matchings of the endpoints, so
    their union is a set of alternating cycles; walking each cycle once
    orients every edge and gives each vertex weight arity/2.  As in
    ``planted_instance``, a random support row per vertex reads that
    orientation, here by permuting the label's columns, which keeps it in
    its class."""
    labels = [rng.choice(pool) for _ in range(num_vertices)]
    ends = [(v, s) for v, f in enumerate(labels) for s in range(f.arity)]
    mate = {}
    for b in range(0, len(ends), BAND):
        block = ends[b:b + BAND]
        rng.shuffle(block)
        for x, y in zip(block[::2], block[1::2]):
            mate[x], mate[y] = y, x
    bit: dict = {}  # (vertex, 0-based slot) -> 1 at the tail of its edge
    for x in ends:
        while x not in bit:
            y = mate[x]
            bit[x], bit[y] = 1, 0
            x = (y[0], y[1] ^ 1)  # the slot paired with y
    names, verts = {}, []
    for v, f in enumerate(labels):
        row = rng.choice(sorted(f.support))
        ones = [i for i, b in enumerate(row) if b]
        zeros = [i for i, b in enumerate(row) if not b]
        rng.shuffle(ones)
        rng.shuffle(zeros)
        perm = [ones.pop() if bit[(v, s)] else zeros.pop()
                for s in range(f.arity)]
        name = names.setdefault(permute_columns(f, perm), f"s{len(names)}")
        verts.append((f"v{v}", name))
    edges = tuple(((f"v{a}", s + 1), (f"v{b}", t + 1))
                  for (a, s), (b, t) in mate.items() if (a, s) < (b, t))
    return Instance(
        signatures={n: f for f, n in names.items()},
        vertices=tuple(verts), edges=edges,
    )


def complemented(inst: Instance) -> Instance:
    """Every label complemented; reversing all edges maps the orientations
    of one instance one-to-one onto the other's."""
    return Instance(
        signatures={n: complement(s) for n, s in inst.signatures.items()},
        vertices=inst.vertices,
        edges=inst.edges,
    )


def permute_columns(f: Signature, perm) -> Signature:
    """Column j of the result is column perm[j] of ``f`` (0-based)."""
    return Signature(
        f.arity, frozenset(tuple(r[p] for p in perm) for r in f.support)
    )


def ref_is_affine(rows, width: int) -> bool:
    """Whether distinct packed rows of ``width`` bits form an affine
    subspace, the empty set included: their number is a power of two, 2^d,
    and the rows translated by one of them have rank d by ``gauss_jordan``.
    A reference for ``is_affine`` and ``affine._affine_rows``."""
    rows = list(rows)
    s = len(rows)
    if not s:
        return True
    if s & (s - 1):
        return False
    return len(gauss_jordan([r ^ rows[0] for r in rows], width)) == s.bit_length() - 1


def ref_hull(rows, width: int) -> tuple:
    """(points, missing) for the affine hull of nonempty packed rows of
    ``width`` bits: every point of a row plus the span of the rows'
    differences, all of them reduced by ``gauss_jordan``, and the points
    that are not rows.  A reference for ``affine._hull``."""
    rows = set(rows)
    base = next(iter(rows))
    points = {base}
    for v in gauss_jordan([r ^ base for r in rows], width):
        points |= {p ^ v for p in points}
    return points, points - rows


def ref_in_class(f: Signature, t: int) -> bool:
    """Delta_t-affine membership as the definition reads, with no memo: f
    has a constant-t column; after the first is pinned to t, pinning any
    other column to 1 - t gives an affine signature or, recursively, one in
    the class."""
    if not f.rows:
        return False
    own = [i for i in range(1, f.arity + 1)
           if all((r >> (i - 1) & 1) == t for r in f.rows)]
    if not own:
        return False
    g = pin(f, own[0], t)
    return all(ref_is_affine(p.rows, p.arity) or ref_in_class(p, t)
               for p in (pin(g, i, 1 - t) for i in range(1, g.arity + 1)))


def ref_is_balanced_hadamard(f: Signature, polarity: Polarity) -> int | None:
    """``classes.is_balanced_hadamard`` by its definition: for polarity ONE,
    f has arity n = 2^k >= 2 and n - 1 rows of weight n/2, and
    f's rows with the all-1 word toggled, complemented, hold the zero word,
    are affine and have n distinct columns; for ZERO, the same of
    complement(f)."""
    if polarity is Polarity.ZERO:
        return ref_is_balanced_hadamard(complement(f), Polarity.ONE)
    n = f.arity
    if n < 2 or n & (n - 1) or len(f.rows) != n - 1:
        return None
    if any(r.bit_count() != n // 2 for r in f.rows):
        return None
    c = complement(Signature._packed(n, f.rows ^ {(1 << n) - 1}))
    if 0 not in c.rows or not ref_is_affine(c.rows, n):
        return None
    if len({column(c, i) for i in range(1, n + 1)}) != n:
        return None
    return n.bit_length() - 1


def wt(bits) -> int:
    """Hamming weight of a bit vector."""
    return sum(bits)


def rows_sorted(f: Signature) -> list:
    """The support rows as bit vectors, sorted."""
    return sorted(f.support)


def column(f: Signature, i: int) -> tuple:
    """Column i (1-based) read down the sorted support rows."""
    return tuple(r[i - 1] for r in rows_sorted(f))


# -- bit-vector references ----------------------------------------------------
# Each operation on (arity, frozenset of 0/1 tuples), written directly on the
# tuples; the packed operations of ``eocount.signatures`` must agree.

def ref_pin(n, sup, i, b):
    return n - 1, frozenset(r[: i - 1] + r[i:] for r in sup if r[i - 1] == b)


def ref_pin2(n, sup, i, j, a, b):
    lo, hi = sorted((i, j))
    return n - 2, frozenset(
        r[: lo - 1] + r[lo : hi - 1] + r[hi:]
        for r in sup
        if r[i - 1] == a and r[j - 1] == b
    )


def ref_extract(n, sup, i, b):
    return n, frozenset(r for r in sup if r[i - 1] == b)


def ref_complement(n, sup):
    return n, frozenset(tuple(1 - x for x in r) for r in sup)


def ref_tensor(n, sup, n2, sup2):
    return n + n2, frozenset(a + b for a in sup for b in sup2)


def ref_m_multiple(n, sup, m):
    return n * m, frozenset(r * m for r in sup)


def ref_strip_columns(n, sup, drop):
    keep = [i for i in range(n) if i + 1 not in drop]
    return len(keep), frozenset(tuple(r[i] for i in keep) for r in sup)


def ref_delta_factors(n, sup):
    cols = [{r[i] for r in sup} for i in range(n)]
    return ([i + 1 for i, c in enumerate(cols) if c == {1}],
            [i + 1 for i, c in enumerate(cols) if c == {0}])


def ref_multiple_decompose(n, sup):
    """((arity, support) of the base, m, groups of identical columns)."""
    rows = sorted(sup)
    groups: dict = {}
    for i in range(n):
        groups.setdefault(tuple(r[i] for r in rows), []).append(i + 1)
    groups = list(groups.values())
    sizes = {len(g) for g in groups}
    if len(sizes) != 1 or sizes == {1}:
        return (n, sup), 1, [[i] for i in range(1, n + 1)]
    reps = [g[0] for g in groups]
    base = frozenset(tuple(r[i - 1] for i in reps) for r in sup)
    return (len(reps), base), len(groups[0]), groups


def ref_text(n, sup):
    if not sup:
        return f"arity {n}\n"
    return "".join((bits_str(r) or "-") + "\n" for r in sorted(sup))


def _ref_loop_diseq(n, values, i, j):
    """Join variables i and j of (arity, bit vector -> value) through a
    disequality; rows that lose their two columns to one key add up."""
    lo, hi = sorted((i, j))
    out: dict = {}
    for r, v in values.items():
        if r[i - 1] != r[j - 1]:
            key = r[: lo - 1] + r[lo : hi - 1] + r[hi:]
            out[key] = out.get(key, 0) + v
    return n - 2, out


def ref_gadget(n, sup, n2, sup2, pairs):
    """(arity, values) of ``gadget_demo_hardness``: the weighted tensor, then
    one disequality loop per pair, each at the indices the earlier loops
    left."""
    arity, values = n + n2, {a + b: 1 for a in sup for b in sup2}
    removed: list = []  # tensor indices already looped away
    for i, j in pairs:
        a, b = i, n + j
        arity, values = _ref_loop_diseq(
            arity, values,
            a - sum(r < a for r in removed), b - sum(r < b for r in removed),
        )
        removed += [a, b]
    return arity, values


# -- reference parser -----------------------------------------------------------
# The instance parser as it read text before it was made one pass: every
# signature block is joined back into text and parsed again line by line.
# Its two faults are kept: errors inside a block number the lines of the
# block (or give no line), and a comment-only line ends a block.

def _ref_parse_row(text: str) -> int:
    if text.strip("01"):
        raise FormatError(f"not a 0/1 string: {text!r}")
    return int(text[::-1], 2) if text else 0


def _ref_signature_from_text(text: str) -> Signature:
    arity = None
    width = None
    rows = set()
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if line.startswith("arity"):
            parts = line.split()
            if len(parts) != 2 or not parts[1].isdecimal():
                raise FormatError(f"line {lineno}: bad arity header {raw!r}")
            arity = int(parts[1])
            continue
        if line == "-":
            line = ""
        rows.add(_ref_parse_row(line))
        if width is None:
            width = len(line)
        elif len(line) != width:
            raise FormatError("rows have unequal lengths")
    if width is not None:
        if arity is not None and arity != width:
            raise FormatError(f"arity header {arity} does not match row length {width}")
        arity = width
    elif arity is None:
        raise FormatError("empty support requires an `arity N` header")
    return Signature._packed(arity, frozenset(rows))


def _ref_endpoint(token: str, lineno: int):
    v, dot, slot = token.rpartition(".")
    if not dot or not slot.isdecimal():
        raise FormatError(f"line {lineno}: bad endpoint {token!r}")
    return v, int(slot)


def ref_instance_from_text(text: str) -> Instance:
    """A reference for ``instance_from_text``."""
    section = None
    signatures: dict = {}
    vertices: list = []
    edges: list = []
    block_name = None
    block_lines: list = []

    def close_block():
        nonlocal block_name, block_lines
        if block_name is not None:
            if not block_lines:
                raise FormatError(f"signature block {block_name!r} is empty")
            signatures[block_name] = _ref_signature_from_text("\n".join(block_lines))
        block_name, block_lines = None, []

    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            if section == "signatures":
                close_block()
            continue
        if line.startswith("[") and line.endswith("]"):
            close_block()
            section = line[1:-1].strip().lower()
            if section not in ("signatures", "vertices", "edges"):
                raise FormatError(f"line {lineno}: unknown section {section!r}")
            continue
        if section == "signatures":
            if line.endswith(":"):
                close_block()
                block_name = line[:-1].strip()
                if not block_name:
                    raise FormatError(f"line {lineno}: empty signature name")
                if block_name in signatures:
                    raise FormatError(
                        f"line {lineno}: duplicate signature name {block_name!r}"
                    )
            elif block_name is None:
                raise FormatError(f"line {lineno}: row outside a signature block")
            else:
                block_lines.append(line)
        elif section == "vertices":
            parts = line.split()
            if len(parts) != 2:
                raise FormatError(f"line {lineno}: expected '<vertex> <signature>'")
            vertices.append((parts[0], parts[1]))
        elif section == "edges":
            parts = line.split()
            if len(parts) != 2:
                raise FormatError(f"line {lineno}: expected two endpoints")
            edges.append(
                (_ref_endpoint(parts[0], lineno), _ref_endpoint(parts[1], lineno))
            )
        else:
            raise FormatError(f"line {lineno}: content before any section")
    close_block()
    for v, name in vertices:
        if name not in signatures:
            raise FormatError(f"vertex {v} references unknown signature {name!r}")
    return Instance(signatures, tuple(vertices), tuple(edges))
