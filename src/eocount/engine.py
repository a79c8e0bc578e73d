"""The #EO instance model and its solvers: the exact cut-contraction count,
the Gaussian affine solver, and the chain-reaction reduction.

Edges are implicit disequalities: the two endpoints of an edge always take
complementary bits (orientation = which side got the 1).  Every solver reads
an instance through one record, compiled once per instance (``_Wiring``).
"""

from __future__ import annotations

import enum
from collections import Counter, deque
from dataclasses import dataclass
from functools import cached_property
from heapq import heappop, heappush
from operator import index

from .affine import _affine_basis, count_packed
from .errors import InstanceError
from .signatures import (
    SCALAR_ONE,
    Signature,
    WeightedSignature,
    _compress,
    _folds,
    _positions,
    is_eo,
    pin,
    strip_columns,
    tensor,
)
from .hadamard import Polarity

DEFAULT_BRUTE_CAP = 24


def _decimal(n: int) -> str:
    """``str(n)`` for a count of any size: Python 3.11 refuses to convert an
    int of more than 4,300 digits, so a longer one is split at about half
    its digits and each part converted on its own."""
    if n.bit_length() < 14000:  # at most 4,215 digits
        return str(n)
    half = n.bit_length() * 3 // 20  # log10(2) / 2 is about 3/20
    high, low = divmod(n, 10 ** half)
    return _decimal(high) + _decimal(low).zfill(half)


class Method(enum.Enum):
    """How a count was taken; CHAIN_Dt: by polarity t's chain reaction."""

    BRUTE = "brute"
    AFFINE = "affine"
    CHAIN_D1 = "chain_d1"
    CHAIN_D0 = "chain_d0"


@dataclass(frozen=True)
class Instance:
    """A multigraph with signature-labelled vertices; every (vertex, slot)
    appears in exactly one edge endpoint.  Slots are 1-based."""

    signatures: dict  # name -> Signature
    vertices: tuple  # of (vertex_id, signature_name)
    edges: tuple  # of ((v, slot), (v, slot))

    def labels(self) -> dict:
        return {v: self.signatures[name] for v, name in self.vertices}

    @cached_property
    def _wiring(self) -> _Wiring:
        return _compile(self)


@dataclass(frozen=True)
class CountResult:
    count: int
    method: Method
    steps: tuple | None = None
    note: str | None = None


class _Forms(dict):
    """The parametric form ``(base, cols, dim)`` of each label, None when it
    is not affine: the label's support is base + the span of dim basis
    vectors, bit i of ``cols[k]`` telling whether vector i sets slot k
    (base is None for an empty support).  A label's form is made through
    ``_affine_basis`` on its first lookup, so once per distinct label."""

    def __missing__(self, sig: Signature):
        form = _affine_basis(sig)
        if form is not None:
            base, basis = form
            cols = [0] * sig.arity
            for i, b in enumerate(basis):
                while b:
                    low = b & -b
                    cols[low.bit_length() - 1] |= 1 << i
                    b ^= low
            form = (base, cols, len(basis))
        self[sig] = form
        return form


@dataclass
class _Wiring:
    """An instance's wiring, its errors and its labels' parametric forms.

    Vertices are numbered by first appearance of their id; endpoints so
    that vertex i's slot s is ``start[i] + s - 1``.  ``mate`` maps an
    endpoint to the other endpoint of its edge (-1 when dangling) and
    ``owner`` to its vertex; ``ids`` names the vertices in messages.  The
    solvers read the record only when ``errors`` is empty; they fill
    ``forms`` as they meet labels."""

    ids: list
    labels: list
    start: list  # one entry per vertex, then the endpoint count
    mate: list
    owner: list
    errors: list
    forms: _Forms

    def slots(self, v: int) -> range:
        return range(self.start[v], self.start[v + 1])


def _compile(inst: Instance) -> _Wiring:
    """Number the endpoints, pair them along the edges and collect the
    errors ``validate`` reports, in one pass over the vertices and the
    edges.  No label is tested here: ``validate`` makes the EO test and
    the solvers fill the forms memo."""
    errors = []
    try:  # well-formed vertex entries take this one pass
        if len({v for v, _ in inst.vertices}) != len(inst.vertices):
            errors.append("duplicate vertex ids")
        labels = {}
        for v, name in inst.vertices:
            if name not in inst.signatures:
                errors.append(f"vertex {v}: unknown signature {name!r}")
            else:
                labels[v] = inst.signatures[name]
    except (TypeError, ValueError):  # a malformed entry: each one in turn
        errors, labels, seen = [], {}, []
        for entry in inst.vertices:
            try:
                v, name = entry
                hash(v), hash(name)
            except (TypeError, ValueError):
                errors.append(f"vertex entry {entry!r}: not a (vertex id, "
                              "signature name) pair")
                continue
            seen.append(v)
            if name not in inst.signatures:
                errors.append(f"vertex {v}: unknown signature {name!r}")
            else:
                labels[v] = inst.signatures[name]
        if len(set(seen)) != len(seen):
            errors.insert(0, "duplicate vertex ids")
    ids, sigs = list(labels), list(labels.values())
    at, start, owner = {}, [0], []  # at[id] = (b, arity): slot s is endpoint b + s
    for i, (v, f) in enumerate(labels.items()):
        at[v] = (len(owner) - 1, f.arity)
        owner += [i] * f.arity
        start.append(len(owner))
    mate = [-1] * len(owner)
    for e, edge in enumerate(inst.edges):
        try:  # a well-formed edge is wired in this one branch
            (va, sa), (vb, sb) = edge
            a, b = at.get(va), at.get(vb)
            if a and b and 1 <= sa <= a[1] and 1 <= sb <= b[1]:
                p, q = a[0] + sa, b[0] + sb
                if p != q and mate[p] < 0 and mate[q] < 0:
                    mate[p], mate[q] = q, p
                    continue
        except (TypeError, ValueError):
            pass  # a malformed endpoint: reported below
        # any other edge, endpoint by endpoint, reporting in order
        if len(edge) != 2:
            errors.append(f"edge {e}: expected 2 endpoints, got {len(edge)}")
        ends = []
        for end in edge:
            try:
                v, slot = end
                hash(v), index(slot)  # a slot True reads as 1
            except (TypeError, ValueError):
                errors.append(f"edge endpoint {end!r}: not a (vertex, int slot) pair")
                continue
            if v not in at:
                errors.append(f"edge endpoint {v}.{slot}: unknown vertex")
                continue
            p, arity = at[v]
            if not 1 <= slot <= arity:
                errors.append(
                    f"edge endpoint {v}.{slot}: slot out of range 1..{arity}"
                )
                continue
            p += slot
            if mate[p] >= 0:
                errors.append(f"endpoint {v}.{slot} wired more than once")
            mate[p] = p  # wired; paired below once both ends are known
            ends.append(p)
        if ends:  # a lone valid end stays its own mate
            mate[ends[0]], mate[ends[-1]] = ends[-1], ends[0]
    if -1 in mate:  # scanned at C speed; the loop runs only on bad input
        for p, q in enumerate(mate):
            if q < 0:
                i = owner[p]
                errors.append(f"dangling slot {ids[i]}.{p - start[i] + 1}")
    return _Wiring(ids, sigs, start, mate, owner, errors, _Forms())


def _checked(inst: Instance) -> _Wiring:
    w = inst._wiring
    if w.errors:
        raise InstanceError("; ".join(w.errors))
    return w


def validate(inst: Instance) -> tuple:
    """Return (errors, warnings); an instance is solvable iff errors == [].
    A warning names each vertex whose label is not an EO signature, in
    vertex order; each distinct label is tested once per call."""
    w = inst._wiring
    eo = {sig: is_eo(sig) for sig in dict.fromkeys(w.labels)}
    warnings = [f"vertex {v}: label is not an EO signature"
                for v, sig in zip(w.ids, w.labels) if not eo[sig]]
    return list(w.errors), warnings


def _cut_order(w: _Wiring) -> tuple:
    """(vertex order, widest cut), frontier first: the next vertex is the
    one that grows the cut least among the vertices not yet taken that have
    a taken neighbour, ties by the lowest index; only when no such vertex
    is left is the lowest-index vertex not yet taken the next.  Taking a
    vertex opens its edges to vertices not yet taken and closes those to
    vertices already taken; its self-loops leave the cut unchanged.  The
    frontier empties only when a connected component is exhausted, so the
    components are taken one at a time and the widest cut is the widest of
    any one component.

    A heap holds (growth, vertex) entries for the frontier.  Taking a
    vertex only lowers the growth of its neighbours (by 2 per edge), and
    each change pushes a new entry.  A vertex's newest entry is its
    smallest, so it pops first and the older ones pop after the vertex is
    taken and are skipped: the order costs O(|E| log |V|)."""
    mate, owner, start = w.mate, w.owner, w.start
    growth = [b - a for a, b in zip(start, start[1:])]  # the arities
    for v, q in zip(owner, mate):
        if owner[q] == v:
            growth[v] -= 1  # each end of a self-loop
    taken = [False] * len(growth)
    order, cut, widest = [], 0, 0
    for seed in range(len(growth)):
        if taken[seed]:
            continue
        heap = [(growth[seed], seed)]
        while heap:
            g, v = heappop(heap)
            if taken[v]:
                continue
            taken[v] = True
            order.append(v)
            cut += g
            if cut > widest:
                widest = cut
            for p in range(start[v], start[v + 1]):
                u = owner[mate[p]]
                if not taken[u]:
                    growth[u] -= 2  # an opening edge of u becomes a closing one
                    heappush(heap, (growth[u], u))
    return order, widest


def brute_force(inst: Instance, cap: int = DEFAULT_BRUTE_CAP) -> CountResult:
    """Exact count by contracting the vertices one at a time along a cut.

    After some vertices are contracted, the cut holds the edges with
    exactly one endpoint contracted, and the state maps each orientation of
    the cut edges to the number of orientations of the edges behind the
    cut that every contracted label accepts.  The order grows the cut from
    its frontier (see ``_cut_order``).  With w its widest cut the work is at
    most 2^w states per vertex instead of the 2^|edges| orientations.
    ``cap`` bounds w, not the edge count: a plan wider than ``cap`` raises
    InstanceError before any table is built.

    A state is an int over cut registers 0..w-1.  An edge takes a free
    register when its first endpoint is contracted and frees it when its
    second is, closing registers being freed before opening ones are taken,
    so no state grows with the instance.  A register holds the bit of the
    edge's first endpoint; the second endpoint holds its complement.  Per
    vertex, the slots are scattered to their registers once, and each
    self-loop keeps the label's rows whose two looped slots differ.
    """
    w = _checked(inst)
    order, widest = _cut_order(w)
    if widest > cap:
        raise InstanceError(f"cut width {widest} exceeds brute-force cap {cap}")
    mate, owner, start = w.mate, w.owner, w.start
    reg = [-1] * len(mate)  # endpoint -> the register of its edge, once open
    free: list = []  # registers freed and not yet taken again
    top = 0  # registers top, top + 1, ... were never taken
    states = {0: 1}
    for v in order:
        rows = w.labels[v].rows
        closing, opening = [], []
        first = start[v]
        for k, p in enumerate(range(first, start[v + 1])):
            q = mate[p]
            if owner[q] == v:
                if p < q:  # a self-loop joins a 1 to a 0
                    j = q - first
                    rows = [r for r in rows if (r >> k ^ r >> j) & 1]
            elif reg[q] >= 0:
                closing.append((k, reg[q]))
            else:
                opening.append((k, p))
        mask = 0
        for k, g in closing:
            mask |= 1 << g
            free.append(g)
        for i, (k, p) in enumerate(opening):
            if free:
                g = free.pop()
            else:
                g, top = top, top + 1
            reg[p] = g
            opening[i] = (k, g)
        # per support row: its bits on the closing registers -> its bits on
        # the opening registers -> multiplicity (the self-loop choices)
        table: dict = {}
        for r in rows:
            key = bits = 0
            for k, g in closing:
                key |= (~r >> k & 1) << g
            for k, g in opening:
                bits |= (r >> k & 1) << g
            hits = table.get(key)
            if hits is None:
                table[key] = {bits: 1}
            else:
                hits[bits] = hits.get(bits, 0) + 1
        nxt: dict = {}
        keep = ~mask
        for s, c in states.items():
            hits = table.get(s & mask)
            if hits:
                rest = s & keep
                for bits, m in hits.items():
                    t = rest | bits
                    nxt[t] = nxt.get(t, 0) + c * m
        if not nxt:
            return CountResult(0, Method.BRUTE)
        states = nxt
    return CountResult(sum(states.values()), Method.BRUTE)


def _count_affine(w: _Wiring, sig: list, live: list, refusal: str) -> int:
    """Count the orientations of the edges between live endpoints, vertex v
    reading its label ``sig[v]`` on the endpoints ``live[v]`` in order.

    The count is taken in the parametric form of the labels: the slots of
    vertex v read base_v + B_v·y_v, with one GF(2) unknown per vector of the
    basis B_v of its label's support shifted by base_v.  Each edge gives
    one row, "the two slots differ", in the unknowns of its two endpoints.
    A basis is independent, so y -> x is one-to-one and the row system has
    exactly one solution per orientation.  Each label's form comes from
    the record's memo (``_Forms``); a label that is not affine raises
    InstanceError("vertex <id>: <refusal>").

    Rows are laid out for ``count_packed``: the constant at bit 0 and the
    unknowns from bit 1 up.  Each live endpoint is packed once as one word,
    its column of the basis shifted to its vertex's unknowns, over its bit
    of base_v at bit 0, so an edge's row is the XOR of its two words and 1.
    """
    word = [0] * len(w.mate)  # per live endpoint
    n = 1  # bit 0 holds the row constant
    for v, f in enumerate(sig):
        form = w.forms[f]
        if form is None:
            raise InstanceError(f"vertex {w.ids[v]}: {refusal}")
        base, cols, dim = form
        if base is None:
            return 0
        for k, p in enumerate(live[v]):
            word[p] = cols[k] << n | base >> k & 1
        n += dim
    mate = w.mate
    rows = [word[p] ^ word[mate[p]] ^ 1
            for ends in live for p in ends if p < mate[p]]  # each edge once
    return count_packed(rows, n - 1)


def solve_affine(inst: Instance) -> CountResult:
    """Count an instance whose labels are all affine by GF(2) elimination in
    the parametric form of the labels (see ``_count_affine``)."""
    w = _checked(inst)
    live = [w.slots(v) for v in range(len(w.labels))]
    count = _count_affine(w, w.labels, live, "label is not affine")
    return CountResult(count, Method.AFFINE)


def chain_reaction(
    inst: Instance, polarity: Polarity = Polarity.ONE, trace: bool = False
) -> CountResult:
    """Fire forced delta slots until none is left, then count the residual
    by elimination; a label still non-affine at the fixpoint raises
    InstanceError.  Every step keeps the count, so a count that returns is
    exact whatever the labels' classes, and the fixpoint is the one test.

    A step takes a vertex u whose label has a constant-t column, pins that
    slot to t and the other endpoint of its disequality edge to 1 - t, and
    drops the edge.  Pinning a column that is constant on the whole support
    loses no row, whatever the label's class, so each step keeps the count.
    A constant column also stays constant when other columns are pinned, so
    a slot that is forced stays forced, and fires, whatever fires first.
    As with unit propagation, every firing order therefore consumes the
    same edges and leaves the same residual (or reaches a zero label in
    every order).  The worklist is a plain FIFO of vertices: each vertex
    is queued once at the start and again when a step pins it, the only
    event that can give it a forced slot.

    The state is four lists over the vertices of the instance's record:
    ``sig`` holds each vertex's current label, ``live`` the endpoints of its
    columns in variable order, ``done`` a mask of the columns already
    consumed, and ``const`` the label's folds from ``_folds``, indexed by
    value: ``const[v][t]`` holds its constant-t columns.  Every step, a
    self-loop included, takes one rule.  The firing column k of u is
    constant t, so it is only marked done.  Its mate, column j of v, is
    only marked done too when it is already constant 1 - t, since pinning
    it would lose no row; otherwise it is pinned through ``pin``, leaves
    ``live`` and is compacted out of ``done``, so only a step that loses
    rows builds a new label.  A self-loop is the case v == u, where the
    compaction moves k's done bit along with the others.  The folds are
    taken again only when a label changes, so the next forced slot is the
    lowest set bit of the constant-t fold outside ``done``.  Done columns
    stay constant; at the fixpoint they are stripped from the vertices that
    still have a column left, a vertex with none left reads as the scalar
    1, and the residual is the endpoints left, counted by the same affine
    core as ``solve_affine``.  The record's ``mate`` gives the other
    endpoint of a slot's edge.
    """
    t = 1 if polarity is Polarity.ONE else 0
    w = _checked(inst)
    ids, start, mate, owner = w.ids, w.start, w.mate, w.owner
    method = Method.CHAIN_D1 if t == 1 else Method.CHAIN_D0
    steps: list = []

    def note(msg):
        if trace:
            steps.append(msg)

    def result(count):
        return CountResult(count, method, tuple(steps) if trace else None)

    sig = list(w.labels)
    if any(f.is_zero() for f in sig):
        note("zero signature reached; count is 0")
        return result(0)
    live = [list(w.slots(v)) for v in range(len(sig))]
    done = [0] * len(sig)
    const = [_folds(f) for f in sig]
    queue = deque(range(len(sig)))

    while queue:
        u = queue.popleft()
        cols = const[u][t] & ~done[u]
        if not cols:
            continue  # nothing to fire until it is pinned again
        k = (cols & -cols).bit_length() - 1  # the first forced column
        p = live[u][k]
        q = mate[p]
        v = owner[q]
        j = live[v].index(q)
        if trace:  # format the step only when it is kept
            steps.append(
                f"self-loop at {ids[u]}: pinned slots "
                f"{p - start[u] + 1},{q - start[u] + 1}" if v == u else
                f"propagated {ids[u]}.{p - start[u] + 1} -> "
                f"{ids[v]}.{q - start[v] + 1}")
        done[u] |= 1 << k
        if const[v][1 - t] >> j & 1:
            done[v] |= 1 << j
        else:
            sig[v] = pin(sig[v], j + 1, 1 - t)
            if sig[v].is_zero():
                note("zero signature reached; count is 0")
                return result(0)
            d, low = done[v], (1 << j) - 1
            done[v] = d & low | d >> 1 & ~low
            del live[v][j]
            const[v] = _folds(sig[v])
        queue.append(u)
        if v != u and const[v][t] & ~done[v]:
            queue.append(v)

    for v, d in enumerate(done):
        if d == (1 << len(live[v])) - 1:  # every column consumed
            sig[v], live[v] = SCALAR_ONE, []
        elif d:
            sig[v] = strip_columns(sig[v], _positions(d))
            live[v] = [p for k, p in enumerate(live[v]) if not d >> k & 1]
    count = _count_affine(w, sig, live, "label still non-affine at the fixpoint")
    if trace:  # formatted only when kept
        steps.append(f"affine residual with {sum(map(len, live)) // 2} "
                     f"edges: count {_decimal(count)}")
    return result(count)


def solve(inst: Instance, method: str = "auto", trace: bool = False) -> CountResult:
    """Dispatch: all-affine instances to Gaussian elimination, then the
    chain reaction in polarity 1 and then 0, each tried only when every
    non-affine label has a constant-t column (the delta_t-affine class's
    necessary condition), and the first that reaches an affine fixpoint
    counts; everything else goes to brute force.  The instance is checked
    as every solver checks it, and each distinct label's parametric form is
    made once, in the instance's record (``_Forms``)."""
    w = _checked(inst)
    if method == "brute":
        return brute_force(inst)
    if method == "affine":
        return solve_affine(inst)
    if method not in ("auto", "chain"):
        raise ValueError(f"unknown method {method!r}")
    nonaffine = [s for s in dict.fromkeys(w.labels) if w.forms[s] is None]
    if method == "auto" and not nonaffine:
        return solve_affine(inst)
    for pol in (Polarity.ONE, Polarity.ZERO):
        t = 1 if pol is Polarity.ONE else 0
        if all(_folds(s)[t] for s in nonaffine):
            try:
                return chain_reaction(inst, pol, trace=trace)
            except InstanceError:
                pass  # non-affine at the fixpoint: the next polarity
    if method == "chain":
        raise InstanceError("no polarity's chain reaction reaches an affine "
                            "residual")
    res = brute_force(inst)
    return CountResult(
        res.count,
        res.method,
        res.steps,
        note="no chain reaction reaches an affine residual; counted by brute "
        "force",
    )


def gadget_demo_hardness(f: Signature, g: Signature, pairs) -> WeightedSignature:
    """Connect variable i of f to variable j of g with a disequality for each
    (i, j) pair; remaining variables keep f-then-g order.

    The rows of ``tensor(f, g)`` whose two bits differ on every pair lose the
    looped columns; a result is worth the number of rows that compress to it.
    """
    if len({i for i, _ in pairs}) != len(pairs) or len(
        {j for _, j in pairs}
    ) != len(pairs):
        raise IndexError("pairs reuse a variable")
    for i, _ in pairs:
        if not 1 <= i <= f.arity:
            raise IndexError(f"left index {i} out of range")
    for _, j in pairs:
        if not 1 <= j <= g.arity:
            raise IndexError(f"right index {j} out of range")
    shifts = [(i - 1, f.arity + j - 1) for i, j in pairs]
    arity = f.arity + g.arity - 2 * len(pairs)
    keep = ((1 << f.arity + g.arity) - 1) ^ sum(1 << a | 1 << b for a, b in shifts)
    rows = (
        r for r in tensor(f, g).rows if all((r >> a ^ r >> b) & 1 for a, b in shifts)
    )
    counts = Counter(_compress(rows, keep))
    return WeightedSignature(
        arity, {tuple(r >> k & 1 for k in range(arity)): v for r, v in counts.items()}
    )
