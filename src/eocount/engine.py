"""The #EO instance model and its solvers: the exact cut-contraction count,
the Gaussian affine solver, and the chain-reaction reduction.

Edges are implicit disequalities: the two endpoints of an edge always take
complementary bits (orientation = which side got the 1).
"""

from __future__ import annotations

import enum
from bisect import bisect_left
from collections import deque
from dataclasses import dataclass
from functools import reduce
from operator import and_, or_

from .affine import _affine_basis, count_packed, is_affine
from .classes import in_d0, in_d1
from .errors import InstanceError
from .signatures import (
    Signature,
    WeightedSignature,
    is_eo,
    loop_diseq,
    pin,
    pin2,
    weighted_tensor,
)
from .hadamard import Polarity

DEFAULT_BRUTE_CAP = 24


class Method(enum.Enum):
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


@dataclass(frozen=True)
class CountResult:
    count: int
    method: Method
    steps: tuple | None = None
    note: str | None = None


def validate(inst: Instance) -> tuple:
    """Return (errors, warnings); an instance is solvable iff errors == []."""
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
    for a, b in inst.edges:
        for v, slot in (a, b):
            if v not in labels:
                errors.append(f"edge endpoint {v}.{slot}: unknown vertex")
                continue
            if not 1 <= slot <= labels[v].arity:
                errors.append(
                    f"edge endpoint {v}.{slot}: slot out of range "
                    f"1..{labels[v].arity}"
                )
                continue
            bit = 1 << (slot - 1)
            if wired[v] & bit:
                errors.append(f"endpoint {v}.{slot} wired more than once")
            wired[v] |= bit
    eo: dict = {}  # label -> is_eo, tested once per distinct label
    for v, sig in labels.items():
        dangling = ((1 << sig.arity) - 1) & ~wired[v]
        while dangling:
            low = dangling & -dangling
            errors.append(f"dangling slot {v}.{low.bit_length()}")
            dangling ^= low
        ok = eo.get(sig)
        if ok is None:
            ok = eo[sig] = is_eo(sig)
        if not ok:
            warnings.append(f"vertex {v}: label is not an EO signature")
    return errors, warnings


def _endpoint_map(inst: Instance) -> dict:
    """(vertex, slot) -> (edge index, side)."""
    out = {}
    for e, (a, b) in enumerate(inst.edges):
        out[a] = (e, 0)
        out[b] = (e, 1)
    return out


def _cut_order(inst: Instance, labels: dict) -> tuple:
    """(vertex order, widest cut): greedily the vertex that grows the cut
    least next, ties by instance order.  Taking a vertex opens its edges to
    vertices not yet taken and closes those to vertices already taken; its
    self-loops leave the cut unchanged."""
    partners: dict = {v: [] for v in labels}
    for (va, _), (vb, _) in inst.edges:
        if va != vb:
            partners.get(va, []).append(vb)
            partners.get(vb, []).append(va)
    growth = {v: len(p) for v, p in partners.items()}
    left = list(labels)
    order, cut, widest = [], 0, 0
    while left:
        v = min(left, key=growth.__getitem__)
        left.remove(v)
        order.append(v)
        cut += growth.pop(v)
        widest = max(widest, cut)
        for w in partners[v]:
            if w in growth:
                growth[w] -= 2  # an opening edge of w becomes a closing one
    return order, widest


def brute_force(inst: Instance, cap: int = DEFAULT_BRUTE_CAP) -> CountResult:
    """Exact count by contracting the vertices one at a time along a cut.

    Orientation bit e is 1 when the first endpoint of edge e holds the 1.
    After some vertices are contracted, the state maps each orientation of
    the cut edges (exactly one endpoint contracted) to the number of
    orientations of the edges behind the cut that every contracted label
    accepts.  The order is greedy (see ``_cut_order``), and with w its
    widest cut the work is at most 2^w states per vertex instead of the
    2^|edges| orientations.  ``cap`` bounds w, not the edge count: an order
    whose widest cut exceeds it raises InstanceError before any table is
    built.
    """
    labels = inst.labels()
    order, widest = _cut_order(inst, labels)
    if widest > cap:
        raise InstanceError(f"cut width {widest} exceeds brute-force cap {cap}")
    ep = _endpoint_map(inst)
    taken: set = set()
    states = {0: 1}
    for v in order:
        sig = labels[v]
        closing, opening, loops = [], [], {}
        for k in range(sig.arity):
            e, side = ep[(v, k + 1)]
            w = inst.edges[e][1 - side][0]
            if w == v:
                loops.setdefault(e, []).append(k)
            else:
                (closing if w in taken else opening).append((k, e, side))
        taken.add(v)
        # per support row: its orientation bits on the closing edges -> its
        # bits on the opening edges -> multiplicity (the self-loop choices)
        table: dict = {}
        for r in sig.rows:
            if any((r >> k ^ r >> j ^ 1) & 1 for k, j in loops.values()):
                continue  # a self-loop joins a 1 to a 0
            key = sum(((r >> k & 1) ^ side) << e for k, e, side in closing)
            bits = sum(((r >> k & 1) ^ side) << e for k, e, side in opening)
            hits = table.setdefault(key, {})
            hits[bits] = hits.get(bits, 0) + 1
        mask = sum(1 << e for _, e, _ in closing)
        nxt: dict = {}
        for s, c in states.items():
            hits = table.get(s & mask)
            if hits:
                rest = s & ~mask
                for bits, m in hits.items():
                    t = rest | bits
                    nxt[t] = nxt.get(t, 0) + c * m
        if not nxt:
            return CountResult(0, Method.BRUTE)
        states = nxt
    return CountResult(sum(states.values()), Method.BRUTE)


def solve_affine(
    inst: Instance, label_classes: _Classes | None = None
) -> CountResult:
    """Count in the parametric form of the labels: the slots of vertex v read
    base_v + B_v·y_v, with one GF(2) unknown per vector of the basis B_v of
    its label's support shifted by base_v.  Each edge gives one row, "the two
    slots differ", in the unknowns of its two endpoints.  A basis is
    independent, so y -> x is one-to-one and the row system has exactly one
    solution per orientation.  Each distinct label is reduced once;
    ``label_classes`` passes on the reductions that ``solve`` already made.
    """
    classes = label_classes or _Classes()
    forms: dict = {}  # label -> (base, per slot the basis vectors that set it)
    place: dict = {}  # vertex -> (its first unknown, base, slot masks)
    n = 0
    for v, sig in inst.labels().items():
        form = forms.get(sig)
        if form is None:
            red = classes.reduction(sig)
            if red is None:
                raise InstanceError(f"vertex {v}: label is not affine")
            base, basis = red
            if base is None:
                return CountResult(0, Method.AFFINE)
            cols = [0] * sig.arity
            for k, b in enumerate(basis):
                while b:
                    low = b & -b
                    cols[low.bit_length() - 1] |= 1 << k
                    b ^= low
            form = forms[sig] = (base, cols, len(basis))
        base, cols, dim = form
        place[v] = (n, base, cols)
        n += dim
    rows = []
    for (v, i), (w, j) in inst.edges:
        at_v, base_v, cols_v = place[v]
        at_w, base_w, cols_w = place[w]
        const = (1 ^ base_v >> (i - 1) ^ base_w >> (j - 1)) & 1
        rows.append(
            (cols_v[i - 1] << at_v) ^ (cols_w[j - 1] << at_w) | const << n
        )
    return CountResult(count_packed(rows, n), Method.AFFINE)


class _Classes:
    """Class membership of the distinct labels of one solve, each computed
    at most once: the affine reduction ``(base, basis)`` (None when not
    affine), and per polarity t whether the label is affine or an EO
    signature in the delta_t-affine class."""

    def __init__(self):
        self._reduced: dict = {}
        self._tractable: dict = {}

    def reduction(self, sig: Signature):
        if sig not in self._reduced:
            self._reduced[sig] = _affine_basis(sig)
        return self._reduced[sig]

    def affine(self, sig: Signature) -> bool:
        return self.reduction(sig) is not None

    def tractable(self, sig: Signature, t: int) -> bool:
        hit = self._tractable.get((sig, t))
        if hit is None:
            hit = self.affine(sig) or (
                is_eo(sig) and (in_d1(sig) if t == 1 else in_d0(sig))
            )
            self._tractable[(sig, t)] = hit
        return hit


def chain_reaction(
    inst: Instance,
    polarity: Polarity = Polarity.ONE,
    trace: bool = False,
    label_classes: _Classes | None = None,
) -> CountResult:
    """Fire forced delta slots until none is left, then count the residual,
    which must be all-affine, by elimination.

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
    event that can give it a forced slot.  ``label_classes`` passes on the
    classes that ``solve`` already computed for the labels.

    The state is three maps: ``sig`` holds each vertex's current label,
    ``slots`` the original ids of its live slots in variable order, and
    ``edges`` the edges not yet consumed, plus an endpoint index built once.
    A vertex whose slots are all consumed keeps its arity-0 label, so the
    residual names each label by its vertex.
    """
    t = 1 if polarity is Polarity.ONE else 0
    classes = label_classes or _Classes()
    sig = inst.labels()
    for v, f in sig.items():
        if not classes.tractable(f, t):
            raise InstanceError(
                f"vertex {v}: label outside the polarity-{polarity.value} "
                "tractable class"
            )
    method = Method.CHAIN_D1 if t == 1 else Method.CHAIN_D0
    steps: list = []

    def note(msg):
        if trace:
            steps.append(msg)

    def result(count):
        return CountResult(count, method, tuple(steps) if trace else None)

    def forced(f):
        # 1-based position of the first constant-t column, 0 if none
        full = (1 << f.arity) - 1
        col = reduce(and_, f.rows, full) if t else full & ~reduce(or_, f.rows)
        return (col & -col).bit_length()

    if any(f.is_zero() for f in sig.values()):
        note("zero signature reached; count is 0")
        return result(0)
    slots = {v: list(range(1, f.arity + 1)) for v, f in sig.items()}
    edges = dict(enumerate(inst.edges))
    edge_at = {}  # endpoint -> edge index; a consumed endpoint is never read
    for e, (a, b) in edges.items():
        edge_at[a] = edge_at[b] = e
    queue = deque(sig)

    while queue:
        u = queue.popleft()
        f = sig[u]
        pos = forced(f)
        if not pos:
            continue  # nothing to fire until it is pinned again
        slot = slots[u][pos - 1]
        a, b = edges.pop(edge_at[(u, slot)])
        v, other = b if a == (u, slot) else a
        j = bisect_left(slots[v], other) + 1
        if v == u:
            sig[u] = pin2(f, pos, j, t, 1 - t)
            note(f"self-loop at {u}: pinned slots {slot},{other}")
        else:
            sig[u] = pin(f, pos, t)
            sig[v] = pin(sig[v], j, 1 - t)
            note(f"propagated {u}.{slot} -> {v}.{other}")
        del slots[u][pos - 1]
        del slots[v][bisect_left(slots[v], other)]
        if sig[u].is_zero() or sig[v].is_zero():
            note("zero signature reached; count is 0")
            return result(0)
        queue.append(u)
        if v != u:
            g = sig[v]
            if forced(g):
                queue.append(v)
            elif g.arity and not is_affine(g):
                # Guarantee for the propagation step: the neighbour is
                # annihilated, turns affine, or realizes a fresh forced slot.
                raise InstanceError(
                    f"vertex {v}: propagation produced a non-affine "
                    "label with no forced slot"
                )

    for v, f in sig.items():
        if not classes.affine(f):
            raise InstanceError(
                f"vertex {v}: label still non-affine at the fixpoint; "
                "chain-reaction invariant broken"
            )
    res = Instance(
        sig,
        tuple((v, v) for v in sig),
        tuple(
            ((va, bisect_left(slots[va], sa) + 1), (vb, bisect_left(slots[vb], sb) + 1))
            for (va, sa), (vb, sb) in edges.values()
        ),
    )
    count = solve_affine(res, classes).count
    note(f"affine residual with {len(res.edges)} edges: count {count}")
    return result(count)


def solve(inst: Instance, method: str = "auto", trace: bool = False) -> CountResult:
    """Dispatch: affine instances to Gaussian elimination, one-polarity
    instances to the chain reaction, everything else to brute force.  Each
    distinct label is classified once."""
    errors, _ = validate(inst)
    if errors:
        raise InstanceError("; ".join(errors))
    if method == "brute":
        return brute_force(inst)
    if method == "affine":
        return solve_affine(inst)
    if method not in ("auto", "chain"):
        raise ValueError(f"unknown method {method!r}")
    classes = _Classes()
    labels = list(dict.fromkeys(inst.labels().values()))
    if method == "auto" and all(classes.affine(s) for s in labels):
        return solve_affine(inst, classes)
    for pol in (Polarity.ONE, Polarity.ZERO):
        t = 1 if pol is Polarity.ONE else 0
        if all(classes.tractable(s, t) for s in labels):
            return chain_reaction(inst, pol, trace=trace, label_classes=classes)
    if method == "chain":
        raise InstanceError("no single polarity covers all labels")
    res = brute_force(inst)
    return CountResult(
        res.count,
        res.method,
        res.steps,
        note="no tractable method; instance mixes both delta-affine polarities",
    )


def gadget_demo_hardness(f, g, pairs) -> WeightedSignature:
    """Connect variable i of f to variable j of g with a disequality for each
    (i, j) pair; remaining variables keep f-then-g order."""
    wf, wg = WeightedSignature.of(f), WeightedSignature.of(g)
    if len({i for i, _ in pairs}) != len(pairs) or len(
        {j for _, j in pairs}
    ) != len(pairs):
        raise IndexError("pairs reuse a variable")
    for i, _ in pairs:
        if not 1 <= i <= wf.arity:
            raise IndexError(f"left index {i} out of range")
    for _, j in pairs:
        if not 1 <= j <= wg.arity:
            raise IndexError(f"right index {j} out of range")
    h = weighted_tensor(wf, wg)
    removed: list = []  # tensor indices already looped away
    for i, j in pairs:
        a, b = i, wf.arity + j
        h = loop_diseq(
            h, a - sum(r < a for r in removed), b - sum(r < b for r in removed)
        )
        removed += [a, b]
    return h
