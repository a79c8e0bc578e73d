"""The #EO instance model and its solvers: brute-force enumeration, the
Gaussian affine solver, and the chain-reaction reduction.

Edges are implicit disequalities: the two endpoints of an edge always take
complementary bits (orientation = which side got the 1).
"""

from __future__ import annotations

import enum
from bisect import bisect_left
from dataclasses import dataclass
from heapq import heappop, heappush

from .affine import affine_system, count_packed, is_affine
from .classes import in_d0, in_d1
from .errors import InstanceError
from .signatures import (
    Signature,
    WeightedSignature,
    delta_factors,
    is_eo,
    pin,
    pin2,
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

    def label(self, v) -> Signature:
        return self.signatures[dict(self.vertices)[v]]

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
    seen: dict = {}
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
            seen[(v, slot)] = seen.get((v, slot), 0) + 1
    for (v, slot), cnt in seen.items():
        if cnt > 1:
            errors.append(f"endpoint {v}.{slot} wired {cnt} times")
    for v, sig in labels.items():
        for slot in range(1, sig.arity + 1):
            if (v, slot) not in seen:
                errors.append(f"dangling slot {v}.{slot}")
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


def brute_force(inst: Instance, cap: int = DEFAULT_BRUTE_CAP) -> CountResult:
    """Sum over all 2^|edges| orientations; the side holding the tail gets
    bit 1, the head bit 0."""
    ne = len(inst.edges)
    if ne > cap:
        raise InstanceError(f"{ne} edges exceeds brute-force cap {cap}")
    labels = inst.labels()
    ep = _endpoint_map(inst)
    plan = []  # per vertex: (support set, [(edge, side), ...] in slot order)
    for v, sig in labels.items():
        slots = [ep[(v, s)] for s in range(1, sig.arity + 1)]
        plan.append((sig.support, slots))
    total = 0
    for x in range(1 << ne):
        for support, slots in plan:
            if tuple(((x >> e) & 1) ^ side for e, side in slots) not in support:
                break
        else:
            total += 1
    return CountResult(total, Method.BRUTE)


def solve_affine(inst: Instance) -> CountResult:
    """One GF(2) variable per edge; every vertex contributes its affine
    constraints with slots substituted by the edge variable or its
    complement."""
    ne = len(inst.edges)
    ep = _endpoint_map(inst)
    rows = []
    for v, sig in inst.labels().items():
        if not is_affine(sig):
            raise InstanceError(f"vertex {v}: label is not affine")
        sys = affine_system(sig)
        if sys.is_empty:
            return CountResult(0, Method.AFFINE)
        for crow in sys.constraints:
            packed = 0
            const = crow[-1]
            for slot, coeff in enumerate(crow[:-1], start=1):
                if coeff:
                    e, side = ep[(v, slot)]
                    packed ^= 1 << e
                    const ^= side  # second endpoint holds the complement
            rows.append(packed | (const << ne))
    return CountResult(count_packed(rows, ne), Method.AFFINE)


class _Classes:
    """Class membership of the distinct labels of one solve, each computed
    at most once: affine, and per polarity t whether the label is affine or
    an EO signature in the delta_t-affine class."""

    def __init__(self):
        self._affine: dict = {}
        self._tractable: dict = {}

    def affine(self, sig: Signature) -> bool:
        hit = self._affine.get(sig)
        if hit is None:
            hit = self._affine[sig] = is_affine(sig)
        return hit

    def tractable(self, sig: Signature, t: int) -> bool:
        hit = self._tractable.get((sig, t))
        if hit is None:
            hit = self.affine(sig) or (
                is_eo(sig) and (in_d1(sig) if t == 1 else in_d0(sig))
            )
            self._tractable[(sig, t)] = hit
        return hit


def _first_forced(sig: Signature, t: int):
    """1-based position of the first constant-t column of a nonzero label,
    or None."""
    ones, zeros = delta_factors(sig)
    forced = ones if t == 1 else zeros
    return forced[0] if forced else None


class _Work:
    """Mutable view of an instance during the chain reaction.

    Per live vertex it caches whether the label is affine and where its
    first forced slot is, counts the non-affine vertices, and keeps the
    owners of a forced slot in a heap ordered as the step choice wants:
    non-affine owners first, then by ``str`` of the vertex id, then by
    vertex order.  Entries go stale when a vertex's flags change; they are
    skipped when they reach the top.
    """

    def __init__(self, inst: Instance, t: int):
        labels = inst.labels()
        self.t = t
        self.sig = dict(labels)
        # vertex order: breaks ties of str(v) and orders same-step drops
        self.rank = {v: i for i, v in enumerate(labels)}
        # per vertex, the original slot ids still alive, in variable order
        self.slots = {v: list(range(1, s.arity + 1)) for v, s in labels.items()}
        self.edges = {e: pair for e, pair in enumerate(inst.edges)}
        self.by_endpoint = {}
        for e, (a, b) in self.edges.items():
            self.by_endpoint[a] = e
            self.by_endpoint[b] = e
        self.affine: dict = {}
        self.forced: dict = {}
        self.non_affine = 0
        self.owners: list = []

    def position(self, v, slot) -> int:
        return bisect_left(self.slots[v], slot) + 1

    def remove_slot(self, v, slot) -> None:
        del self.slots[v][bisect_left(self.slots[v], slot)]

    def drop_edge(self, e) -> None:
        a, b = self.edges.pop(e)
        del self.by_endpoint[a]
        del self.by_endpoint[b]

    def set_flags(self, v, affine: bool, forced) -> None:
        # a vertex without flags yet counts as affine, i.e. not in non_affine
        was_owner = self.forced.get(v) is not None
        was_affine = self.affine.get(v, True)
        self.non_affine += was_affine - affine
        self.affine[v] = affine
        self.forced[v] = forced
        if forced is not None and (not was_owner or was_affine != affine):
            heappush(self.owners, (affine, str(v), self.rank[v], v))

    def refresh(self, v, sig: Signature) -> None:
        """Store v's pinned label; flags are computed only for a label that
        stays in the instance (nonzero, arity > 0)."""
        self.sig[v] = sig
        if sig.arity and sig.support:
            self.set_flags(v, is_affine(sig), _first_forced(sig, self.t))

    def drop(self, v) -> None:
        """Remove a vertex whose label is the scalar 1."""
        del self.sig[v]
        del self.slots[v]
        self.non_affine -= not self.affine.pop(v, True)
        self.forced.pop(v, None)

    def next_owner(self):
        """The vertex whose forced slot the next step consumes, or None."""
        owners = self.owners
        while owners:
            affine, _, _, v = owners[0]
            if self.forced.get(v) is not None and self.affine[v] == affine:
                return v
            heappop(owners)
        return None

    def residual(self) -> Instance:
        names = {}
        vertices = []
        for v, sig in self.sig.items():
            names[v] = f"sig_{v}"
            vertices.append((v, names[v]))
        edges = []
        for a, b in self.edges.values():
            (va, sa), (vb, sb) = a, b
            edges.append(
                ((va, self.position(va, sa)), (vb, self.position(vb, sb)))
            )
        return Instance(
            {names[v]: self.sig[v] for v in self.sig}, tuple(vertices), tuple(edges)
        )


def chain_reaction(
    inst: Instance,
    polarity: Polarity = Polarity.ONE,
    trace: bool = False,
    label_classes: _Classes | None = None,
) -> CountResult:
    """Repeatedly consume a forced delta slot through its disequality edge,
    pinning the neighbour, until the residual instance is all-affine.

    A step changes only the two labels it pins, so only they are examined
    again.  ``label_classes`` passes on the classes that ``solve`` already
    computed for the labels.
    """
    t = 1 if polarity is Polarity.ONE else 0
    classes = label_classes or _Classes()
    labels = inst.labels()
    for v, sig in labels.items():
        if not classes.tractable(sig, t):
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

    if any(s.is_zero() for s in labels.values()):
        note("zero signature reached; count is 0")
        return result(0)
    work = _Work(inst, t)
    for v, sig in labels.items():
        if sig.arity == 0:
            work.drop(v)
            note(f"dropped scalar-1 vertex {v}")
        else:
            work.set_flags(v, classes.affine(sig), _first_forced(sig, t))

    while work.non_affine:
        # A pin can leave a non-affine residual with no delta column of its
        # own; the forced slot that keeps the chain going may then sit on a
        # different vertex, possibly one with an affine label.  Non-affine
        # owners go first to keep traces short.
        u = work.next_owner()
        if u is None:
            raise InstanceError(
                "non-affine label remains but no forced delta slot exists "
                "anywhere; chain-reaction invariant broken"
            )
        f = work.sig[u]
        pos = work.forced[u]
        slot_id = work.slots[u][pos - 1]
        e = work.by_endpoint[(u, slot_id)]
        a, b = work.edges[e]
        v, other_slot = b if a == (u, slot_id) else a
        j = work.position(v, other_slot)
        if v == u:
            pinned = {u: pin2(f, pos, j, t, 1 - t)}
            note(f"self-loop at {u}: pinned slots {slot_id},{other_slot}")
        else:
            pinned = {u: pin(f, pos, t), v: pin(work.sig[v], j, 1 - t)}
            note(f"propagated {u}.{slot_id} -> {v}.{other_slot}")
        work.remove_slot(u, slot_id)
        work.remove_slot(v, other_slot)
        work.drop_edge(e)
        for w, sig in pinned.items():
            work.refresh(w, sig)
        if any(sig.is_zero() for sig in pinned.values()):
            note("zero signature reached; count is 0")
            return result(0)
        # Guarantee for the propagation step: the neighbour is annihilated,
        # turns affine, or realizes a fresh forced slot.
        if (
            v != u
            and pinned[v].arity
            and not work.affine[v]
            and work.forced[v] is None
        ):
            raise InstanceError(
                f"vertex {v}: propagation produced a non-affine "
                "label with no forced slot"
            )
        for w in sorted(pinned, key=work.rank.get):
            if not pinned[w].arity:
                work.drop(w)
                note(f"dropped scalar-1 vertex {w}")

    res = work.residual()
    if not res.vertices:
        return result(1)
    count = solve_affine(res).count
    note(f"affine residual with {len(res.edges)} edges: count {count}")
    return result(count)


def solve(
    inst: Instance,
    method: str = "auto",
    trace: bool = False,
    brute_cap: int = DEFAULT_BRUTE_CAP,
) -> CountResult:
    """Dispatch: affine instances to Gaussian elimination, one-polarity
    instances to the chain reaction, everything else to brute force.  Each
    distinct label is classified once."""
    errors, _ = validate(inst)
    if errors:
        raise InstanceError("; ".join(errors))
    if method == "brute":
        return brute_force(inst, cap=brute_cap)
    if method == "affine":
        return solve_affine(inst)
    if method not in ("auto", "chain"):
        raise ValueError(f"unknown method {method!r}")
    classes = _Classes()
    labels = list(dict.fromkeys(inst.labels().values()))
    if method == "auto" and all(classes.affine(s) for s in labels):
        return solve_affine(inst)
    for pol in (Polarity.ONE, Polarity.ZERO):
        t = 1 if pol is Polarity.ONE else 0
        if all(classes.tractable(s, t) for s in labels):
            return chain_reaction(inst, pol, trace=trace, label_classes=classes)
    if method == "chain":
        raise InstanceError("no single polarity covers all labels")
    res = brute_force(inst, cap=brute_cap)
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
    keep_f = [i for i in range(1, wf.arity + 1) if i not in {i for i, _ in pairs}]
    keep_g = [j for j in range(1, wg.arity + 1) if j not in {j for _, j in pairs}]
    out: dict = {}
    for a, va in wf.values.items():
        for b, vb in wg.values.items():
            if all(a[i - 1] != b[j - 1] for i, j in pairs):
                key = tuple(a[i - 1] for i in keep_f) + tuple(
                    b[j - 1] for j in keep_g
                )
                out[key] = out.get(key, 0) + va * vb
    return WeightedSignature(len(keep_f) + len(keep_g), out)
