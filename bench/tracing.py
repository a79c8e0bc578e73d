"""Layer timing from outside the program.

``Tracer.install`` replaces every module-level binding of the traced
functions -- in the defining module and in every importer, such as
``engine.is_affine`` and ``classes.is_affine`` -- with a wrapper that times
the call.  Spans are aggregated in memory per (phase, name, parent) as calls,
inclusive time and self time, since one chain solve makes ~10^6 calls; the
benchmark's top-level operation spans are kept one record each.
``uninstall`` puts the original functions back.
"""

from __future__ import annotations

import sys
import types
from collections import Counter
from time import perf_counter

# layer (module under eocount) -> public functions timed in it
TRACED = {
    "engine": ("solve", "validate", "chain_reaction", "solve_affine",
               "brute_force"),
    "signatures": ("delta_factors", "pin", "pin2", "complement"),
    "affine": ("is_affine", "affine_system", "count_packed", "gf2_eliminate"),
    "classes": ("classify", "in_d1", "in_d0", "kernel_structure"),
    "canonical": ("canonical_form",),
    "hadamard": ("sylvester", "hadamard_code", "balanced_code", "butterfly",
                 "wings", "basic_kernel", "basic_kernel_zero"),
    "instance_io": ("instance_from_text", "instance_to_text"),
}


class Tracer:
    def __init__(self):
        self.phase = "setup"
        self.paused = False  # set while the benchmark checks an answer
        self.stack: list = []  # frames: [name, time covered by child spans]
        self.agg: dict = {}  # (phase, name, parent) -> [calls, total, self]
        self.counters: Counter = Counter()  # (phase, counter name) -> sum
        self.calls: Counter = Counter()  # name -> calls, for per-op deltas
        self.ops: list = []  # one record per top-level operation
        self._patched: list = []  # (module, attribute, original)

    # -- wrappers ----------------------------------------------------------

    def _wrap(self, name, fn):
        sizes = name == "affine.count_packed"  # count_packed(rows, n)

        def traced(*args, **kwargs):
            if self.paused:
                return fn(*args, **kwargs)
            if sizes:
                rows, n = args
                self.counters[(self.phase, name + ".rows")] += len(rows)
                self.counters[(self.phase, name + ".cols")] += n
            return self._call(name, fn, args, kwargs)

        traced.__wrapped__ = fn
        return traced

    def _call(self, name, fn, args, kwargs):
        stack = self.stack
        parent = stack[-1] if stack else None
        frame = [name, 0.0]
        stack.append(frame)
        t0 = perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            dt = perf_counter() - t0
            stack.pop()
            self.calls[name] += 1
            key = (self.phase, name, parent and parent[0])
            rec = self.agg.get(key)
            if rec is None:
                rec = self.agg[key] = [0, 0.0, 0.0]
            rec[0] += 1
            rec[1] += dt
            rec[2] += dt - frame[1]
            if parent is not None:
                parent[1] += dt

    def install(self) -> None:
        """Wrap every binding of a traced function in eocount's modules and
        in any other loaded module that imported one by name."""
        if self._patched:
            raise RuntimeError("tracer already installed")
        originals = {}
        for layer, names in TRACED.items():
            mod = sys.modules[f"eocount.{layer}"]
            for fn_name in names:
                fn = getattr(mod, fn_name)
                originals[id(fn)] = (fn, self._wrap(f"{layer}.{fn_name}", fn))
        for mod in list(sys.modules.values()):
            if not isinstance(mod, types.ModuleType):
                continue
            for attr, value in list(vars(mod).items()):
                hit = originals.get(id(value))
                if hit is not None and hit[0] is value:
                    setattr(mod, attr, hit[1])
                    self._patched.append((mod, attr, value))

    def uninstall(self) -> None:
        for mod, attr, value in reversed(self._patched):
            setattr(mod, attr, value)
        self._patched.clear()

    # -- top-level spans ---------------------------------------------------

    def op_span(self, op, t0: float, dt: float, ok: bool, before: Counter):
        delta = {k: v - before.get(k, 0) for k, v in self.calls.items()
                 if v != before.get(k, 0)}
        self.ops.append({"phase": self.phase, "op": op.kind, "rung": op.rung,
                         "size": op.size, "edges": op.edges,
                         "labels": op.labels, "start": t0, "dur": dt,
                         "ok": ok, "calls": delta})

    # -- summaries ---------------------------------------------------------

    def calls_of(self, phase, name, parent=None) -> int:
        return sum(rec[0] for (ph, n, p), rec in self.agg.items()
                   if ph == phase and n == name
                   and (parent is None or p == parent))

    def seconds(self, phase, name) -> float:
        """Inclusive time of ``name``, not counting calls nested in itself."""
        return sum(rec[1] for (ph, n, p), rec in self.agg.items()
                   if ph == phase and n == name and p != name)

    def self_seconds(self, phase, name) -> float:
        return sum(rec[2] for (ph, n, p), rec in self.agg.items()
                   if ph == phase and n == name)

    def layer_seconds(self, phase, layer) -> float:
        """Inclusive time of the outermost calls into one layer."""
        pre = layer + "."
        return sum(rec[1] for (ph, n, p), rec in self.agg.items()
                   if ph == phase and n.startswith(pre)
                   and not (p or "").startswith(pre))

    def dump(self) -> dict:
        return {
            "spans": [
                {"phase": ph, "name": n, "parent": p, "calls": c,
                 "total_s": tot, "self_s": slf}
                for (ph, n, p), (c, tot, slf) in sorted(
                    self.agg.items(), key=lambda kv: [str(x) for x in kv[0]])
            ],
            "counters": {f"{ph}:{k}": v for (ph, k), v in
                         sorted(self.counters.items())},
            "ops": self.ops,
        }
