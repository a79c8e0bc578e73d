"""Seeded planted-instance benchmark for eocount.

Usage, from the root of a source checkout::

    python3 bench/run.py --workload chain_planted --seed 1 --seconds 30 --trace 0

The run imports eocount from ``src/``, generates the inputs of a pass from
the seed, times each operation of the pass, checks every answer, and repeats
passes until ``--seconds`` is used up (at least three whole passes).
``--trace 0`` reports the end-to-end metrics, built from the fastest time of
every operation slot; ``--trace 1`` reports the per-layer metrics of pass 0
from timing wrappers (see tracing.py).  The
last line of standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``; a fuller record goes to
``bench/results/``.  See bench/README.md for the metrics.
"""

from __future__ import annotations

import argparse
import importlib
import json
import math
import os
import platform
import random
import resource
import statistics
import subprocess
import sys
import traceback
from collections import Counter
from pathlib import Path
from time import perf_counter

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
MIN_PASSES = 3
# peak RSS is read after a fixed number of passes, so it measures a fixed
# amount of work however many passes a fast machine fits into --seconds
RSS_AFTER_PASSES = MIN_PASSES
# In a traced run, pass 0 is traced and its per-layer metrics reported; later
# even passes are traced too, odd ones are not, and the ratio of their wall
# times (pass 0 excluded, as it alone starts with empty memo tables and
# caches) gives trace_overhead.
REPORTED = 0
# Other load on a shared machine only ever slows a measurement, by a share
# that drifts over seconds, so the timing metrics take the fastest of many
# measurements of the same work spread over the run (see README.md).  Set-up
# is measured SETUP_SAMPLES times before the first pass and once after every
# pass; a traced run sets up once.
SETUP_SAMPLES = 3
# Other load can also slow a whole run, by up to ~80% for tens of seconds,
# which no fastest time within the run escapes.  So an untraced run also
# times a reference (see Reference) and scales every time metric by
# REF_NOMINAL_S / (the reference's REF_QUANTILE quantile in the run): the
# times read as on a machine on which that quantile is REF_NOMINAL_S.  A slot
# time is the fastest of 10 to 60 passes, about the 5% quantile of that
# slot's times; the reference, sampled hundreds of times, is read at the
# same quantile rather than at its own fastest.
REF_EVERY_S = 0.02
REF_QUANTILE = 0.05
REF_NOMINAL_S = 0.0007
# The reference allocates, and where its samples fall among the operations
# depends on timing, so it starts only once peak RSS has been read, and is
# sampled REF_END_SAMPLES more times at the end of the run.
REF_END_SAMPLES = 20
TIME_UNITS = ("s", "ms")
EOCOUNT = "eocount"

END_TO_END = {  # name -> unit
    "setup_s": "s",
    "wall_s": "s",
    "solve_s_top": "s",
    "scaling_exponent": "1",
    "op_ms_p50": "ms",
    "op_ms_p90": "ms",
    "peak_rss_mb": "MB",
}


def git_sha() -> str:
    """HEAD of the checkout, or "unknown" outside a git repository."""
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                             capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


class Reference:
    """A fixed piece of pure-Python work on small dicts, frozensets and
    tuples, like eocount's, timed between operations, REF_EVERY_S seconds
    apart or more.  A low quantile of its times tracks how fast the machine
    runs Python code during the run."""

    def __init__(self):
        self.samples = []
        self.last = -math.inf

    @staticmethod
    def work() -> int:
        d: dict = {}
        for i in range(300):
            key = frozenset((i % 5, j, (i * j) & 3) for j in range(8))
            d[key] = d.get(key, 0) + len(key)
        return len(d)

    def sample(self) -> None:
        t0 = perf_counter()
        self.work()
        self.last = perf_counter()
        self.samples.append(self.last - t0)

    def maybe_sample(self) -> None:
        if perf_counter() - self.last >= REF_EVERY_S:
            self.sample()

    def quantile(self) -> float:
        ordered = sorted(self.samples)
        return ordered[int(REF_QUANTILE * len(ordered))]


def rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def run_pass(ops, tracer, pass_index, records, failures, last,
             deadline=math.inf, reference=None):
    """Run one pass; returns its wall time (checks excluded), or None if it
    stopped early at an operation that would overrun ``deadline`` if it
    took as long as in the previous pass.  ``last`` maps each slot to its
    latest operation time."""
    from workloads import WrongAnswer

    wall = 0.0
    seen = Counter()
    for op in ops:
        # the operation's slot: the j-th of its kind on its rung, which
        # every pass fills with the same input (a same-shape one on
        # classify_families)
        slot = f"{op.kind}/{op.rung}/{seen[op.kind, op.rung]}"
        seen[op.kind, op.rung] += 1
        if perf_counter() + last.get(slot, 0.0) > deadline:
            return None
        before = Counter(tracer.calls) if tracer is not None else None
        err = None
        t0 = perf_counter()
        try:
            out = op.run()
        except Exception as e:  # every failure is counted, none stops the run
            err = e
        dt = perf_counter() - t0
        wall += dt
        last[slot] = dt
        if reference is not None:
            reference.maybe_sample()
        if err is None:
            if tracer is not None:
                tracer.paused = True
            try:
                op.check(out)
            except Exception as e:
                err = e
            finally:
                if tracer is not None:
                    tracer.paused = False
        ok = err is None
        records.append({"pass": pass_index, "slot": slot, "op": op.kind,
                        "rung": op.rung, "size": op.size, "edges": op.edges,
                        "labels": op.labels, "copies": op.copies, "s": dt,
                        "ok": ok})
        if tracer is not None:
            tracer.op_span(op, t0, dt, ok, before)
        if err is not None:
            wrong = isinstance(err, WrongAnswer)
            failures.append({
                "pass": pass_index, "op": op.kind, "wrong": wrong,
                "type": type(err).__name__, "message": str(err),
                "traceback": None if wrong else "".join(
                    traceback.format_exception(err)),
            })
    return wall


def slot_times(records) -> dict:
    """Slot -> its fastest operation time over the passes."""
    fastest: dict = {}
    for r in records:
        fastest[r["slot"]] = min(r["s"], fastest.get(r["slot"], math.inf))
    return fastest


def end_to_end(records, setup_s, peak_rss) -> dict:
    """End-to-end metrics over all passes of the run, from the fastest
    time of every operation slot."""
    fastest = slot_times(records)
    slots = list(fastest.values())
    rung_of = {r["slot"]: r for r in records}
    top = max(r["rung"] for r in records if r["rung"] is not None)

    def rung(rung):  # (slot time, time per input, size) of a rung's slots
        return [(fastest[k], fastest[k] / r["copies"], r["size"])
                for k, r in rung_of.items() if r["rung"] == rung]

    def ratio(i):  # top rung over bottom rung, by their means
        return (statistics.fmean(x[i] for x in rung(top))
                / statistics.fmean(x[i] for x in rung(0)))

    return {
        "setup_s": setup_s,
        "wall_s": sum(slots),
        "solve_s_top": statistics.median(x[0] for x in rung(top)),
        "scaling_exponent": math.log(ratio(1)) / math.log(ratio(2)),
        "op_ms_p50": 1000 * statistics.median(slots),
        "op_ms_p90": 1000 * statistics.quantiles(
            slots, n=10, method="inclusive")[-1],
        "peak_rss_mb": peak_rss,
    }


def _eocount_modules() -> list:
    return [m for m in sys.modules
            if m == EOCOUNT or m.startswith(EOCOUNT + ".")]


def time_import() -> float:
    """Time one fresh import of eocount, then put the modules the run uses
    back in place, so that the run keeps one copy of the package."""
    loaded = {name: sys.modules.pop(name) for name in _eocount_modules()}
    t0 = perf_counter()
    importlib.import_module(EOCOUNT)
    dt = perf_counter() - t0
    for name in _eocount_modules():
        del sys.modules[name]
    sys.modules.update(loaded)
    return dt


def per_layer(tracer, walls, traced, failures) -> dict:
    """Per-layer metrics of pass REPORTED (phases "setup" and "run"), plus
    the tracing overhead from the timed passes."""
    run, setup = "run", "setup"
    ops = [o for o in tracer.ops if o["phase"] == run]
    labels = sum(o["labels"] for o in ops if o["edges"])
    top = max((o["rung"] for o in ops if o["rung"] is not None), default=None)

    def per_edge(name, rung=None):
        sel = [o for o in ops if o["edges"] and (rung is None or o["rung"] == rung)]
        e = sum(o["edges"] for o in sel)
        return sum(o["calls"].get(name, 0) for o in sel) / e if e else 0.0

    chain = "engine.chain_reaction"
    pins = tracer.calls_of(run, "signatures.pin", parent=chain)
    pin2s = tracer.calls_of(run, "signatures.pin2", parent=chain)
    m = {}
    for name in ("affine.is_affine", "signatures.delta_factors",
                 "signatures.pin", "classes.in_d1", "signatures.complement",
                 "affine.affine_system", "affine.gf2_eliminate",
                 "engine.brute_force", "canonical.canonical_form",
                 "engine.solve"):
        m[f"{name}.calls"] = tracer.calls_of(run, name)
        m[f"{name}.s"] = tracer.seconds(run, name)
    m["affine.is_affine.calls_per_edge"] = per_edge("affine.is_affine")
    m["affine.is_affine.calls_per_edge.bottom"] = per_edge("affine.is_affine", 0)
    m["affine.is_affine.calls_per_edge.top"] = (
        per_edge("affine.is_affine", top) if top is not None else 0.0)
    m["signatures.pin2.calls"] = tracer.calls_of(run, "signatures.pin2")
    m["engine.chain_steps"] = pins // 2 + pin2s
    m["engine.chain_reaction.self_s"] = tracer.self_seconds(run, chain)
    m["classes.in_d1.calls_per_label"] = (
        m["classes.in_d1.calls"] / labels if labels else 0.0)
    m["affine.count_packed.s"] = tracer.seconds(run, "affine.count_packed")
    m["affine.count_packed.rows"] = tracer.counters[(run, "affine.count_packed.rows")]
    m["affine.count_packed.cols"] = tracer.counters[(run, "affine.count_packed.cols")]
    m["engine.solve_affine.self_s"] = tracer.self_seconds(run, "engine.solve_affine")
    m["engine.validate.s"] = tracer.seconds(run, "engine.validate")
    m["instance_io.instance_from_text.s"] = tracer.seconds(
        run, "instance_io.instance_from_text")
    m["classes.classify.s"] = tracer.seconds(run, "classes.classify")
    m["classes.kernel_structure.s"] = tracer.seconds(run, "classes.kernel_structure")
    m["classes.refusals"] = sum(f["pass"] == REPORTED
                                and f["type"] == "BudgetExceeded"
                                for f in failures)
    m["hadamard.gen.s"] = tracer.layer_seconds(setup, "hadamard")
    m["instance_io.instance_to_text.s"] = tracer.seconds(
        setup, "instance_io.instance_to_text")
    timed = list(enumerate(walls))[1:]
    m["trace_overhead"] = (
        statistics.median(w for i, w in timed if traced(i))
        / statistics.median(w for i, w in timed if not traced(i)))
    return m


PER_LAYER_UNITS = {"s": "s", "calls": "count", "rows": "count", "cols": "count",
                   "self_s": "s", "refusals": "count", "chain_steps": "count",
                   "calls_per_edge": "calls/edge", "calls_per_label": "calls/label",
                   "bottom": "calls/edge", "top": "calls/edge",
                   "trace_overhead": "ratio"}


def layer_unit(name: str) -> str:
    return PER_LAYER_UNITS[name.rsplit(".", 1)[-1]]


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not (SRC / "eocount" / "__init__.py").is_file():
        print(f"error: no eocount sources under {SRC}", file=sys.stderr)
        return 2
    sys.path[:0] = [str(SRC), str(BENCH)]
    t0 = perf_counter()
    import eocount  # the first import may also compile bytecode
    import_s = [perf_counter() - t0]
    import workloads
    if Path(eocount.__file__).resolve().parent != SRC / "eocount":
        print(f"error: imported eocount from {eocount.__file__}", file=sys.stderr)
        return 2
    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; choose from "
              f"{', '.join(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    wl = workloads.WORKLOADS[args.workload]

    tracer = None
    if args.trace:
        from tracing import Tracer
        tracer = Tracer()

    def traced(i):
        return tracer is not None and i % 2 == 0

    def make_pass(i):
        return wl.make_pass(random.Random(f"{wl.name}/{args.seed}"), i)

    setup_gen_s = []  # generations of pass 0's inputs, the same each time

    def setup_sample():
        import_s.append(time_import())
        t0 = perf_counter()
        make_pass(0)
        setup_gen_s.append(perf_counter() - t0)

    records, failures, walls, gen_s = [], [], [], []
    reference = Reference() if tracer is None else None
    last: dict = {}  # slot -> its latest operation time
    peak_rss = None
    start = perf_counter()
    deadline = start + args.seconds
    if tracer is None:
        for _ in range(SETUP_SAMPLES):
            setup_sample()
    i = 0
    while True:
        if tracer is not None:
            tracer.uninstall()
            if i == REPORTED:  # its set-up is traced too
                tracer.phase = "setup"
                tracer.install()
        t0 = perf_counter()
        ops = make_pass(i)
        gen_s.append(perf_counter() - t0)
        if tracer is not None:
            tracer.phase = "run" if i == REPORTED else "later"
            if traced(i) and i != REPORTED:
                tracer.install()
        # the first MIN_PASSES passes run whole; later ones run while each
        # operation fits into --seconds, so the last may stop part way
        wall = run_pass(ops, tracer, i, records, failures, last,
                        deadline if i >= MIN_PASSES else math.inf,
                        reference if i >= RSS_AFTER_PASSES else None)
        if wall is None:
            break
        walls.append(wall)
        if tracer is None:
            setup_sample()
        i += 1
        if i == RSS_AFTER_PASSES:
            peak_rss = rss_mb()
        if i >= MIN_PASSES and perf_counter() + min(last.values()) > deadline:
            break
    if tracer is not None:
        tracer.uninstall()
    else:
        for _ in range(REF_END_SAMPLES):
            reference.sample()

    raw = {}  # the time metrics before scaling
    if tracer is None:
        setup_s = min(import_s) + min(setup_gen_s + gen_s[:1])
        raw = end_to_end(records, setup_s, peak_rss)
        scale = REF_NOMINAL_S / reference.quantile()
        metrics = {name: v * scale if END_TO_END[name] in TIME_UNITS else v
                   for name, v in raw.items()}
        units = END_TO_END
    else:
        metrics = per_layer(tracer, walls, traced, failures)
        units = {name: layer_unit(name) for name in metrics}

    wrong = sum(f["wrong"] for f in failures)
    attempted = len(records)
    meta = {
        "workload": wl.name, "why": wl.why, "seed": args.seed,
        "seconds": args.seconds, "trace": args.trace,
        "ladder": list(wl.ladder), "ladder_unit": wl.ladder_unit,
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "nproc": os.cpu_count(), "git_sha": git_sha(), "passes": len(walls),
        "import_s": import_s, "setup_gen_s": setup_gen_s, "gen_s": gen_s,
        "pass_wall_s": walls,
        "reference_s": reference.samples if reference is not None else None,
        "unscaled_metrics": raw,
    }
    print(f"# workload {wl.name}: {wl.why}")
    print(f"# seed {args.seed}  whole passes {len(walls)}  ops {attempted}  "
          f"ladder {list(wl.ladder)} {wl.ladder_unit}  python {meta['python']}  "
          f"nproc {meta['nproc']}  git {meta['git_sha'][:12]}")
    by_kind = Counter((f["op"], f["type"]) for f in failures)
    for (kind, typ), n in sorted(by_kind.items()):
        first = next(f for f in failures if (f["op"], f["type"]) == (kind, typ))
        print(f"# FAILED {n}x {kind}: {typ}: {first['message']}")
    print(f"# failed_share {len(failures) / attempted:.4f} "
          f"({len(failures)} of {attempted}; {wrong} wrong answers)")
    if tracer is None:
        top = max(r["rung"] for r in records if r["rung"] is not None)
        print(f"# samples: {attempted} ops in "
              f"{len({r['pass'] for r in records})} passes over "
              f"{len(slot_times(records))} slots, "
              f"{sum(r['rung'] == top for r in records)} ops on the top rung, "
              f"{len(import_s)} imports, {len(setup_gen_s) + 1} set-ups")
        print(f"# reference: {REF_QUANTILE:.0%} quantile "
              f"{reference.quantile() * 1000:.4f} ms of {len(reference.samples)} "
              f"samples; times scaled by {scale:.4f}, "
              "unscaled: " + ", ".join(f"{name} {raw[name]:.6g}"
                                       for name in raw
                                       if END_TO_END[name] in TIME_UNITS))
    for name, value in metrics.items():
        print(f"{name} {value:.6g} {units[name]}")

    out_dir = BENCH / "results"
    out_dir.mkdir(exist_ok=True)
    out = out_dir / f"{wl.name}-seed{args.seed}-trace{args.trace}.json"
    record = {"meta": meta, "metrics": metrics, "failures": failures,
              "ops": records}
    if tracer is not None:
        record["trace"] = tracer.dump()
    out.write_text(json.dumps(record, indent=1, default=str) + "\n")

    print(json.dumps({
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
