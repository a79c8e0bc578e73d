"""Command-line front end: solve/verify instances, classify signatures,
generate the standard families, build gadgets, run the kernel census."""

from __future__ import annotations

import argparse
import os
import sys

from . import engine
from .classes import classify, direct_d1_kernel, is_d1_kernel
from .errors import EOError
from .hadamard import Polarity, balanced_code, butterfly, hadamard_code
from .instance_io import instance_from_text
from .signatures import (
    Signature,
    bits_str,
    delta_factors,
    enumerate_eo_supports,
    m_multiple,
    signature_from_text,
    signature_to_text,
)


def _read(path: str) -> str:
    try:
        if path == "-":
            return sys.stdin.read()
        with open(path) as fh:
            return fh.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise EOError(f"cannot read {path}: {exc}") from exc


def _emit(pairs, fmt: str) -> None:
    pairs = [(k, engine._decimal(v) if isinstance(v, int) else v)
             for k, v in pairs]
    if fmt == "kv":
        for key, value in pairs:
            print(f"{key}={value}")
    else:
        width = max(len(k) for k, _ in pairs)
        for key, value in pairs:
            print(f"{key:<{width}}  {value}")


def _cmd_solve(args) -> int:
    inst = instance_from_text(_read(args.file))
    res = engine.solve(inst, method=args.method, trace=args.trace)
    pairs = [("count", res.count), ("method", res.method.value)]
    if res.note:
        pairs.append(("note", res.note))
    _emit(pairs, args.format)
    if args.trace and res.steps:
        for step in res.steps:
            print(f"trace: {step}")
    return 0


def _cmd_verify(args) -> int:
    inst = instance_from_text(_read(args.file))
    res = engine.solve(inst, method="auto")
    pairs = [(res.method.value, res.count)]
    if res.method is engine.Method.BRUTE:
        pairs.append(("agreement", "n/a(method brute)"))
    else:
        brute = engine.brute_force(inst)
        pairs.append(("brute", brute.count))
        pairs.append(("agreement", "yes" if brute.count == res.count else "NO"))
        if brute.count != res.count:
            _emit(pairs, args.format)
            return 1
    _emit(pairs, args.format)
    return 0


def _cmd_classify(args) -> int:
    sig = signature_from_text(_read(args.file))
    rep = classify(sig)
    pairs = [
        ("arity", sig.arity),
        ("support", len(sig.rows)),
        ("eo", str(rep.is_eo).lower()),
        ("affine", str(rep.is_affine).lower()),
        ("d1", str(rep.in_d1).lower()),
        ("d0", str(rep.in_d0).lower()),
        ("d1_kernel", str(rep.is_d1_kernel).lower()),
        ("d0_kernel", str(rep.is_d0_kernel).lower()),
    ]
    if rep.kernel_info is not None:
        info = rep.kernel_info
        pairs.append(("kind", info.kind.value))
        pairs.append(("polarity", info.polarity.value))
        if info.k is not None:
            pairs.append(("k", info.k))
        pairs.append(("m", info.m))
    _emit(pairs, args.format)
    return 0


_VARIANTS = {"1": Polarity.ONE, "0": Polarity.ZERO}


def _cmd_gen(args) -> int:
    kind, k = args.kind, args.k
    if args.m < 1:
        raise EOError(f"--m must be >= 1, got {args.m}")
    if args.m > 1 and kind != "kernel":
        raise EOError(f"--m applies to kernel only, not {kind}")
    pol = _VARIANTS[args.variant]
    try:
        if kind == "hadamard":
            sig = hadamard_code(k, pol)
        elif kind == "butterfly":
            sig = butterfly(k)
        else:  # balanced, wing and kernel are the balanced codes
            sig = m_multiple(balanced_code(k, pol), args.m)
    except ValueError as exc:  # k below the family's least order
        raise EOError(f"{kind} --k {k}: {exc}") from exc
    sys.stdout.write(signature_to_text(sig))
    return 0


def _cmd_gadget(args) -> int:
    left = signature_from_text(_read(args.left))
    right = signature_from_text(_read(args.right))
    pairs = []
    if args.pairs:
        for chunk in args.pairs.split(","):
            i, _, j = chunk.partition(":")
            try:
                pairs.append((int(i), int(j)))
            except ValueError:
                raise EOError(f"bad pair {chunk!r}; expected i:j") from None
    try:
        result = engine.gadget_demo_hardness(left, right, pairs)
    except IndexError as exc:
        raise EOError(f"bad pairs {args.pairs!r}: {exc}") from exc
    print(f"# arity {result.arity}")
    for row in sorted(result.values):
        print(f"{bits_str(row)} {result.values[row]}")
    return 0


def _cmd_census(args) -> int:
    if args.arity < 0 or args.arity % 2:
        raise EOError(f"census needs an even arity >= 0, got {args.arity}")
    if args.max_support is not None and args.max_support < 0:
        raise EOError(f"--max-support must be >= 0, got {args.max_support}")
    total = agree = kernels = 0
    trivial_expected = 0
    for f in enumerate_eo_supports(args.arity, args.max_support):
        total += 1
        direct = direct_d1_kernel(f) if f.rows else False
        fast = is_d1_kernel(f)
        if direct == fast:
            agree += 1
        if fast:
            kernels += 1
        if len(f.rows) == 3:
            ones, zeros = delta_factors(f)
            if ones and not zeros:
                trivial_expected += 1
    pairs = [
        ("supports", total),
        ("agree", agree),
        ("disagree", total - agree),
        ("kernels", kernels),
        ("trivial_clause_matches", trivial_expected),
    ]
    _emit(pairs, args.format)
    return 0 if total == agree and kernels == trivial_expected else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="eocount",
        description="Count restricted Eulerian orientations and classify "
        "the tractable signature families.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_format(p):
        p.add_argument("--format", choices=("human", "kv"), default="human")

    p = sub.add_parser("solve", help="count an instance file")
    p.add_argument("file")
    p.add_argument("--method", choices=("auto", "brute", "affine", "chain"), default="auto")
    p.add_argument("--trace", action="store_true")
    add_format(p)
    p.set_defaults(func=_cmd_solve)

    p = sub.add_parser("verify", help="cross-check the chosen solver against the exact contraction count")
    p.add_argument("file")
    add_format(p)
    p.set_defaults(func=_cmd_verify)

    p = sub.add_parser("classify", help="class membership report for a signature file")
    p.add_argument("file")
    add_format(p)
    p.set_defaults(func=_cmd_classify)

    p = sub.add_parser("gen", help="emit one of the standard signature families")
    p.add_argument("kind", choices=("hadamard", "balanced", "butterfly", "wing", "kernel"))
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--variant", choices=tuple(_VARIANTS), default="1")
    p.add_argument("--m", type=int, default=1)
    p.set_defaults(func=_cmd_gen)

    p = sub.add_parser("gadget", help="connect two signatures through disequalities")
    p.add_argument("--left", required=True)
    p.add_argument("--right", required=True)
    p.add_argument("--pairs", default="")
    p.set_defaults(func=_cmd_gadget)

    p = sub.add_parser("census", help="exhaustive kernel census over EO supports")
    p.add_argument("--arity", type=int, default=4)
    p.add_argument("--max-support", type=int, default=None)
    add_format(p)
    p.set_defaults(func=_cmd_census)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        status = args.func(args)
        sys.stdout.flush()  # a closed pipe raises here, not at exit
        return status
    except EOError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except BrokenPipeError:
        # The reader has gone (``eocount ... | head``): stop with no
        # traceback, and point stdout at devnull so that the flush at exit
        # does not raise again, as the SIGPIPE note of the signal docs says.
        try:
            os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        except OSError:  # stdout is no file (io.UnsupportedOperation)
            pass
        return 1


if __name__ == "__main__":
    sys.exit(main())
