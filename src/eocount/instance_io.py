"""Text format for #EO instances.

Three sections::

    [signatures]
    f2:
    1100
    1010
    1001

    [vertices]
    v1 f2

    [edges]
    v1.1 v1.2

Signature blocks use the signature text format.  `#` starts a comment; a
comment-only line is ignored, and only a blank line ends a signature block.
"""

from __future__ import annotations

from .engine import Instance
from .errors import FormatError
from .signatures import _signature_of, signature_to_text


def instance_to_text(inst: Instance) -> str:
    out = ["[signatures]"]
    for name in sorted(inst.signatures):
        out.append(f"{name}:")
        out.append(signature_to_text(inst.signatures[name]).rstrip("\n"))
        out.append("")
    out.append("[vertices]")
    for v, name in inst.vertices:
        out.append(f"{v} {name}")
    out.append("")
    out.append("[edges]")
    for (va, sa), (vb, sb) in inst.edges:
        out.append(f"{va}.{sa} {vb}.{sb}")
    return "\n".join(out) + "\n"


def _endpoint(token: str, lineno: int) -> None:
    """Raise on a token that is not ``vertex.slot``."""
    _, dot, slot = token.rpartition(".")
    if not dot or not slot.isdecimal():
        raise FormatError(f"line {lineno}: bad endpoint {token!r}")


def instance_from_text(text: str) -> Instance:
    section = None
    signatures: dict = {}
    vertices: list = []
    edges: list = []
    block_name = None
    block: list = []  # (line number, row) pairs of the open signature block

    def close_block():
        nonlocal block_name, block
        if block_name is not None:
            if not block:
                raise FormatError(f"signature block {block_name!r} is empty")
            signatures[block_name] = _signature_of(block)
        block_name, block = None, []

    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw[: raw.index("#")].strip() if "#" in raw else raw.strip()
        if not line:
            if section == "signatures" and "#" not in raw:
                close_block()  # a blank line ends a block, a comment line does not
            continue
        if line[0] == "[" and line[-1] == "]":
            close_block()
            section = line[1:-1].strip().lower()
            if section not in ("signatures", "vertices", "edges"):
                raise FormatError(f"line {lineno}: unknown section {section!r}")
        elif section == "signatures":
            if line[-1] == ":":
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
                block.append((lineno, line))
        elif section == "edges":
            parts = line.split()
            if len(parts) != 2:
                raise FormatError(f"line {lineno}: expected two endpoints")
            va, dot_a, sa = parts[0].rpartition(".")
            vb, dot_b, sb = parts[1].rpartition(".")
            if not (dot_a and sa.isdecimal() and dot_b and sb.isdecimal()):
                _endpoint(parts[0], lineno)
                _endpoint(parts[1], lineno)
            edges.append(((va, int(sa)), (vb, int(sb))))
        elif section == "vertices":
            parts = line.split()
            if len(parts) != 2:
                raise FormatError(f"line {lineno}: expected '<vertex> <signature>'")
            vertices.append(tuple(parts))
        else:
            raise FormatError(f"line {lineno}: content before any section")
    close_block()
    for v, name in vertices:
        if name not in signatures:
            raise FormatError(f"vertex {v} references unknown signature {name!r}")
    return Instance(signatures, tuple(vertices), tuple(edges))
