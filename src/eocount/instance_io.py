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

Signature blocks use the signature text format; `#` comments and blank
lines are ignored everywhere (a blank line ends a signature block).
"""

from __future__ import annotations

from .engine import Instance
from .errors import FormatError
from .signatures import Signature, signature_from_text, signature_to_text


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


def _endpoint(token: str, lineno: int):
    v, dot, slot = token.rpartition(".")
    if not dot or not slot.isdigit():
        raise FormatError(f"line {lineno}: bad endpoint {token!r}")
    return v, int(slot)


def instance_from_text(text: str) -> Instance:
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
            signatures[block_name] = signature_from_text("\n".join(block_lines))
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
            edges.append((_endpoint(parts[0], lineno), _endpoint(parts[1], lineno)))
        else:
            raise FormatError(f"line {lineno}: content before any section")
    close_block()
    for v, name in vertices:
        if name not in signatures:
            raise FormatError(f"vertex {v} references unknown signature {name!r}")
    return Instance(signatures, tuple(vertices), tuple(edges))
