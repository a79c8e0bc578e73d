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

Text laid out exactly as ``instance_to_text`` writes it is read by one
compiled pattern per section (``_parse_layout``); any other text, and every
text with an error, goes through the line loop (``_parse_lines``), the only
code that raises ``FormatError``.  Both give the same instance.
"""

from __future__ import annotations

import re
from itertools import chain, repeat
from operator import itemgetter

from .engine import Instance
from .errors import FormatError
from .signatures import Signature, _signature_of, signature_to_text


# The block heads, then the vertex lines, as instance_to_text writes them:
# each reads back as written when no name or id in it is empty or holds
# whitespace (re's \s is str.isspace, which takes in every line break of
# str.splitlines) or `#`, and no vertex line both starts with `[` and ends
# with `]`, which the reader would take for a section header.
_READABLE = re.compile(r"(?:[^\s#]+:\n)*(?:(?!\[\S* \S*\]\n)[^\s#]+ [^\s#]+\n)*")


def instance_to_text(inst: Instance) -> str:
    """The instance in the text format.

    Raises ValueError when the text could not be read back as this
    instance: on a signature name, vertex id or vertex's signature name
    that is not a str, or is empty or holds whitespace or `#` (naming the
    first one in text order), on a vertex whose id starts with `[` and
    whose signature name ends with `]` (naming the vertex), and on an edge
    endpoint whose vertex is not a str or whose slot is not an int (naming
    the first one).  A slot ``True`` is written as 1, which reads back
    equal.  An edge endpoint that names no vertex is written as it is; it
    leaves the instance invalid whatever its text."""
    # joining and concatenating refuse a name or id that is not a str, and
    # `slot | 0` a slot that is not an int (and makes True 1)
    try:
        names = sorted(inst.signatures)
        heads = [name + ":\n" for name in names]
        vertices = ("\n".join(map(" ".join, inst.vertices)) + "\n"
                    if inst.vertices else "")
        edges = [f"{va + '.'}{sa | 0} {vb + '.'}{sb | 0}\n"
                 for (va, sa), (vb, sb) in inst.edges]
    except TypeError:
        vertices = None
    if vertices is None or not _READABLE.fullmatch("".join(heads) + vertices):
        raise ValueError(_unwritable(inst))
    blocks = [head + signature_to_text(inst.signatures[name]) + "\n"
              for head, name in zip(heads, names)]
    return ("[signatures]\n" + "".join(blocks) + "[vertices]\n" + vertices
            + "\n[edges]\n" + "".join(edges))


def _unwritable(inst: Instance) -> str:
    """Why ``instance_to_text`` refuses ``inst``: its first name or id in
    text order that does not read back (signature names sorted by their
    ``str``, which is their order when they are all strings), else its
    first vertex line that reads as a header, else its first edge endpoint
    whose vertex is not a str or whose slot is not an int."""
    for t in chain(sorted(inst.signatures, key=str),
                   chain.from_iterable(inst.vertices)):
        if not isinstance(t, str) or t.split() != [t] or "#" in t:
            return (f"cannot write {t!r}: a signature name or vertex id must "
                    "be a nonempty str and hold no whitespace or '#'")
    for v, name in inst.vertices:
        if v[0] == "[" and name[-1] == "]":
            return (f"cannot write vertex {v!r} with signature {name!r}: its "
                    f"line '{v} {name}' would read as a section header")
    end = next((v, slot) for a, b in inst.edges for v, slot in (a, b)
               if not (isinstance(v, str) and isinstance(slot, int)))
    return (f"cannot write edge endpoint {end!r}: its vertex must be a str and "
            "its slot an int")


# The lines of instance_to_text's layout, whose names and ids hold neither
# whitespace nor `#` (see above); a vertex id starting with `[` could make
# its line a section header, so it is left to the line loop.
_BLOCK = re.compile(r"^([^\s#]+):\n((?:[01]+\n)+)\n", re.M)  # name, rows
_VERTEX = re.compile(r"^([^\s#\[][^\s#]*) ([^\s#]+)\n", re.M)
_EDGE = re.compile(r"^([^\s#]+)\.([0-9]+) ([^\s#]+)\.([0-9]+)\n", re.M)


def _whole_lines(pattern: re.Pattern, section: str) -> list | None:
    """``pattern.findall(section)`` when every line of ``section``, ended by
    its newline, is one match; None otherwise."""
    found = pattern.findall(section)
    if len(found) != section.count("\n") or section[-1:] not in ("", "\n"):
        return None
    return found


def _parse_layout(text: str) -> Instance | None:
    """The instance of a text laid out exactly as ``instance_to_text``
    writes it, with no `arity N` or `-` row; None for any other text.

    The text splits at its three header lines, and each section is read by
    its pattern.  The result stands only when every line of every section
    is matched, each block's rows have one width, no signature name repeats
    and every vertex's signature exists.  The line loop raises nothing on
    such a text and reads its lines the same way, so both return equal
    instances."""
    head, _, rest = text.partition("[vertices]\n")
    if not head.startswith("[signatures]\n"):
        return None
    sig_text = head[len("[signatures]\n"):]
    vert_text, found, edge_text = rest.partition("\n[edges]\n")
    if not found or sig_text[-1:] not in ("", "\n"):
        return None
    blocks = _BLOCK.findall(sig_text)
    signatures, lines = {}, 0
    for name, rows in blocks:
        rows = rows[::-1].split()  # each row reversed: variable 1 in bit 0
        if len(set(map(len, rows))) != 1:
            return None
        signatures[name] = Signature._packed(
            len(rows[0]), frozenset(map(int, rows, repeat(2))))
        lines += len(rows) + 2  # the name line, the rows and a blank line
    if lines != sig_text.count("\n") or len(signatures) != len(blocks):
        return None
    vertices = _whole_lines(_VERTEX, vert_text)
    edges = _whole_lines(_EDGE, edge_text)
    if (vertices is None or edges is None
            or not signatures.keys() >= set(map(itemgetter(1), vertices))):
        return None
    return Instance(signatures, tuple(vertices), tuple(
        ((va, int(sa)), (vb, int(sb))) for va, sa, vb, sb in edges))


def _endpoint(token: str, lineno: int) -> None:
    """Raise on a token that is not ``vertex.slot``."""
    _, dot, slot = token.rpartition(".")
    if not dot or not slot.isdecimal():
        raise FormatError(f"line {lineno}: bad endpoint {token!r}")


def instance_from_text(text: str) -> Instance:
    """The instance of a text in the format above; raises ``FormatError``
    at the first line in error."""
    return _parse_layout(text) or _parse_lines(text)


def _parse_lines(text: str) -> Instance:
    """``instance_from_text`` for any text, read line by line."""
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
