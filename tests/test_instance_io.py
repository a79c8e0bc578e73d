"""The instance parser against the reference parser in ``helpers``, on
planted texts and on line mutations of them; the pattern pass against the
line loop; and the names the writer refuses."""

import random
import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from eocount import (
    NEQ2, Instance, complement, instance_from_text, instance_io, instance_to_text, tensor,
    validate,
)
from eocount.errors import FormatError
from eocount.hadamard import basic_kernel, butterfly
from eocount.signatures import Signature, m_multiple, signature_from_text

from helpers import complemented, planted_instance, random_affine_eo, ref_instance_from_text

CHAIN_POOL = [
    basic_kernel(2),
    basic_kernel(3),
    NEQ2,
    butterfly(1),
    m_multiple(basic_kernel(2), 2),
    tensor(NEQ2, basic_kernel(1)),
]
_rng = random.Random(1201)
AFFINE_POOL = [NEQ2] + [random_affine_eo(_rng, h) for h in (1, 2, 2, 3, 3)]
MIXED_POOL = CHAIN_POOL + [complement(f) for f in CHAIN_POOL]
POOLS = {"chain": CHAIN_POOL, "affine": AFFINE_POOL, "mixed": MIXED_POOL}

# the errors raised inside a signature block; the reference numbers them by
# the line in the block, or not at all
BLOCK_ERROR = re.compile(
    r"line (\d+): (bad arity header .*|not a 0/1 string: .*|rows have unequal lengths)"
)


def planted_text(pool: str, seed: int, edges: int) -> str:
    return instance_to_text(planted_instance(random.Random(seed), POOLS[pool], edges))


def outcome(parse, text: str):
    try:
        return parse(text)
    except FormatError as e:
        return str(e)


def row_at(text: str, lineno: int) -> str:
    return text.splitlines()[lineno - 1].split("#", 1)[0].strip()


@pytest.mark.parametrize("pool", sorted(POOLS))
def test_planted_texts_parse_as_the_reference(pool):
    for seed in range(6):
        text = planted_text(pool, seed, 4 + 9 * seed)
        inst = instance_from_text(text)
        assert inst == ref_instance_from_text(text)
        assert instance_to_text(inst) == text


def test_written_texts_take_the_pattern_pass(monkeypatch):
    # every text instance_to_text writes of a planted instance, of 1 to 200
    # vertices, is read without the line loop, to the reference's instance
    def line_loop(text):
        raise AssertionError(f"read by the line loop: {text[:200]!r}")

    monkeypatch.setattr(instance_io, "_parse_lines", line_loop)
    for pool in sorted(POOLS):
        rng = random.Random(f"layout/{pool}")
        sizes, edges = [], 1
        while True:
            inst = planted_instance(rng, POOLS[pool], edges)
            if len(inst.vertices) > 200:
                break
            for case in (inst, complemented(inst)):
                text = instance_to_text(case)
                assert instance_from_text(text) == ref_instance_from_text(text)
            sizes.append(len(inst.vertices))
            edges += 1 + edges // 4
        assert sizes[0] == 1 and sizes[-1] > 150


def test_writer_layout():
    inst = Instance({"n": NEQ2, "e": Signature(3), "o": Signature(0, {()})},
                    (("u", "n"), ("c", "o")), ((("u", 1), ("u", 2)),))
    assert instance_to_text(inst) == (
        "[signatures]\ne:\narity 3\n\nn:\n01\n10\n\no:\n-\n\n"
        "[vertices]\nu n\nc o\n\n[edges]\nu.1 u.2\n")
    assert instance_to_text(Instance({}, (), ())) == "[signatures]\n[vertices]\n\n[edges]\n"


HEAD = "[signatures]\nn:\n01\n10\n\n"
BODY = "[vertices]\nu n\n\n[edges]\nu.1 u.2\n"


@pytest.mark.parametrize("text", [
    "[signatures]\n[vertices]\n\n[edges]\n",  # an empty instance
    HEAD + "[vertices]\n\n[edges]\n",
    HEAD + BODY.replace("u.1 u.2", "u.01 u.2"),
    HEAD + BODY.replace("u", "v.1"),
    # one line or character off the writer's layout
    HEAD + "xx" + BODY,
    HEAD[:-1] + BODY,
    HEAD + "\n" + BODY,
    HEAD + BODY.replace("u n\n\n", "u n\n"),
    HEAD + BODY[:-1],
    HEAD + "n:\n01\n\n" + BODY,
    HEAD.replace("01", "011") + BODY,
    HEAD.replace("10", "1") + BODY,
    HEAD.replace("n:", "x n:") + BODY,
    HEAD.replace("n:", "n#x:") + BODY,
    HEAD + BODY.replace("u n", "u n#x"),
    HEAD + BODY.replace("u.1", "u#.1"),
    HEAD + BODY.replace("u.2", "u.2#"),
    HEAD.replace("n:", "n]:") + BODY.replace("u", "[u").replace(" n", " n]"),
    *(text
      for c in "\x1c\x1f\x85\xa0\u2028\r\t"
      for text in (HEAD + f"m{c}n:\n01\n10\n\n" + BODY,
                   HEAD + BODY.replace("u n", f"u{c}v n"),
                   HEAD + BODY.replace("u.1", f"u{c}v.1"))),
    HEAD + BODY.replace("u n", "u m"),
    HEAD + BODY.replace("u.2", "u.\u0663"),
])
def test_layout_lookalikes_read_as_by_the_line_loop(text):
    # each is off the writer's layout in a way that one check of the
    # pattern pass must catch, so it reads as the line loop reads it
    assert outcome(instance_from_text, text) == outcome(instance_io._parse_lines, text)


@pytest.mark.parametrize("name", ["", "a b", "x#y"])
@pytest.mark.parametrize("where", ["signature", "vertex"])
def test_writer_refuses_names_it_cannot_read_back(where, name):
    sig, vid = (name, "u") if where == "signature" else ("n", name)
    inst = Instance({sig: NEQ2}, ((vid, sig),), (((vid, 1), (vid, 2)),))
    with pytest.raises(ValueError, match=f"^cannot write {re.escape(repr(name))}:"):
        instance_to_text(inst)


def test_writer_names_the_first_bad_name_in_text_order():
    inst = Instance({"z z": NEQ2, "a": NEQ2, "b\tb": NEQ2},
                    (("u#", "a"), ("w", "z z")), ())
    with pytest.raises(ValueError, match=r"^cannot write 'b\\tb':"):
        instance_to_text(inst)
    inst = Instance({"a": NEQ2}, (("u", "a"), ("w\u2028", "a"), ("u#", "a")), ())
    with pytest.raises(ValueError, match=r"^cannot write 'w\\u2028':"):
        instance_to_text(inst)


def test_writer_refuses_a_vertex_line_that_reads_as_a_header():
    # each token alone is legal; the pair makes the line `[u n]`
    inst = Instance({"n]": NEQ2}, (("[u", "n]"),), ((("[u", 1), ("[u", 2)),))
    with pytest.raises(ValueError, match=r"^cannot write vertex '\[u' with "
                       r"signature 'n\]': its line '\[u n\]' would read as a "
                       "section header$"):
        instance_to_text(inst)
    inst = Instance({"n]": NEQ2, "n": NEQ2},
                    (("a", "n"), ("[", "n"), ("u", "n]"), ("[v", "n]"), ("[w", "n]")), ())
    with pytest.raises(ValueError, match=r"^cannot write vertex '\[v' "):
        instance_to_text(inst)
    for vid, sig in (("[u", "n"), ("u", "n]"), ("[u]", "n"), ("u", "[n]")):
        inst = Instance({sig: NEQ2}, ((vid, sig),), (((vid, 1), (vid, 2)),))
        text = instance_to_text(inst)
        assert instance_from_text(text) == inst == ref_instance_from_text(text)


@pytest.mark.parametrize("inst, bad", [
    (Instance({"n": NEQ2}, ((1, "n"),), (((1, 1), (1, 2)),)), "1"),
    (Instance({"n": NEQ2}, (("u", "n"), ("w", 2)), ()), "2"),
    (Instance({3: NEQ2}, (("u", 3),), ()), "3"),
    # names that are not all strings are ordered by their str
    (Instance({"n": NEQ2, 5: NEQ2, 40: NEQ2}, (("u", "n"),), ()), "40"),
    # the first in text order, whether it is not a str or holds a space
    (Instance({"n n": NEQ2}, ((6, "n n"),), ()), "'n n'"),
    (Instance({"n": NEQ2}, (("u", "n"), (7, "n"), ("w w", "n")), ()), "7"),
    (Instance({"n": NEQ2}, (("u v", "n"), (8, "n")), ()), "'u v'"),
    (Instance({"n": NEQ2}, ((b"u", "n"),), ()), "b'u'"),
])
def test_writer_refuses_names_and_ids_that_are_not_str(inst, bad):
    # the reader returns str, so they could not round-trip
    with pytest.raises(ValueError, match=f"^cannot write {re.escape(bad)}: a "
                       "signature name or vertex id must be a nonempty str"):
        instance_to_text(inst)


@pytest.mark.parametrize("edges, bad", [
    # (1, 1) names no vertex, so validate refuses the instance, yet its
    # text `1.1` would name the vertex "1"
    ((((1, 1), ("1", 2)),), "(1, 1)"),
    ((((None, 1), ("1", 2)),), "(None, 1)"),
    (((("1", 1), ("1", "2")),), "('1', '2')"),
    (((("1", 1), ("1", 2.0)),), "('1', 2.0)"),
    # the first in text order
    (((("1", 1), ("1", 2)), (("1", 1.5), (b"1", 2))), "('1', 1.5)"),
])
def test_writer_refuses_endpoints_that_are_not_a_str_and_an_int(edges, bad):
    inst = Instance({"n": NEQ2}, (("1", "n"),), edges)
    with pytest.raises(ValueError, match=f"^cannot write edge endpoint {re.escape(bad)}: "
                       "its vertex must be a str and its slot an int$"):
        instance_to_text(inst)
    # a bad name or id comes first in text order
    with pytest.raises(ValueError, match="^cannot write 'u v':"):
        instance_to_text(Instance({"n": NEQ2}, (("u v", "n"),), edges))


def test_writer_writes_slot_true_as_1():
    inst = Instance({"n": NEQ2}, (("u", "n"),), ((("u", True), ("u", 2)),))
    assert not any(validate(inst))
    text = instance_to_text(inst)
    assert text.endswith("[edges]\nu.1 u.2\n")
    assert instance_from_text(text) == inst == ref_instance_from_text(text)


@pytest.mark.parametrize("name", ["[s", "s:", "v.1"])
def test_odd_names_round_trip(name):
    inst = Instance({name: NEQ2, "n": NEQ2}, ((name, "n"), ("u", name)),
                    (((name, 1), ("u", 2)), (("u", 1), (name, 2))))
    text = instance_to_text(inst)
    assert instance_from_text(text) == inst == ref_instance_from_text(text)


# -- line mutations -------------------------------------------------------------

BAD_TOKENS = ["x", "v1", "12", "v1.", "v1.a", "v1.-1", "v1.+2", "v1.1_0", ".2",
              "v1.0", "v1.99", "1.2.3", "v 1.2", "v1.\u00b2",
              # where re's \s and \d and str.split and str.isdecimal could differ
              "v\xa01.2", "v\x1f1.2", "v1.\u0663"]
ROWS = ["01", "10", "0110", "1a", "012", "-", "", "arity 2", "arity 0",
        "arity x", "arity \u00b2", "arity", "arity 2 3", "f3:", ":", "0\u300001"]


@pytest.mark.parametrize("token", BAD_TOKENS)
def test_endpoint_tokens_parse_as_the_reference(token):
    head = "[signatures]\nn:\n01\n10\n\n[vertices]\nu n\n\n[edges]\n"
    for line in (f"{token} u.2", f"u.1 {token}", f"{token} {token}"):
        text = head + line + "\n"
        assert outcome(instance_from_text, text) == outcome(ref_instance_from_text, text)


@st.composite
def mutated_texts(draw, comment_lines: bool):
    """A planted text with a few line mutations; ``comment_lines`` adds
    comment-only lines, but only outside the signatures section, where the
    reference ignores them too."""
    text = planted_text(draw(st.sampled_from(sorted(POOLS))),
                        draw(st.integers(0, 40)), draw(st.integers(1, 12)))
    lines = text.splitlines()
    for _ in range(draw(st.integers(0, 4))):
        i = draw(st.integers(0, len(lines) - 1))
        kind = draw(st.sampled_from(
            ["comment", "tabs", "blank", "drop", "row", "token", "extra", "slot",
             "section"]))
        line = lines[i]
        if kind == "comment":
            if line.strip():  # on a blank line it would make a comment line
                lines[i] = line + draw(st.sampled_from(["#", " # c", "\t#x # y"]))
        elif kind == "tabs":
            lines[i] = "\t " + line + " \t"
        elif kind == "blank":
            lines.insert(i, draw(st.sampled_from(["", "  ", "\t"])))
        elif kind == "drop":
            del lines[i]
        elif kind == "row":
            lines.insert(i, draw(st.sampled_from(ROWS)))
        elif kind == "token":
            parts = line.split() or [""]
            parts[-draw(st.booleans())] = draw(st.sampled_from(BAD_TOKENS))
            lines[i] = " ".join(parts)
        elif kind == "extra":
            lines[i] = line + " " + draw(st.sampled_from(["v1.1", "s0", "x"]))
        elif kind == "slot":
            parts = line.split() or [""]
            k = -draw(st.booleans())  # the first token or the last
            parts[k] = parts[k].rpartition(".")[0] + "." + draw(
                st.sampled_from(["0", "99", "a", "", "-1"]))
            lines[i] = " ".join(parts)
        else:
            lines[i] = draw(st.sampled_from(["[Edges]", "[ vertices ]", "[bogus]", "[]"]))
        if not lines:
            lines = [""]
    if comment_lines:
        section = None
        spots = []
        for i, line in enumerate(lines):
            row = line.split("#", 1)[0].strip()
            if row[:1] == "[" and row[-1:] == "]":
                section = row[1:-1].strip().lower()
            if section != "signatures":
                spots.append(i + 1)
        for i in sorted(draw(st.lists(st.sampled_from(spots), max_size=3)),
                        reverse=True) if spots else ():
            lines.insert(i, draw(st.sampled_from(["#", "  # a note", "\t#"])))
    newline = draw(st.sampled_from(["\n", "\r\n"]))
    return newline.join(lines) + draw(st.sampled_from(["", newline]))


@settings(max_examples=500, deadline=None)
@given(mutated_texts(comment_lines=True))
def test_mutated_texts_parse_as_the_reference(text):
    got, want = outcome(instance_from_text, text), outcome(ref_instance_from_text, text)
    if isinstance(got, str) and (m := BLOCK_ERROR.fullmatch(got)):
        # the same error, now at the line of the file that holds it
        assert re.sub(r"^line \d+: ", "", want) == m.group(2)
        row = row_at(text, int(m.group(1)))
        if m.group(2).startswith("rows"):
            assert row.strip("01") in ("", "-")
        else:
            assert m.group(2).endswith(repr(row))
    else:
        assert got == want


def _without_comment_lines(text: str):
    """The text less its comment-only lines, and a map from its line
    numbers to those of ``text``."""
    kept, where = [], {}
    for n, line in enumerate(text.splitlines(), 1):
        if "#" in line and not line.split("#", 1)[0].strip():
            continue
        kept.append(line)
        where[len(kept)] = n
    return "\n".join(kept) + "\n", where


@settings(max_examples=200, deadline=None)
@given(mutated_texts(comment_lines=False), st.data())
def test_comment_lines_change_nothing(text, data):
    # comment-only lines anywhere, inside signature blocks too
    lines = text.splitlines()
    for _ in range(data.draw(st.integers(1, 4))):
        lines.insert(data.draw(st.integers(0, len(lines))), "  # note")
    commented = "\n".join(lines) + "\n"
    plain, where = _without_comment_lines(commented)
    want = outcome(instance_from_text, plain)
    if isinstance(want, str):
        want = re.sub(r"^line (\d+):", lambda m: f"line {where[int(m.group(1))]}:", want)
    assert outcome(instance_from_text, commented) == want


# -- the two cases the reference gets wrong --------------------------------------

TAIL = "\n[vertices]\nu f\n\n[edges]\nu.1 u.2\n"


def test_block_errors_name_the_file_line():
    text = "[signatures]\nf:\n01\n10\n\ng:\narity x\n" + TAIL
    assert outcome(ref_instance_from_text, text) == "line 1: bad arity header 'arity x'"
    with pytest.raises(FormatError, match=r"^line 7: bad arity header 'arity x'$"):
        instance_from_text(text)
    for rows, want in (("01\n1a\n", "line 4: not a 0/1 string: '1a'"),
                       ("01\n10\n110  # c\n", "line 5: rows have unequal lengths")):
        with pytest.raises(FormatError, match=f"^{re.escape(want)}$"):
            instance_from_text("[signatures]\nf:\n" + rows + TAIL)
    # on its own, a signature text numbers its own lines
    with pytest.raises(FormatError, match=r"^line 3: not a 0/1 string: '1a'$"):
        signature_from_text("01\n\n1a\n")
    with pytest.raises(FormatError, match=r"^line 2: rows have unequal lengths$"):
        signature_from_text("110\n10\n")


def test_comment_line_keeps_a_block_open():
    text = "[signatures]\nf:\n01\n# c\n10\n" + TAIL
    want = "line 5: row outside a signature block"
    assert outcome(ref_instance_from_text, text) == want
    inst = instance_from_text(text)
    assert inst.signatures == {"f": NEQ2}
    assert instance_from_text(text.replace("# c", "  \t# c")) == inst
    # a blank line still ends the block
    with pytest.raises(FormatError, match=f"^{want}$"):
        instance_from_text(text.replace("# c", ""))
    assert signature_from_text("01\n# c\n10\n") == Signature.from_strings(["01", "10"])
