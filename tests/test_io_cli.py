import io
import os
import subprocess
import sys
from contextlib import redirect_stdout
from pathlib import Path

import pytest

import eocount
from eocount import (
    SCALAR_ONE,
    SCALAR_ZERO,
    Instance,
    Signature,
    instance_from_text,
    instance_to_text,
)
from eocount.cli import _emit, main
from eocount.errors import FormatError

F2 = Signature.from_strings(["1100", "1010", "1001"])

INSTANCE_TEXT = """\
[signatures]
f2:
1100
1010
1001

[vertices]
v1 f2
v2 f2

[edges]
v1.1 v2.2
v1.2 v2.1
v1.3 v2.3
v1.4 v2.4
"""


def run_cli(argv):
    buf = io.StringIO()
    with redirect_stdout(buf):
        code = main(argv)
    return code, buf.getvalue()


def test_instance_roundtrip():
    inst = instance_from_text(INSTANCE_TEXT)
    assert inst.labels() == {"v1": F2, "v2": F2}
    assert len(inst.edges) == 4
    again = instance_from_text(instance_to_text(inst))
    assert again.labels() == inst.labels()
    assert sorted(map(sorted, again.edges)) == sorted(map(sorted, inst.edges))


def test_instance_roundtrip_with_scalar_labels():
    inst = Instance(
        signatures={"f2": F2, "one": SCALAR_ONE, "zero": SCALAR_ZERO},
        vertices=(("v1", "f2"), ("c1", "one"), ("c0", "zero")),
        edges=((("v1", 1), ("v1", 2)), (("v1", 3), ("v1", 4))),
    )
    again = instance_from_text(instance_to_text(inst))
    assert again == inst


def test_instance_parse_errors():
    with pytest.raises(FormatError):
        instance_from_text("[vertices]\nv1 f2\n")
    with pytest.raises(FormatError):
        instance_from_text(INSTANCE_TEXT.replace("v1.1 v2.2", "v1x1 v2.2"))
    with pytest.raises(FormatError):
        instance_from_text(INSTANCE_TEXT.replace("v1 f2", "v1 missing"))
    twice = INSTANCE_TEXT.replace("[vertices]", "f2:\n0011\n0101\n0110\n\n[vertices]")
    with pytest.raises(FormatError, match=r"^line 7: duplicate signature name 'f2'$"):
        instance_from_text(twice)


def test_cli_solve(tmp_path):
    path = tmp_path / "inst.eo"
    path.write_text(INSTANCE_TEXT)
    code, out = run_cli(["solve", str(path), "--format", "kv"])
    assert code == 0
    assert "count=2" in out
    assert "method=chain_d1" in out


def test_cli_solve_methods(tmp_path):
    path = tmp_path / "inst.eo"
    path.write_text(INSTANCE_TEXT)
    for method in ("auto", "brute", "chain"):
        code, out = run_cli(["solve", str(path), "--method", method, "--format", "kv"])
        assert code == 0 and "count=2" in out


def test_cli_verify(tmp_path):
    path = tmp_path / "inst.eo"
    path.write_text(INSTANCE_TEXT)
    code, out = run_cli(["verify", str(path), "--format", "kv"])
    assert code == 0
    assert "agreement=yes" in out


def test_cli_prints_counts_past_the_int_to_str_digit_limit(tmp_path):
    # 2^15000 has 4,516 digits; Python 3.11 refuses str() past 4,300
    buf = io.StringIO()
    with redirect_stdout(buf):
        _emit([("count", 1 << 15000)], "kv")
        _emit([("count", 1 << 15000), ("method", "affine")], "human")
    kv, human, method = buf.getvalue().splitlines()
    assert kv.startswith("count=28179608") and len(kv) == len("count=") + 4516
    assert human.split() == ["count", kv[len("count="):]]
    assert method.split() == ["method", "affine"]
    n = 15000  # disjoint NEQ2 two-cycles, each oriented two ways
    path = tmp_path / "cycles.eo"
    path.write_text(
        "[signatures]\nneq:\n01\n10\n\n[vertices]\n"
        + "".join(f"a{i} neq\nb{i} neq\n" for i in range(n)) + "\n[edges]\n"
        + "".join(f"a{i}.1 b{i}.2\na{i}.2 b{i}.1\n" for i in range(n)))
    code, out = run_cli(["solve", str(path), "--format", "kv"])
    assert code == 0 and out.splitlines() == [kv, "method=affine"]
    code, out = run_cli(["verify", str(path), "--format", "kv"])
    assert code == 0
    assert out.splitlines() == [f"affine={kv[6:]}", f"brute={kv[6:]}",
                                "agreement=yes"]


def test_cli_classify(tmp_path):
    sig = tmp_path / "f2.sig"
    sig.write_text("1100\n1010\n1001\n")
    code, out = run_cli(["classify", str(sig), "--format", "kv"])
    assert code == 0
    assert "d1_kernel=true" in out and "d0_kernel=false" in out


def test_cli_gen_kernel():
    code, out = run_cli(["gen", "kernel", "--k", "2"])
    assert code == 0
    assert set(out.split()) == {"1100", "1010", "1001"}


def test_cli_gen_classify_roundtrip(tmp_path):
    """Every kernel `gen` emits is classified, up to arity 192."""
    path = tmp_path / "kernel.sig"
    for k in range(2, 7):
        for m in (1, 2, 3):
            code, out = run_cli(["gen", "kernel", "--k", str(k), "--m", str(m)])
            assert code == 0
            path.write_text(out)
            code, out = run_cli(["classify", str(path), "--format", "kv"])
            assert code == 0
            rep = dict(line.split("=", 1) for line in out.split())
            assert rep["arity"] == str(m << k)
            assert (rep["d1"], rep["d0"], rep["d1_kernel"]) == ("true", "false", "true")
            assert rep["kind"] == ("trivial" if k == 2 else "hadamard")
            assert rep.get("k") == (None if k == 2 else str(k))
            assert rep["m"] == str(m)


def test_cli_gen_families():
    for args in (
        ["gen", "butterfly", "--k", "2"],
        ["gen", "wing", "--k", "2", "--variant", "0"],
        ["gen", "balanced", "--k", "2", "--variant", "1"],
        ["gen", "balanced", "--k", "3"],
        ["gen", "kernel", "--k", "3", "--m", "2"],
    ):
        code, out = run_cli(args)
        assert code == 0 and out.strip()


def test_cli_gen_wing_and_kernel_are_the_balanced_codes():
    for k in range(1, 7):
        for variant in ("0", "1"):
            balanced, wing, kernel = (
                run_cli(["gen", kind, "--k", str(k), "--variant", variant])
                for kind in ("balanced", "wing", "kernel")
            )
            assert balanced == wing == kernel
            code, out = balanced
            assert code == 0 and len(out.split()) == (1 << k) - 1


def test_cli_gadget(tmp_path):
    left = tmp_path / "f2.sig"
    left.write_text("1100\n1010\n1001\n")
    right = tmp_path / "g2.sig"
    right.write_text("0011\n0101\n0110\n")
    code, out = run_cli(
        ["gadget", "--left", str(left), "--right", str(right), "--pairs", "1:1,2:2"]
    )
    assert code == 0
    assert "0011 1" in out and out.count("\n") == 6


@pytest.mark.parametrize(
    "pairs", ["1:x", "x", "1:2:3", "1:-1", "9:1", "0:1", "1:1,1:2", "1:1,2:1"]
)
def test_cli_gadget_bad_pairs_are_errors(tmp_path, capsys, pairs):
    left = tmp_path / "f2.sig"
    left.write_text("1100\n1010\n1001\n")
    args = ["gadget", "--left", str(left), "--right", str(left), "--pairs", pairs]
    assert main(args) == 2
    assert capsys.readouterr().err.startswith("error: ")


@pytest.mark.parametrize("argv", [
    ["gen", "kernel", "--k", "2", "--m", "0"],
    ["gen", "kernel", "--k", "2", "--m", "-1"],
    ["gen", "hadamard", "--k", "2", "--m", "3"],
    ["gen", "butterfly", "--k", "2", "--m", "2"],
    # each family below its least order
    ["gen", "kernel", "--k", "0"],
    ["gen", "kernel", "--k", "0", "--variant", "0"],
    ["gen", "hadamard", "--k", "-1"],
    ["gen", "balanced", "--k", "0"],
    ["gen", "butterfly", "--k", "0"],
    ["gen", "wing", "--k", "0"],
    # above the one cap on the codes' order
    ["gen", "wing", "--k", "7"],
])
def test_cli_gen_refuses_bad_m(capsys, argv):
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith("error: ") and captured.out == ""


def test_cli_census():
    code, out = run_cli(["census", "--arity", "4", "--format", "kv"])
    assert code == 0
    assert "supports=64" in out and "disagree=0" in out


def test_cli_census_odd_arity_is_an_error(capsys):
    assert main(["census", "--arity", "3"]) == 2
    assert capsys.readouterr().err.startswith("error: ")


def test_cli_census_refuses_too_many_supports_before_enumerating(capsys):
    # arity 8 has 70 half-weight vectors, so 2^70 supports
    assert main(["census", "--arity", "8"]) == 2
    assert capsys.readouterr().err.startswith("error: ")


def test_cli_census_refuses_a_huge_census_quickly():
    # the supports of arity 20 are too many even to add up in time
    src = str(Path(eocount.__file__).parents[1])
    env = {**os.environ, "PYTHONPATH": src}
    proc = subprocess.run(
        [sys.executable, "-m", "eocount.cli", "census", "--arity", "20"],
        env=env, capture_output=True, text=True, timeout=10)
    assert proc.returncode == 2
    assert proc.stderr.startswith("error: ") and proc.stdout == ""


def test_cli_census_refuses_a_negative_max_support(capsys):
    assert main(["census", "--arity", "4", "--max-support", "-1"]) == 2
    captured = capsys.readouterr()
    assert captured.err == "error: --max-support must be >= 0, got -1\n"
    assert captured.out == ""


def test_cli_census_arity_8_with_max_support():
    code, out = run_cli(
        ["census", "--arity", "8", "--max-support", "3", "--format", "kv"]
    )
    assert code == 0
    assert "supports=57226" in out and "disagree=0" in out


def test_cli_bad_input_exit_code(tmp_path):
    bad = tmp_path / "bad.eo"
    bad.write_text("not a section\n")
    code, _ = run_cli(["solve", str(bad)])
    assert code == 2


@pytest.mark.parametrize("argv, text, want", [
    # a superscript digit passes str.isdigit but not int()
    (["solve"],
     "[signatures]\nn:\n01\n10\n\n[vertices]\na n\n\n[edges]\na.1 a.\u00b2\n",
     "error: line 10: bad endpoint 'a.\u00b2'\n"),
    (["classify"], "arity \u00b2\n",
     "error: line 1: bad arity header 'arity \u00b2'\n"),
], ids=["edge-slot", "arity-header"])
def test_cli_refuses_non_ascii_digits(tmp_path, capsys, argv, text, want):
    path = tmp_path / "input.txt"
    path.write_text(text, encoding="utf-8")
    assert main(argv + [str(path)]) == 2
    assert capsys.readouterr().err == want


DANGLING_TEXT = """\
[signatures]
neq:
01
10

[vertices]
v1 neq
v2 neq

[edges]
v1.1 v2.1
"""


@pytest.mark.parametrize("command", ["solve", "verify"])
def test_cli_refuses_an_invalid_instance_with_validate_errors(monkeypatch, capsys,
                                                              command):
    monkeypatch.setattr(sys, "stdin", io.StringIO(DANGLING_TEXT))
    assert main([command, "-"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: dangling slot v1.2; dangling slot v2.2\n"


def test_cli_missing_file_exits_2(tmp_path, capsys):
    missing = tmp_path / "missing.eo"
    assert main(["solve", str(missing)]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: cannot read {missing}: ")


def test_cli_unknown_flag_errors(tmp_path):
    with pytest.raises(SystemExit):
        main(["solve", "x", "--frobnicate"])


class _ClosedPipe(io.StringIO):
    """A standard output whose reader has gone (``| head``): writes raise."""

    def write(self, text):
        raise BrokenPipeError(32, "Broken pipe")


@pytest.mark.parametrize("argv", [
    ["census", "--arity", "4"],
    ["gen", "kernel", "--k", "6", "--m", "3"],
    ["classify", "KERNEL"],
])
def test_cli_closed_pipe_exits_1_with_no_traceback(tmp_path, monkeypatch, argv):
    path = tmp_path / "kernel.sig"
    path.write_text("1100\n1010\n1001\n")
    argv = [str(path) if a == "KERNEL" else a for a in argv]
    err = io.StringIO()
    monkeypatch.setattr(sys, "stdout", _ClosedPipe())
    monkeypatch.setattr(sys, "stderr", err)
    assert main(argv) == 1
    assert err.getvalue() == ""
