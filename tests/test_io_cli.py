import io
from contextlib import redirect_stdout

import pytest

from eocount import (
    Instance,
    Signature,
    instance_from_text,
    instance_to_text,
)
from eocount.cli import main
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


def test_instance_parse_errors():
    with pytest.raises(FormatError):
        instance_from_text("[vertices]\nv1 f2\n")
    with pytest.raises(FormatError):
        instance_from_text(INSTANCE_TEXT.replace("v1.1 v2.2", "v1x1 v2.2"))
    with pytest.raises(FormatError):
        instance_from_text(INSTANCE_TEXT.replace("v1 f2", "v1 missing"))


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
        ["gen", "hadamard", "--k", "2", "--variant", "1b"],
        ["gen", "balanced", "--k", "3"],
        ["gen", "kernel", "--k", "3", "--m", "2"],
    ):
        code, out = run_cli(args)
        assert code == 0 and out.strip()


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


def test_cli_census():
    code, out = run_cli(["census", "--arity", "4", "--format", "kv"])
    assert code == 0
    assert "supports=64" in out and "disagree=0" in out


def test_cli_bad_input_exit_code(tmp_path):
    bad = tmp_path / "bad.eo"
    bad.write_text("not a section\n")
    code, _ = run_cli(["solve", str(bad)])
    assert code == 2


def test_cli_unknown_flag_errors(tmp_path):
    with pytest.raises(SystemExit):
        main(["solve", "x", "--frobnicate"])
