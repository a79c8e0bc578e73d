"""Tests of the benchmark's generator and tracing.

Run from the repository root with ``python3 -m pytest bench/tests``.
"""

import json
import random
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from eocount import brute_force, instance_to_text
from planted import complemented, plant
from workloads import _affine_pool, _chain_pool, _fill, _verify_pools

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent


def _small_instances(seed, per_pool=6):
    rng = random.Random(seed)
    for fixed, pool in _verify_pools(rng).values():
        for _ in range(per_pool):
            yield plant(rng, _fill(rng, fixed, pool, rng.choice((4, 6, 8))))


@pytest.mark.parametrize("pool_of", [_chain_pool, _affine_pool])
def test_planted_orientation_lies_in_every_support(pool_of):
    rng = random.Random(7)
    for _ in range(5):
        labels = [rng.choice(pool_of(rng)) for _ in range(60)]
        inst, orientation = plant(rng, labels)
        for variant, flip in ((inst, 0), (complemented(inst), 1)):
            for v, sig in variant.labels().items():
                row = tuple(orientation[(v, s)] ^ flip
                            for s in range(1, sig.arity + 1))
                assert row in sig.support


def test_planted_orientation_lies_in_small_supports():
    for inst, orientation in _small_instances(3):
        for v, sig in inst.labels().items():
            assert tuple(orientation[(v, s)]
                         for s in range(1, sig.arity + 1)) in sig.support


def test_brute_force_counts_small_planted_instances():
    for inst, _ in _small_instances(5):
        assert brute_force(inst).count >= 1
        assert brute_force(complemented(inst)).count == brute_force(inst).count


def test_fixed_seed_reproduces_instance_text():
    def text(seed):
        rng = random.Random(seed)
        labels = [rng.choice(_chain_pool(rng)) for _ in range(50)]
        return instance_to_text(plant(rng, labels)[0])

    assert text("s/1") == text("s/1")
    assert text("s/1") != text("s/2")


def _run(cwd, *args):
    return subprocess.run(
        [sys.executable, "bench/run.py", *args], cwd=cwd, capture_output=True,
        text=True, timeout=170)


COUNT_SUFFIXES = (".calls", ".rows", ".cols", ".refusals", "chain_steps",
                  "calls_per_edge", "calls_per_edge.bottom",
                  "calls_per_edge.top", "calls_per_label")


def test_traced_counts_repeat_exactly():
    runs = []
    for _ in range(2):
        out = _run(ROOT, "--workload", "small_verify", "--seed", "4",
                   "--seconds", "1", "--trace", "1")
        assert out.returncode == 0, out.stderr
        result = json.loads(out.stdout.splitlines()[-1])
        assert result["correct"] and result["failed"] == 0
        runs.append({k: v["value"] for k, v in result["metrics"].items()
                     if k.endswith(COUNT_SUFFIXES)})
    assert runs[0] == runs[1]
    assert runs[0]["engine.chain_steps"] > 0
    assert runs[0]["engine.brute_force.calls"] > 0


def test_raising_solver_is_not_correct(tmp_path):
    """A solver that raises on every instance fails every operation, and the
    run must not report it correct, however fast it reads."""
    shutil.copytree(ROOT / "src", tmp_path / "src",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copytree(BENCH, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("results", "__pycache__"))
    with open(tmp_path / "src" / "eocount" / "engine.py", "a") as f:
        f.write("\n\ndef solve(*args, **kwargs):\n"
                "    raise RuntimeError('solver broken on purpose')\n")
    out = _run(tmp_path, "--workload", "small_verify", "--seed", "1",
               "--seconds", "1", "--trace", "0")
    assert out.returncode == 0, out.stderr
    result = json.loads(out.stdout.splitlines()[-1])
    assert result["correct"] is False
    assert result["failed"] == result["attempted"] > 0
    assert "solver broken on purpose" in out.stdout


def test_refuses_without_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("results", "__pycache__"))
    out = _run(tmp_path, "--workload", "small_verify", "--seed", "1",
               "--seconds", "1", "--trace", "0")
    assert out.returncode != 0
    assert '"correct"' not in out.stdout
