import random

import pytest

from eocount import (
    NEQ2,
    Instance,
    Method,
    Signature,
    brute_force,
    chain_reaction,
    complement,
    solve,
    solve_affine,
    tensor,
    validate,
)
from eocount import engine
from eocount.engine import gadget_demo_hardness
from eocount.errors import InstanceError
from eocount.hadamard import Polarity, basic_kernel, butterfly
from eocount.signatures import DELTA0, DELTA1, bits_str, m_multiple

from helpers import complemented, planted_instance, random_affine_eo, random_instance

F2 = Signature.from_strings(["1100", "1010", "1001"])
G2 = Signature.from_strings(["0011", "0101", "0110"])
D1D0 = tensor(DELTA1, DELTA0)


def pair(sig_name, sig, edges):
    return Instance(
        signatures={sig_name: sig},
        vertices=(("v1", sig_name), ("v2", sig_name)),
        edges=edges,
    )


def crossed_f2():
    return pair(
        "f2",
        F2,
        ((("v1", 1), ("v2", 2)), (("v1", 2), ("v2", 1)),
         (("v1", 3), ("v2", 3)), (("v1", 4), ("v2", 4))),
    )


def test_validate_clean():
    errors, warnings = validate(crossed_f2())
    assert not errors and not warnings


def test_validate_catches_bad_wiring():
    inst = Instance(
        signatures={"f2": F2},
        vertices=(("v1", "f2"),),
        edges=((("v1", 1), ("v1", 1)),),
    )
    errors, _ = validate(inst)
    assert errors
    inst = Instance(
        signatures={"f2": F2},
        vertices=(("v1", "f2"),),
        edges=((("v1", 1), ("v1", 2)),),
    )
    errors, _ = validate(inst)
    assert errors  # slots 3 and 4 dangling


def test_validate_warns_on_non_eo_label():
    bad = Signature.from_strings(["11", "10"])
    inst = Instance(
        signatures={"b": bad},
        vertices=(("v1", "b"),),
        edges=((("v1", 1), ("v1", 2)),),
    )
    _, warnings = validate(inst)
    assert warnings


def test_brute_force_small():
    assert brute_force(crossed_f2()).count == 2
    inst = pair("neq", NEQ2, ((("v1", 1), ("v2", 1)), (("v1", 2), ("v2", 2))))
    assert brute_force(inst).count == 2


def test_brute_force_cap():
    sig = m_multiple(NEQ2, 13)
    inst = pair(
        "wide", sig, tuple((("v1", i), ("v2", i)) for i in range(1, 27))
    )
    with pytest.raises(InstanceError):
        brute_force(inst, cap=24)


def test_solve_affine_examples():
    inst = pair("neq", NEQ2, ((("v1", 1), ("v2", 1)), (("v1", 2), ("v2", 2))))
    assert solve_affine(inst).count == 2
    inst = pair("d", D1D0, ((("v1", 1), ("v2", 2)), (("v1", 2), ("v2", 1))))
    assert solve_affine(inst).count == 1
    inst = pair("d", D1D0, ((("v1", 1), ("v2", 1)), (("v1", 2), ("v2", 2))))
    assert solve_affine(inst).count == 0


def test_solve_affine_rejects_non_affine():
    with pytest.raises(InstanceError):
        solve_affine(crossed_f2())


def test_chain_reaction_crossed_f2():
    res = chain_reaction(crossed_f2(), Polarity.ONE)
    assert res.count == 2
    assert res.method is Method.CHAIN_D1


def test_chain_reaction_self_loop():
    inst = Instance(
        signatures={"d": D1D0},
        vertices=(("v1", "d"),),
        edges=((("v1", 1), ("v1", 2)),),
    )
    assert chain_reaction(inst, Polarity.ONE).count == 1


def test_chain_reaction_zero_polarity():
    inst = pair(
        "g2",
        G2,
        ((("v1", 1), ("v2", 2)), (("v1", 2), ("v2", 1)),
         (("v1", 3), ("v2", 3)), (("v1", 4), ("v2", 4))),
    )
    res = chain_reaction(inst, Polarity.ZERO)
    assert res.count == 2
    assert res.method is Method.CHAIN_D0


def test_chain_reaction_precondition():
    with pytest.raises(InstanceError):
        chain_reaction(
            pair(
                "g2",
                G2,
                ((("v1", 1), ("v2", 1)), (("v1", 2), ("v2", 2)),
                 (("v1", 3), ("v2", 3)), (("v1", 4), ("v2", 4))),
            ),
            Polarity.ONE,
        )


def test_chain_reaction_trace():
    res = chain_reaction(crossed_f2(), Polarity.ONE, trace=True)
    assert res.steps


CHAIN_POOL = [
    basic_kernel(2),
    basic_kernel(3),
    NEQ2,
    butterfly(1),
    m_multiple(basic_kernel(2), 2),
    tensor(NEQ2, basic_kernel(1)),
    D1D0,
]


def test_chain_vs_brute_randomized(rng):
    pool = CHAIN_POOL
    trials = 0
    while trials < 120:
        inst = random_instance(rng, pool, rng.randint(1, 4), 11)
        if inst is None or validate(inst)[0]:
            continue
        trials += 1
        assert (
            chain_reaction(inst, Polarity.ONE).count
            == brute_force(inst).count
        )


def test_chain_vs_brute_planted_both_polarities():
    rng = random.Random(1)
    for edges in list(range(4, 19, 2)) * 2 + [20]:
        inst = planted_instance(rng, CHAIN_POOL, edges)
        want = brute_force(inst).count
        assert want >= 1
        assert chain_reaction(inst, Polarity.ONE).count == want
        assert chain_reaction(complemented(inst), Polarity.ZERO).count == want


def test_chain_is_affine_calls_stay_linear(monkeypatch):
    calls = 0
    real = engine.is_affine

    def counted(sig):
        nonlocal calls
        calls += 1
        return real(sig)

    monkeypatch.setattr(engine, "is_affine", counted)
    inst = planted_instance(random.Random(7), CHAIN_POOL, 800)
    res = chain_reaction(inst, Polarity.ONE, trace=True)
    steps = sum(s.startswith(("propagated", "self-loop")) for s in res.steps)
    assert len(inst.vertices) >= 300
    assert res.count >= 1 and steps >= len(inst.vertices)
    # a rescan of every label on every step would make ~steps * labels calls
    assert calls <= 4 * (len(inst.vertices) + steps)


def test_solve_arity_64_kernel_label():
    kernel = basic_kernel(6)
    assert kernel.arity == 64
    # pair each 1 of one support row with a 0 of it, alternately through a
    # self-loop and through a NEQ2 vertex; both force the pair to differ
    row = min(kernel.support)
    pairs = list(zip([i for i, b in enumerate(row, 1) if b],
                     [i for i, b in enumerate(row, 1) if not b]))
    vertices, edges = [("k", "kernel")], []
    for n, (p, q) in enumerate(pairs):
        if n % 2:
            edges.append((("k", p), ("k", q)))
        else:
            vertices.append((f"w{n}", "neq"))
            edges += [(("k", p), (f"w{n}", 1)), (("k", q), (f"w{n}", 2))]
    inst = Instance({"kernel": kernel, "neq": NEQ2}, tuple(vertices), tuple(edges))
    want = sum(all(r[p - 1] != r[q - 1] for p, q in pairs) for r in kernel.support)
    assert want >= 1
    res = solve(inst)
    assert (res.count, res.method) == (want, Method.CHAIN_D1)
    res = solve(complemented(inst))
    assert (res.count, res.method) == (want, Method.CHAIN_D0)


def test_solve_dispatch():
    assert solve(crossed_f2()).method is Method.CHAIN_D1
    affine_inst = pair(
        "neq", NEQ2, ((("v1", 1), ("v2", 1)), (("v1", 2), ("v2", 2)))
    )
    assert solve(affine_inst).method is Method.AFFINE
    assert solve(crossed_f2(), method="brute").method is Method.BRUTE


def mixed_f2_g2():
    return Instance(
        signatures={"f2": F2, "g2": G2},
        vertices=(("v1", "f2"), ("v2", "g2")),
        edges=((("v1", 1), ("v2", 1)), (("v1", 2), ("v2", 2)),
               (("v1", 3), ("v2", 3)), (("v1", 4), ("v2", 4))),
    )


def test_chain_invariant_checked_on_every_step():
    class Unchecked(engine._Classes):
        def tractable(self, sig, t):
            return True

    # G2 lies outside the delta1 class: pinning its slot 1 to 0 leaves a
    # non-affine label without a forced slot
    with pytest.raises(InstanceError, match="non-affine label with no forced"):
        chain_reaction(mixed_f2_g2(), Polarity.ONE, label_classes=Unchecked())


def test_solve_mixed_polarity_falls_back():
    inst = mixed_f2_g2()
    res = solve(inst)
    assert res.method is Method.BRUTE
    assert res.note
    with pytest.raises(InstanceError):
        solve(inst, method="chain")


def test_gadget_demo_hardness():
    h = gadget_demo_hardness(F2, G2, [(1, 1), (2, 2)])
    assert {bits_str(r) for r in h.values} == {
        "0011", "1001", "1010", "0101", "0110"
    }
    assert set(h.values.values()) == {1}


def test_affine_solver_vs_brute_randomized(rng):
    trials = 0
    while trials < 120:
        pool = [random_affine_eo(rng, rng.randint(1, 3)) for _ in range(3)]
        inst = random_instance(rng, pool, rng.randint(1, 4), 11)
        if inst is None or validate(inst)[0]:
            continue
        trials += 1
        assert solve_affine(inst).count == brute_force(inst).count
