import math
import random
import re
from collections import Counter

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from eocount import (
    NEQ2,
    SCALAR_ONE,
    SCALAR_ZERO,
    CountResult,
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
from eocount import affine, canonical, canonical_form, classes, classify, engine, kernel_structure
from eocount import signatures
from eocount.affine import random_affine_signature
from eocount.engine import DEFAULT_BRUTE_CAP, gadget_demo_hardness
from eocount.errors import BudgetExceeded, InstanceError
from eocount.hadamard import Polarity, basic_kernel, butterfly
from eocount.signatures import DELTA0, DELTA1, bits_str, m_multiple

from helpers import (
    banded_instance,
    complemented,
    permute_columns,
    planted_instance,
    random_affine_eo,
    random_instance,
    ref_brute_force,
    ref_chain_reaction,
    ref_cut_order,
    ref_gadget,
    ref_solve_affine,
    ref_validate,
)

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
    inst = Instance(
        signatures={"f2": F2},
        vertices=(("v1", "f2"), ("v2", "f2")),
        edges=(
            (("v1", 1), ("v2", 1)),
            (("v1", 1), ("v2", 5)),
            (("v3", 1), ("v2", 2)),
            (("v1", 1), ("v1", 2)),
        ),
    )
    assert validate(inst)[0] == [
        "endpoint v1.1 wired more than once",
        "edge endpoint v2.5: slot out of range 1..4",
        "edge endpoint v3.1: unknown vertex",
        "endpoint v1.1 wired more than once",
        "dangling slot v1.3",
        "dangling slot v1.4",
        "dangling slot v2.3",
        "dangling slot v2.4",
    ]


def test_validate_vs_reference_on_miswired_instances(rng):
    # duplicate ids, unknown labels and vertices, slots out of range, twice
    # wired and dangling, mixed in random order
    sigs = {"f2": F2, "neq": NEQ2, "bad": Signature.from_strings(["11", "10"])}
    for _ in range(300):
        verts = tuple(
            (f"v{rng.randrange(5)}", rng.choice([*sigs, "nope"]))
            for _ in range(rng.randint(0, 5))
        )
        end = lambda: (f"v{rng.randrange(6)}", rng.randint(0, 5))
        edges = tuple((end(), end()) for _ in range(rng.randint(0, 6)))
        inst = Instance(sigs, verts, edges)
        assert validate(inst) == ref_validate(inst)
    # also edges of one and of three endpoints, and edges that join a slot
    # to itself: the compiling pass wires these endpoint by endpoint
    for _ in range(300):
        verts = tuple(
            (f"v{rng.randrange(4)}", rng.choice([*sigs, "nope"]))
            for _ in range(rng.randint(1, 4))
        )
        end = lambda: (f"v{rng.randrange(5)}", rng.randint(0, 5))
        edges = []
        for _ in range(rng.randint(1, 6)):
            size = rng.choice([1, 2, 3, "self"])
            edges.append((end(),) * 2 if size == "self"
                         else tuple(end() for _ in range(size)))
        inst = Instance(sigs, verts, tuple(edges))
        assert validate(inst) == ref_validate(inst)


def test_validate_warns_on_non_eo_label():
    bad = Signature.from_strings(["11", "10"])
    inst = Instance(
        signatures={"b": bad},
        vertices=(("v1", "b"),),
        edges=((("v1", 1), ("v1", 2)),),
    )
    _, warnings = validate(inst)
    assert warnings


def test_validate_tests_each_label_once_and_warns_per_vertex(monkeypatch):
    calls = Counter()
    real = engine.is_eo

    def counted(sig):
        calls[sig] += 1
        return real(sig)

    monkeypatch.setattr(engine, "is_eo", counted)
    bad = Signature.from_strings(["11", "10"])
    inst = Instance(
        signatures={"b": bad, "n": NEQ2},
        vertices=(("v1", "b"), ("v2", "b"), ("v3", "n")),
        edges=((("v1", 1), ("v2", 2)), (("v1", 2), ("v3", 1)),
               (("v2", 1), ("v3", 2))),
    )
    errors, warnings = validate(inst)
    assert errors == []
    assert warnings == [
        "vertex v1: label is not an EO signature",
        "vertex v2: label is not an EO signature",
    ]
    assert calls == {bad: 1, NEQ2: 1}


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


def half_wired_neq2():
    return pair("neq", NEQ2, ((("v1", 1), ("v2", 1)),))


def doubly_listed_self_loop():
    return Instance(
        signatures={"neq": NEQ2},
        vertices=(("a", "neq"),),
        edges=((("a", 1), ("a", 2)), (("a", 1), ("a", 2))),
    )


@pytest.mark.parametrize("make", [half_wired_neq2, doubly_listed_self_loop])
@pytest.mark.parametrize(
    "solver",
    [brute_force, solve_affine, lambda inst: chain_reaction(inst, Polarity.ONE)]
    + [lambda inst, m=m: solve(inst, method=m)
       for m in ("auto", "brute", "affine", "chain")],
    ids=["brute_force", "solve_affine", "chain_reaction", "solve-auto",
         "solve-brute", "solve-affine", "solve-chain"],
)
def test_solvers_refuse_invalid_instances(solver, make):
    inst = make()
    errors, _ = validate(inst)
    assert errors
    with pytest.raises(InstanceError, match=re.escape("; ".join(errors))):
        solver(inst)


def test_instance_wiring_is_compiled_once(monkeypatch):
    calls = 0
    real = engine._compile

    def counted(inst):
        nonlocal calls
        calls += 1
        return real(inst)

    monkeypatch.setattr(engine, "_compile", counted)
    inst = crossed_f2()
    assert solve(inst).count == brute_force(inst).count == 2
    assert validate(inst) == ([], [])
    assert calls == 1


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
    assert res.steps == ("propagated v1.1 -> v2.2", "propagated v2.1 -> v1.2",
                         "affine residual with 2 edges: count 2")
    assert chain_reaction(crossed_f2(), Polarity.ONE).steps is None
    loop = Instance({"f2": F2}, (("v", "f2"),),
                    ((("v", 1), ("v", 2)), (("v", 3), ("v", 4))))
    res = chain_reaction(loop, Polarity.ONE, trace=True)
    assert res.steps == ("self-loop at v: pinned slots 1,2",
                         "affine residual with 1 edges: count 2")


def test_chain_trace_prints_counts_past_the_int_to_str_digit_limit():
    # 2^14300 has 4,305 digits; Python 3.11 refuses str() past 4,300
    n = 14300
    inst = Instance({"n": NEQ2}, tuple((f"v{i}", "n") for i in range(2 * n)),
                    tuple(((f"v{i}", s), (f"v{i + 1}", 3 - s))
                          for i in range(0, 2 * n, 2) for s in (1, 2)))
    res = chain_reaction(inst, Polarity.ONE, trace=True)
    assert res.count == 1 << n
    digits = res.steps[-1].rsplit(" ", 1)[1]
    assert len(digits) == 4305
    assert int(digits[-40:]) == res.count % 10**40
    assert int(digits[:40]) == res.count // 10 ** (4305 - 40)


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
        want = brute_force(inst).count
        assert chain_reaction(inst, Polarity.ONE).count == want
        assert chain_reaction(complemented(inst), Polarity.ZERO).count == want


def test_chain_vs_brute_planted_both_polarities():
    rng = random.Random(1)
    for edges in list(range(4, 19, 2)) * 2 + [20]:
        inst = planted_instance(rng, CHAIN_POOL, edges)
        want = brute_force(inst).count
        assert want >= 1
        assert chain_reaction(inst, Polarity.ONE).count == want
        assert chain_reaction(complemented(inst), Polarity.ZERO).count == want


def chain_vs_reference(inst) -> list:
    """``chain_reaction`` on the instance in polarity 1 and on its complement
    in polarity 0, each with the same count and the same steps as the loop
    that pinned both ends of every step."""
    out = []
    for case, pol in ((inst, Polarity.ONE), (complemented(inst), Polarity.ZERO)):
        res = chain_reaction(case, pol, trace=True)
        ref = ref_chain_reaction(case, pol, trace=True)
        assert (res.count, res.steps) == (ref.count, ref.steps)
        out.append(res)
    return out


def test_chain_matches_reference_on_random_instances(rng):
    seen = Counter()
    while min(seen["self-loop"], seen["zero"], seen["trials"]) < 40:
        inst = random_instance(rng, CHAIN_POOL, rng.randint(1, 5), 12)
        if inst is None or validate(inst)[0]:
            continue
        seen["trials"] += 1
        for res in chain_vs_reference(inst):
            seen["self-loop"] += any(s.startswith("self-loop") for s in res.steps)
            seen["zero"] += res.count == 0


def test_chain_matches_reference_on_large_planted_instances():
    for seed in (7, 8):
        inst = planted_instance(random.Random(seed), CHAIN_POOL, 800)
        assert len(inst.vertices) >= 300
        assert all(res.count >= 1 for res in chain_vs_reference(inst))


def test_chain_pins_only_on_steps_that_lose_rows(monkeypatch):
    # a step that loses no row marks its slots consumed and builds no label
    calls = 0
    real = engine.pin

    def counted(f, i, b):
        nonlocal calls
        calls += 1
        g = real(f, i, b)
        assert len(g.rows) < len(f.rows)
        return g

    monkeypatch.setattr(engine, "pin", counted)
    inst = planted_instance(random.Random(7), CHAIN_POOL, 800)
    res = chain_reaction(inst, Polarity.ONE, trace=True)
    steps = sum(s.startswith(("propagated", "self-loop")) for s in res.steps)
    assert res.count >= 1
    assert 0 < calls < steps


def test_chain_self_loop_takes_the_neighbour_step(monkeypatch):
    # a self-loop whose mate slot is already constant 1 - t loses no row,
    # so it builds no label; one whose mate slot is not builds one
    calls = Counter()

    def counting(name, real):
        def counted(*args):
            calls[name] += 1
            return real(*args)
        return counted

    monkeypatch.setattr(engine, "pin", counting("pin", signatures.pin))
    monkeypatch.setattr(engine, "pin2", counting("pin2", signatures.pin2),
                        raising=False)
    loop = Instance({"d": D1D0}, (("v", "d"),), ((("v", 1), ("v", 2)),))
    for pol in Polarity:
        assert chain_reaction(loop, pol).count == 1
        assert calls["pin"] == calls["pin2"] == 0
    loops = Instance({"f2": F2}, (("v", "f2"),),
                     ((("v", 1), ("v", 2)), (("v", 3), ("v", 4))))
    assert chain_reaction(loops, Polarity.ONE).count == 2
    assert calls == Counter(pin=1)


def test_edges_need_two_endpoints():
    inst = Instance({"n": NEQ2}, (("a", "n"),), ((("a", 1),), (("a", 2),)))
    errors = ["edge 0: expected 2 endpoints, got 1",
              "edge 1: expected 2 endpoints, got 1"]
    assert validate(inst) == (errors, []) == ref_validate(inst)
    for method in ("auto", "affine", "chain", "brute"):
        with pytest.raises(InstanceError, match="edge 0: expected 2 endpoints"):
            solve(inst, method=method)
    inst = Instance({"n": NEQ2}, (("a", "n"), ("b", "n")),
                    ((("a", 1), ("b", 1), ("a", 2)), (("b", 2),)))
    assert validate(inst)[0] == ["edge 0: expected 2 endpoints, got 3",
                                 "edge 1: expected 2 endpoints, got 1"]
    assert validate(inst) == ref_validate(inst)


MALFORMED = "not a (vertex, int slot) pair"


def test_validate_reports_malformed_endpoints():
    # a slot that is not an int, an endpoint that is not a pair and an
    # unhashable vertex are each reported in order, and every solver
    # refuses them; a slot True reads as 1
    for bad in (("1", "2"), ("1", None), ("1", 2.0), ("1", 1.5), "x", (["1"], 2)):
        inst = Instance({"n": NEQ2}, (("1", "n"),), ((("1", 1), bad),))
        errors = [f"edge endpoint {bad!r}: {MALFORMED}", "dangling slot 1.2"]
        assert validate(inst) == (errors, [])
        for method in ("auto", "affine", "chain", "brute"):
            with pytest.raises(InstanceError, match=re.escape("; ".join(errors))):
                solve(inst, method=method)
    inst = Instance({"n": NEQ2}, (("1", "n"),), ((("1", 1.5), ("v", 1)),))
    assert validate(inst)[0] == [f"edge endpoint ('1', 1.5): {MALFORMED}",
                                 "edge endpoint v.1: unknown vertex",
                                 "dangling slot 1.1", "dangling slot 1.2"]
    inst = Instance({"n": NEQ2}, (("1", "n"),), ((("1", True), ("1", 2)),))
    assert validate(inst) == ([], [])
    assert solve(inst) == CountResult(2, Method.AFFINE)
    # an edge entry that is not a sequence of endpoints is reported in place;
    # a field that is not a mapping or cannot be iterated is reported once
    # and read as empty
    unknown = ["edge endpoint 1.1: unknown vertex", "edge endpoint 1.2: unknown vertex"]
    for (sigs, vertices, edges), errors in (
        (({"n": NEQ2}, (("1", "n"),), (5,)),
         ["edge 0: not a pair of endpoints: 5",
          "dangling slot 1.1", "dangling slot 1.2"]),
        (({"n": NEQ2}, (("1", "n"),), (None,)),
         ["edge 0: not a pair of endpoints: None",
          "dangling slot 1.1", "dangling slot 1.2"]),
        (({"n": NEQ2}, (("1", "n"),), ((("1", 1), ("1", 2)), 7)),
         ["edge 1: not a pair of endpoints: 7"]),
        (({"n": NEQ2}, (("1", "n"),), 5),
         ["edges: not a collection of edges (got int)",
          "dangling slot 1.1", "dangling slot 1.2"]),
        (({"n": NEQ2}, None, ((("1", 1), ("1", 2)),)),
         ["vertices: not a collection of (vertex id, signature name) pairs "
          "(got NoneType)", *unknown]),
        ((None, (("1", "n"),), ((("1", 1), ("1", 2)),)),
         ["signatures: not a mapping of names to signatures (got NoneType)",
          "vertex 1: unknown signature 'n'", *unknown]),
    ):
        inst = Instance(sigs, vertices, edges)
        assert validate(inst) == (errors, [])
        for solver in (solve, brute_force, solve_affine, chain_reaction):
            with pytest.raises(InstanceError) as err:
                solver(inst)
            assert str(err.value) == "; ".join(errors)
    # an unhashable id or name, an entry of three and an entry that is not
    # a pair are reported as errors too, in order, after a duplicate id
    for bad in ((["1"], "n"), ("1", ["n"]), ("1", "n", "x"), "1"):
        inst = Instance({"n": NEQ2}, (bad,), ())
        errors = [f"vertex entry {bad!r}: not a (vertex id, signature name) pair"]
        assert validate(inst) == (errors, [])
        for method in ("auto", "affine", "chain", "brute"):
            with pytest.raises(InstanceError, match=re.escape("; ".join(errors))):
                solve(inst, method=method)
    inst = Instance({"n": NEQ2}, (("1", "n"), "1", ("1", "m")),
                    ((("1", 1), ("1", 2)),))
    assert validate(inst)[0] == [
        "duplicate vertex ids",
        "vertex entry '1': not a (vertex id, signature name) pair",
        "vertex 1: unknown signature 'm'"]
    # the entry-by-entry pass keeps a field's error first
    inst = Instance(None, (("1", "n"), "1", ("1", "n")), ())
    assert validate(inst)[0] == [
        "signatures: not a mapping of names to signatures (got NoneType)",
        "duplicate vertex ids",
        "vertex 1: unknown signature 'n'",
        "vertex entry '1': not a (vertex id, signature name) pair",
        "vertex 1: unknown signature 'n'"]


ATOMS = st.one_of(st.integers(-1, 3), st.booleans(), st.none(),
                  st.sampled_from([1.0, 2.0, 1.5, math.nan]),
                  st.sampled_from(["1", "2", "x", "12", ""]))
ENDPOINTS = st.one_of(
    st.tuples(st.sampled_from(["1", 2, 2.0, "v"]), st.integers(0, 3)),
    ATOMS,
    st.lists(st.one_of(ATOMS, st.just(["1"])), max_size=3).map(tuple),
)


def _well_formed(end) -> bool:
    """A pair of a hashable vertex and an int slot, which the reference
    validate reads."""
    return (isinstance(end, tuple) and len(end) == 2
            and not isinstance(end[0], list) and isinstance(end[1], int))


# entries that are no sequence of endpoints at all
NON_SEQUENCES = st.one_of(st.integers(-1, 3), st.booleans(), st.none(),
                          st.sampled_from([1.5, math.nan]))
# every wiring of the four slots, and edges of 0 to 3 drawn endpoints
EDGES = st.one_of(
    st.permutations([("1", True), ("1", 2), (2, 1), (2.0, 2)]).map(
        lambda p: ((p[0], p[1]), (p[2], p[3]))),
    st.lists(st.one_of(st.tuples(ENDPOINTS, ENDPOINTS),
                       st.lists(ENDPOINTS, max_size=3).map(tuple),
                       NON_SEQUENCES),
             max_size=3).map(tuple),
)


@settings(max_examples=300, deadline=None)
@given(EDGES)
@example(((("1", True), (2, 2)), ((2.0, 1), ("1", 2))))
def test_validate_never_raises_and_solvers_refuse_exactly_its_errors(edges):
    inst = Instance({"n": NEQ2}, (("1", "n"), (2, "n")), edges)
    errors, warnings = validate(inst)
    assert warnings == []
    bad = [end for edge in edges if isinstance(edge, tuple)
           for end in edge if not _well_formed(end)]
    assert [m for m in errors if m.endswith(MALFORMED)] == [
        f"edge endpoint {end!r}: {MALFORMED}" for end in bad]
    if not bad:
        assert validate(inst) == ref_validate(inst)
    for solver in (solve, brute_force, solve_affine, chain_reaction):
        if errors:
            with pytest.raises(InstanceError) as err:
                solver(inst)
            assert str(err.value) == "; ".join(errors)
        else:
            assert solver(inst).count == ref_brute_force(inst)


def test_chain_is_affine_calls_stay_linear(monkeypatch):
    calls = 0
    real = engine._Forms.__missing__  # the engine's one affine test

    def counted(forms, sig):
        nonlocal calls
        calls += 1
        return real(forms, sig)

    monkeypatch.setattr(engine._Forms, "__missing__", counted)
    inst = planted_instance(random.Random(7), CHAIN_POOL, 800)
    res = chain_reaction(inst, Polarity.ONE, trace=True)
    steps = sum(s.startswith(("propagated", "self-loop")) for s in res.steps)
    assert len(inst.vertices) >= 300
    assert res.count >= 1 and steps >= len(inst.vertices)
    # an affine test runs once per distinct label left at the fixpoint: 2
    # calls for 341 vertices and 799 steps
    assert calls <= len(inst.vertices) // 2


def test_affine_solve_classifies_each_label_once(monkeypatch):
    # classification and counting share one affine reduction per label
    calls = Counter()
    real = engine._Forms.__missing__

    def counted(forms, sig):
        calls[sig] += 1
        return real(forms, sig)

    monkeypatch.setattr(engine._Forms, "__missing__", counted)
    rng = random.Random(11)
    pool = [NEQ2] + [random_affine_eo(rng, h) for h in (2, 2, 3, 3)]
    inst = planted_instance(rng, pool, 60)
    labels = set(inst.labels().values())
    assert len(inst.vertices) >= 3 * len(labels)
    res = solve(inst)
    assert res.method is Method.AFFINE and res.count >= 1
    assert set(calls) == labels
    assert max(calls.values()) == 1
    # on the chain path, the propagation checks and the residual count
    # reuse the reductions that classification made
    calls.clear()
    chain = planted_instance(random.Random(6), CHAIN_POOL, 60)
    res = solve(chain, trace=True)
    assert res.method is Method.CHAIN_D1
    residual = res.steps[-1].split()
    assert residual[:3] == ["affine", "residual", "with"] and int(residual[3]) >= 1
    assert set(chain.labels().values()) <= set(calls)
    assert max(calls.values()) == 1


def test_solve_makes_no_eo_test_and_validate_one_per_label(monkeypatch):
    # no solver reads whether a label is an EO signature: only validate's
    # warnings do, and validate tests each distinct label once per call
    calls = Counter()
    real = engine.is_eo

    def counted(sig):
        calls[sig] += 1
        return real(sig)

    monkeypatch.setattr(engine, "is_eo", counted)
    monkeypatch.setattr(classes, "is_eo", counted)
    chain = planted_instance(random.Random(6), CHAIN_POOL, 60)
    rng = random.Random(11)
    affine = planted_instance(
        rng, [NEQ2] + [random_affine_eo(rng, h) for h in (2, 3)], 40)
    for inst, method in ((chain, Method.CHAIN_D1),
                         (complemented(chain), Method.CHAIN_D0),
                         (affine, Method.AFFINE)):
        calls.clear()
        assert solve(inst).method is method
        assert calls == {}
        assert validate(inst) == ([], [])
        assert calls == Counter(set(inst.labels().values()))


def test_solvers_and_classifiers_never_build_the_tuple_view(monkeypatch):
    rng = random.Random(12)
    chain = planted_instance(rng, CHAIN_POOL, 40)
    affine_pool = [NEQ2] + [random_affine_eo(rng, h) for h in (2, 3)]
    affine = planted_instance(rng, affine_pool, 30)
    kernel = m_multiple(basic_kernel(5), 2)
    reads = 0
    view = Signature.support

    def counted(self):
        nonlocal reads
        reads += 1
        return view.fget(self)

    monkeypatch.setattr(Signature, "support", property(counted))
    classes._in_class.cache_clear()
    canonical._canonicalize.cache_clear()
    assert solve(chain).method is Method.CHAIN_D1
    assert solve(complemented(chain)).method is Method.CHAIN_D0
    assert solve(affine).method is Method.AFFINE
    assert classify(kernel).kernel_info.m == 2
    assert kernel_structure(kernel).k == 5
    assert canonical_form(kernel).arity == 64
    assert reads == 0
    assert kernel.support and reads == 1  # the patch counts reads


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


BK2 = basic_kernel(2)
TENSOR_POOL = [tensor(BK2, BK2), tensor(tensor(BK2, BK2), BK2), NEQ2]


def test_solve_counts_tensor_kernel_instances_in_both_polarities():
    # a step may leave a tensor label non-affine with no forced slot that a
    # later step, pinning another of its factors, still makes affine
    for seed in range(8):
        inst = planted_instance(random.Random(seed), TENSOR_POOL, 18)
        want = brute_force(inst).count
        assert want >= 1
        for case, path in ((inst, Method.CHAIN_D1),
                           (complemented(inst), Method.CHAIN_D0)):
            res = solve(case)
            assert (res.count, res.method) == (want, path)


def test_solve_counts_the_two_factor_tensor_repro():
    inst = planted_instance(random.Random(3), [tensor(BK2, BK2), NEQ2], 14)
    assert (len(inst.vertices), len(inst.edges)) == (5, 14)
    assert brute_force(inst).count == ref_brute_force(inst) == 8
    assert solve(inst) == CountResult(8, Method.CHAIN_D1)
    assert solve(complemented(inst)) == CountResult(8, Method.CHAIN_D0)


def test_solve_runs_no_recursive_class_test(monkeypatch):
    def refuse(*args):
        raise AssertionError("solve ran the recursive class test")

    monkeypatch.setattr(classes, "_in_class", refuse)
    monkeypatch.setattr(classes, "_in_class_rec", refuse)
    rng = random.Random(6)
    chain = planted_instance(rng, CHAIN_POOL, 40)
    affine_pool = [NEQ2] + [random_affine_eo(rng, h) for h in (2, 3)]
    affine = planted_instance(rng, affine_pool, 30)
    for inst, path in ((chain, Method.CHAIN_D1),
                       (complemented(chain), Method.CHAIN_D0),
                       (affine, Method.AFFINE), (mixed_f2_g2(), Method.BRUTE)):
        res = solve(inst)
        assert res.method is path
        assert res.count == brute_force(inst).count


def test_solve_needs_no_class_test_budget(monkeypatch):
    # the recursive class test refuses this label past a budget of 2 memo
    # entries; solve never runs it
    monkeypatch.setattr(classes, "MEMO_BUDGET", 2)
    classes._in_class.cache_clear()
    kernel = tensor(tensor(BK2, BK2), BK2)
    inst = planted_instance(random.Random(2), [kernel, NEQ2], 20)
    assert kernel in inst.labels().values()
    want = brute_force(inst).count
    assert want >= 1
    with pytest.raises(BudgetExceeded):
        classes.in_d1(kernel)
    for case, path in ((inst, Method.CHAIN_D1),
                       (complemented(inst), Method.CHAIN_D0)):
        assert solve(case) == CountResult(want, path)


def test_chain_fixpoint_refuses_a_non_affine_residual():
    # G2 has no constant-1 column and NEQ2 none at all, so nothing fires
    # and G2 is left non-affine at the fixpoint
    inst = Instance(
        signatures={"g2": G2, "neq": NEQ2},
        vertices=(("g", "g2"), ("n1", "neq"), ("n2", "neq")),
        edges=((("g", 1), ("n1", 1)), (("n1", 2), ("g", 2)),
               (("g", 3), ("n2", 1)), (("n2", 2), ("g", 4))),
    )
    assert validate(inst) == ([], [])
    with pytest.raises(InstanceError, match="vertex g: label still non-affine at the fixpoint"):
        chain_reaction(inst, Polarity.ONE)


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


def test_gadget_self_loop_through_neq2():
    # x1 != y1, x2 != y2 and NEQ2's y1 != y2 loop f2's slots 1 and 2
    # through a disequality, which leaves the arity-2 residual
    h = gadget_demo_hardness(F2, NEQ2, [(1, 1), (2, 2)])
    assert h.arity == 2 and h.values == {(1, 0): 1, (0, 1): 1}


def test_gadget_joins_delta1_to_neq2():
    h = gadget_demo_hardness(DELTA1, NEQ2, [(1, 1)])
    assert h.arity == 1 and h.values == {(1,): 1}


def test_gadget_sums_rows_that_compress_together():
    # both rows of NEQ2 (x) NEQ2 meet the two disequalities and lose every column
    h = gadget_demo_hardness(NEQ2, NEQ2, [(1, 1), (2, 2)])
    assert h.arity == 0 and h.values == {(): 2}


GADGET_POOL = [
    basic_kernel(1), basic_kernel(2), basic_kernel(3), butterfly(1), NEQ2,
    DELTA1, DELTA0, G2, m_multiple(basic_kernel(2), 2), tensor(NEQ2, F2),
]


def test_gadget_matches_reference_on_random_pairs(rng):
    weighted = 0
    for _ in range(400):
        f, g = rng.choice(GADGET_POOL), rng.choice(GADGET_POOL)
        k = rng.randint(0, min(f.arity, g.arity))
        pairs = list(zip(rng.sample(range(1, f.arity + 1), k),
                         rng.sample(range(1, g.arity + 1), k)))
        h = gadget_demo_hardness(f, g, pairs)
        want = ref_gadget(f.arity, f.support, g.arity, g.support, pairs)
        assert (h.arity, h.values) == want
        weighted += any(v > 1 for v in h.values.values())
    assert weighted


def test_affine_solver_vs_brute_randomized(rng):
    trials = 0
    while trials < 120:
        pool = [random_affine_eo(rng, rng.randint(1, 3)) for _ in range(3)]
        inst = random_instance(rng, pool, rng.randint(1, 4), 11)
        if inst is None or validate(inst)[0]:
            continue
        trials += 1
        assert solve_affine(inst).count == brute_force(inst).count


# -- solve_affine against the constraint form and the enumeration -------------

EMPTY2 = Signature(2, frozenset())


def single(name, sig, edges):
    return Instance({name: sig}, (("v1", name),), edges)


@st.composite
def affine_instances(draw, max_edges=10):
    """A random wiring, self-loops included, of random affine labels of
    arity 0-4 (mostly not EO), the scalars 1 and 0 and an empty label."""
    rng = random.Random(draw(st.integers(0, 2**32 - 1)))
    names, verts, slots = {}, [], []

    def add(sig):
        name = names.setdefault(sig, f"s{len(names)}")
        v = f"v{len(verts)}"
        verts.append((v, name))
        slots.extend((v, j) for j in range(1, sig.arity + 1))

    for kind in draw(st.lists(st.integers(0, 7), max_size=8)):
        if kind <= 4:
            sig = random_affine_signature(rng, kind)
        else:
            sig = (SCALAR_ONE, SCALAR_ZERO, EMPTY2)[kind - 5]
        if len(slots) + sig.arity > 2 * max_edges - 1:
            break
        add(sig)
    if len(slots) % 2:
        add(random_affine_signature(rng, 1))
    slots = draw(st.permutations(slots))
    edges = tuple(zip(slots[::2], slots[1::2]))
    return Instance({n: s for s, n in names.items()}, tuple(verts), edges)


@settings(max_examples=300, deadline=None)
@given(affine_instances())
@example(Instance({}, (), ()))
@example(Instance({"one": SCALAR_ONE}, (("c", "one"),), ()))
@example(Instance({"zero": SCALAR_ZERO}, (("c", "zero"),), ()))
@example(single("d", D1D0, ((("v1", 1), ("v1", 2)),)))
@example(single("n", NEQ2, ((("v1", 2), ("v1", 1)),)))
@example(single("z", EMPTY2, ((("v1", 1), ("v1", 2)),)))
def test_solve_affine_matches_constraint_form_and_enumeration(inst):
    for case in (inst, complemented(inst)):
        want = ref_brute_force(case)
        assert ref_solve_affine(case) == want
        assert solve_affine(case).count == want


def test_solve_affine_matches_constraint_form_on_planted_instances():
    rng = random.Random(9)
    pool = [NEQ2] + [random_affine_eo(rng, h) for h in (1, 2, 2, 3, 3)]
    for edges in (1500, 1800):
        inst = planted_instance(rng, pool, edges)
        assert len(inst.vertices) >= 700
        for case in (inst, complemented(inst)):
            res = solve(case)
            assert res.method is Method.AFFINE
            assert res.count == ref_solve_affine(case) >= 1


def test_ref_solve_affine_runs_none_of_the_solvers_elimination(monkeypatch):
    # a fault in the solver's GF(2) code must not show in the reference
    # too; the instance is built first, since random_affine_eo reduces its
    # labels with gf2_eliminate
    rng = random.Random(5)
    pool = [NEQ2] + [random_affine_eo(rng, h) for h in (1, 2, 2, 3, 3)]
    cases = (planted_instance(rng, pool, 1500),)
    cases += (complemented(cases[0]),)
    want = [ref_solve_affine(case) for case in cases]

    def refuse(*args):
        raise AssertionError("the reference ran the solver's elimination")

    monkeypatch.setattr(affine, "_pivots", refuse)
    monkeypatch.setattr(affine, "gf2_eliminate", refuse)
    assert [ref_solve_affine(case) for case in cases] == want
    assert min(want) >= 1


# -- brute_force against the 2^|edges| enumeration ----------------------------

NON_EO = Signature.from_strings(["11", "10"])
ORACLE_POOL = CHAIN_POOL + [
    F2, G2, complement(basic_kernel(2)), SCALAR_ONE, SCALAR_ZERO, NON_EO,
    Signature(2, frozenset()),
]
MIXED_POOL = CHAIN_POOL + [complement(f) for f in CHAIN_POOL]
PLANTED_POOL = MIXED_POOL + [F2, G2]


@st.composite
def oracle_instances(draw, max_edges=14):
    """Up to ``max_edges`` edges: a planted wiring of EO labels, or a random
    wiring (self-loops included) of labels that may be arity 0, zero or not
    EO."""
    if draw(st.booleans()):
        seed = draw(st.integers(0, 2**32 - 1))
        edges = draw(st.integers(0, max_edges))
        return planted_instance(random.Random(seed), PLANTED_POOL, edges)
    names, verts, slots = {}, [], []
    for i, sig in enumerate(draw(st.lists(st.sampled_from(ORACLE_POOL), max_size=8))):
        if len(slots) + sig.arity > 2 * max_edges:
            break
        name = f"s{ORACLE_POOL.index(sig)}"
        names[name] = sig
        verts.append((f"v{i}", name))
        slots += [(f"v{i}", j) for j in range(1, sig.arity + 1)]
    slots = draw(st.permutations(slots))
    edges = tuple(zip(slots[::2], slots[1::2]))
    return Instance(names, tuple(verts), edges)


@settings(max_examples=200, deadline=None)
@given(oracle_instances())
@example(Instance({}, (), ()))
@example(Instance({"one": SCALAR_ONE}, (("c", "one"),), ()))
@example(Instance({"zero": SCALAR_ZERO}, (("c", "zero"),), ()))
@example(single("d", D1D0, ((("v1", 1), ("v1", 2)),)))
@example(single("n", NEQ2, ((("v1", 2), ("v1", 1)),)))
@example(single("b", NON_EO, ((("v1", 1), ("v1", 2)),)))
@example(single("z", Signature(2, frozenset()), ((("v1", 1), ("v1", 2)),)))
def test_brute_force_matches_enumeration(inst):
    assert brute_force(inst).count == ref_brute_force(inst)
    flipped = complemented(inst)
    assert brute_force(flipped).count == ref_brute_force(flipped)


def test_brute_force_cap_bounds_the_cut_not_the_edges():
    # 26 edges around a ring of NEQ2 labels: every cut is 2 edges wide
    n = 26
    inst = Instance(
        {"neq": NEQ2},
        tuple((f"v{i}", "neq") for i in range(n)),
        tuple(((f"v{i}", 2), (f"v{(i + 1) % n}", 1)) for i in range(n)),
    )
    assert brute_force(inst, cap=2).count == 2
    with pytest.raises(InstanceError, match="cut width 2"):
        brute_force(inst, cap=1)


# Random planted wiring widens the planned cut as the instance grows, to at
# most 36 edges on these instances; the count stays cheap because only the
# cut orientations that some support row reaches are kept.
PAST_24_CAP = 48


@pytest.mark.parametrize("edges", [30, 60, 100, 150])
def test_brute_force_equals_solve_on_planted_past_24_edges(edges):
    rng = random.Random(edges)
    chain = planted_instance(rng, CHAIN_POOL, edges)
    affine_pool = [NEQ2] + [random_affine_eo(rng, h) for h in (1, 2, 2, 3, 3)]
    affine = planted_instance(rng, affine_pool, edges)
    for inst in (chain, complemented(chain), affine, complemented(affine)):
        res = solve(inst)
        assert res.method is not Method.BRUTE
        assert res.count >= 1
        assert brute_force(inst, cap=PAST_24_CAP).count == res.count


@pytest.mark.parametrize("num_vertices", [500, 1300])
def test_brute_force_equals_solve_on_banded_instances(num_vertices):
    """Banded wiring keeps the cut narrow however large the instance, so
    the contraction reaches counts far above 2^64."""
    rng = random.Random(num_vertices)
    affine_pool = [NEQ2] + [random_affine_eo(rng, h) for h in (1, 2, 2, 3, 3)]
    for pool, paths in ((CHAIN_POOL, (Method.CHAIN_D1, Method.CHAIN_D0)),
                        (affine_pool, (Method.AFFINE, Method.AFFINE))):
        inst = banded_instance(rng, pool, num_vertices)
        assert 1000 <= len(inst.edges) <= 3000
        for case, path in zip((inst, complemented(inst)), paths):
            res = solve(case)
            assert res.method is path
            assert res.count > 2**64
            assert brute_force(case).count == res.count


def test_brute_force_plans_banded_mixed_wiring_along_its_band(monkeypatch):
    """On this banded mixed instance the frontier plan cuts 6 edges, as
    the band does: a cap of 6 contracts it, to ``solve``'s count, and a cap
    of 5 names that width.  Each count plans once."""
    inst = banded_instance(random.Random(5), MIXED_POOL, 1000)
    assert engine._cut_order(engine._checked(inst))[1] == 6
    calls = 0
    real = engine._cut_order

    def counted(w):
        nonlocal calls
        calls += 1
        return real(w)

    monkeypatch.setattr(engine, "_cut_order", counted)
    res = solve(inst)
    assert res.method is Method.BRUTE
    assert res.count > 2**64
    assert brute_force(inst, cap=6).count == res.count
    with pytest.raises(InstanceError, match="cut width 6 exceeds brute-force cap 5"):
        brute_force(inst, cap=5)
    assert calls == 3


def test_brute_force_reuses_cut_registers():
    # the wrap-around edge of the ring stays open for the whole contraction
    n = 5000
    inst = Instance(
        {"neq": NEQ2},
        tuple((f"v{i}", "neq") for i in range(n)),
        tuple(((f"v{i}", 2), (f"v{(i + 1) % n}", 1)) for i in range(n)),
    )
    assert brute_force(inst, cap=2).count == 2


@settings(max_examples=200, deadline=None)
@given(oracle_instances())
@example(pair("wide", m_multiple(NEQ2, 13),
              tuple((("v1", i), ("v2", i)) for i in range(1, 27))))
@example(single("d", D1D0, ((("v1", 1), ("v1", 2)),)))
def test_cut_order_matches_frontier_reference(inst):
    w = engine._checked(inst)
    assert engine._cut_order(w) == ref_cut_order(w)


def test_cut_order_matches_frontier_reference_on_planted_instances():
    rng = random.Random(3)
    for edges in (50, 400):
        inst = planted_instance(rng, PLANTED_POOL, edges)
        w = engine._checked(inst)
        assert engine._cut_order(w) == ref_cut_order(w)
    for n in (300, 1000):
        inst = banded_instance(rng, MIXED_POOL, n)
        w = engine._checked(inst)
        assert engine._cut_order(w) == ref_cut_order(w)


def disjoint_union(parts) -> Instance:
    sigs, verts, edges = {}, [], []
    for i, part in enumerate(parts):
        tag = f"p{i}_"
        sigs.update({tag + n: f for n, f in part.signatures.items()})
        verts += [(tag + v, tag + n) for v, n in part.vertices]
        edges += [((tag + va, sa), (tag + vb, sb)) for (va, sa), (vb, sb) in part.edges]
    return Instance(sigs, tuple(verts), tuple(edges))


@pytest.mark.parametrize("seed", [5, 6])
def test_cut_order_takes_one_component_at_a_time(seed):
    """The plan of a disjoint union is as wide as its widest part, and the
    union's count is the product of the parts' counts.  (On these unions a
    plan that takes the least growth anywhere in the graph cuts 8 and 14
    edges against parts of at most 6 and 10.)"""
    rng = random.Random(seed)
    parts = [planted_instance(rng, PLANTED_POOL, rng.randint(5, 40)),
             banded_instance(rng, MIXED_POOL, 300),
             planted_instance(rng, PLANTED_POOL, 20),
             banded_instance(rng, CHAIN_POOL, 300)]
    rng.shuffle(parts)
    inst = disjoint_union(parts)
    widths = [engine._cut_order(engine._checked(p))[1] for p in parts]
    assert engine._cut_order(engine._checked(inst))[1] == max(widths)
    assert brute_force(inst).count == math.prod(brute_force(p).count for p in parts)


def test_solve_counts_mixed_polarity_past_24_edges():
    rng = random.Random(11)
    parts = [planted_instance(rng, [NEQ2, F2, G2], 8) for _ in range(5)]
    inst = disjoint_union(parts)
    assert {F2, G2} <= set(inst.signatures.values())
    assert len(inst.edges) > DEFAULT_BRUTE_CAP
    res = solve(inst)
    assert res.method is Method.BRUTE
    assert res.count >= 1
    assert res.count == math.prod(ref_brute_force(p) for p in parts)


def subdivided(inst: Instance, i: int) -> Instance:
    """Edge i split by a new NEQ2 vertex, which passes its orientation on:
    the orientations of the two instances correspond one to one."""
    (a, b) = inst.edges[i]
    edges = inst.edges[:i] + ((a, ("sub", 1)), (("sub", 2), b)) + inst.edges[i + 1:]
    return Instance(
        {**inst.signatures, "neq2": NEQ2}, inst.vertices + (("sub", "neq2"),), edges
    )


def relabelled(inst: Instance, name: str, perm) -> Instance:
    """Label ``name`` with its columns permuted (column j of the new label
    is column perm[j] of the old, 0-based) and the slots of its vertices
    moved with them: the two instances have the same orientations."""
    slot = {p + 1: j + 1 for j, p in enumerate(perm)}  # old slot -> new slot
    moved = {v for v, n in inst.vertices if n == name}

    def move(end):
        v, s = end
        return (v, slot[s]) if v in moved else end

    return Instance(
        {**inst.signatures, name: permute_columns(inst.signatures[name], perm)},
        inst.vertices, tuple((move(a), move(b)) for a, b in inst.edges),
    )


def assert_metamorphic_relations(rng, inst, other, path):
    """Complementing every label, reordering the vertices, subdividing an
    edge and permuting a label's columns with its slots keep the count of
    ``inst``, which ``solve`` counts by ``path``; a disjoint union with
    ``other`` multiplies it."""
    res = solve(inst)
    assert res.method is path and res.count >= 1
    count = res.count
    shuffled = list(inst.vertices)
    rng.shuffle(shuffled)
    assert solve(complemented(inst)).count == count
    assert solve(Instance(inst.signatures, tuple(shuffled), inst.edges)).count == count
    assert solve(subdivided(inst, rng.randrange(len(inst.edges)))).count == count
    assert solve(disjoint_union([inst, other])).count == count * solve(other).count
    name = rng.choice(sorted(n for n, f in inst.signatures.items() if f.arity > 1))
    perm = list(range(inst.signatures[name].arity))
    rng.shuffle(perm)
    assert solve(relabelled(inst, name, perm)).count == count


@pytest.mark.parametrize("path", [Method.CHAIN_D1, Method.AFFINE])
def test_metamorphic_relations_on_planted_instances(path):
    """The relations of ``assert_metamorphic_relations`` on random-wiring
    instances of ~10^3 vertices."""
    rng = random.Random(5)
    if path is Method.CHAIN_D1:
        pool, edges = CHAIN_POOL, 2500
    else:
        pool = [NEQ2] + [random_affine_eo(rng, h) for h in (1, 2, 2, 3, 3)]
        edges = 1800
    inst = planted_instance(rng, pool, edges)
    other = planted_instance(rng, pool, edges // 10)
    assert len(inst.vertices) >= 900
    assert_metamorphic_relations(rng, inst, other, path)


@pytest.mark.parametrize("wiring", ["chain", "affine", "mixed"])
def test_metamorphic_relations_on_banded_instances(wiring):
    """The same relations on banded instances of 10^3 vertices; the mixed
    ones are counted by ``brute_force``, whose plan stays narrow however
    the vertices are ordered."""
    rng = random.Random(wiring)
    pool, path = {
        "chain": (CHAIN_POOL, Method.CHAIN_D1),
        "affine": ([NEQ2] + [random_affine_eo(rng, h) for h in (1, 2, 2, 3, 3)],
                   Method.AFFINE),
        "mixed": (MIXED_POOL, Method.BRUTE),
    }[wiring]
    inst = banded_instance(rng, pool, 1000)
    other = banded_instance(rng, pool, 100)
    assert_metamorphic_relations(rng, inst, other, path)


@settings(max_examples=60, deadline=None)
@given(st.sampled_from(["chain", "affine"]), st.integers(0, 2**32 - 1),
       st.integers(50, 400))
def test_brute_force_equals_solve_on_drawn_banded_instances(wiring, seed, n):
    rng = random.Random(seed)
    if wiring == "chain":
        pool = CHAIN_POOL
    else:
        pool = [NEQ2] + [random_affine_eo(rng, h) for h in (1, 2, 2, 3, 3)]
    inst = banded_instance(rng, pool, n)
    for case in (inst, complemented(inst)):
        res = solve(case)
        assert res.method is not Method.BRUTE and res.count >= 1
        assert brute_force(case).count == res.count
