"""Sec. V-B — the enhanced (timed) SAT attack.

Three results, matching the paper's argument structure:

1. positive control: the TCF machinery really does timing — it
   generates a two-vector test for an injected delay defect ([3]'s
   original use);
2. it cracks *delay* keys (a TDK-style selectable-delay MUX is visible
   at the sample tick);
3. it finds no DIP against a GK, because a static key variable never
   transitions and "the value transmitted on the glitch does not exist
   from the viewpoint of the functionality".
"""

import pytest

from repro.attacks import SimulatedTwoVectorOracle, find_delay_test, tcf_attack
from repro.core.gk import build_gk_demo
from repro.netlist import Builder
from repro.synth import insert_delay_chain


def small_comb():
    b = Builder("tcfb")
    a, bb = b.inputs("a", "b")
    n1 = b.and2(a, bb)
    b.po(b.xor(n1, a), "y")
    return b.circuit


def test_tcf_delay_test_generation(benchmark):
    circuit = small_comb()
    and_gate = [g for g in circuit.gates.values() if g.function == "AND2"][0]
    test = benchmark(
        find_delay_test, circuit, and_gate.name, 0.3, 0.3
    )
    print("\n" + "=" * 72)
    print(f"TCF delay-defect ATPG: two-vector test = {test}")
    assert test is not None


def test_tcf_cracks_delay_locking(benchmark):
    b = Builder("dlock")
    a = b.input("a")
    k = b.key_input("k")
    chain = insert_delay_chain(b.circuit, a, 0.5, prefix="slow")
    b.po(b.mux2(a, chain.output_net, k), "y")
    locked = b.circuit

    result = benchmark.pedantic(
        tcf_attack,
        args=(locked, SimulatedTwoVectorOracle(locked, {"k": 0}), 0.3),
        kwargs={"dt": 0.05, "max_iterations": 16},
        rounds=1,
        iterations=1,
    )
    print("\n" + "=" * 72)
    print(f"TCF vs delay key: {result.iterations} timed DIPs, "
          f"key = {result.key}")
    assert result.completed and result.key == {"k": 0}
    assert result.iterations >= 1


def test_tcf_fails_on_gk(benchmark):
    gk = build_gk_demo(0.2, 0.3)
    view = gk.clone("view")
    view.inputs.remove("key")
    view.key_inputs.append("key")
    oracle = Builder("orc")
    x = oracle.input("x")
    oracle.po(oracle.buf(x), "y")

    result = benchmark.pedantic(
        tcf_attack,
        args=(view, SimulatedTwoVectorOracle(oracle.circuit), 0.6),
        kwargs={"dt": 0.05, "max_iterations": 8},
        rounds=1,
        iterations=1,
    )
    print("\n" + "=" * 72)
    print(f"TCF vs glitch key: UNSAT at first iteration = "
          f"{result.unsat_at_first_iteration}")
    assert result.unsat_at_first_iteration
