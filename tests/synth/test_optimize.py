"""Tests for the logic optimization passes."""

import itertools
from unittest import mock

import pytest
from hypothesis import event, given, strategies as st

from repro.netlist import Builder
from repro.sim import evaluate_combinational
from repro.synth import (
    hash_structural,
    optimize,
    propagate_constants,
    simplify_inverters,
    sweep_dead_gates,
)

from hypothesis_profiles import active_profile


def outputs_for_all_patterns(circuit):
    table = []
    for bits in itertools.product((0, 1), repeat=len(circuit.inputs)):
        assignment = dict(zip(circuit.inputs, bits))
        values = evaluate_combinational(circuit, assignment)
        table.append(tuple(values[net] for net in circuit.outputs))
    return table


def assert_function_preserved(before, after):
    assert outputs_for_all_patterns(before) == outputs_for_all_patterns(after)


class TestConstantPropagation:
    def test_and_with_zero_folds(self):
        b = Builder("c")
        a = b.input("a")
        zero = b.const0()
        b.po(b.and2(a, zero), "y")
        reference = b.circuit.clone()
        changed = propagate_constants(b.circuit)
        assert changed >= 1
        assert_function_preserved(reference, b.circuit)

    def test_xor_of_constants(self):
        b = Builder("c")
        b.input("a")
        one = b.const1()
        zero = b.const0()
        b.po(b.xor(one, zero), "y")
        reference = b.circuit.clone()
        propagate_constants(b.circuit)
        sweep_dead_gates(b.circuit)
        assert_function_preserved(reference, b.circuit)
        # y is now driven by a tie cell
        assert b.circuit.driver_of(b.circuit.outputs[0]).function == "TIE1"

    def test_mux_constant_select(self):
        b = Builder("c")
        a, bb = b.inputs("a", "b")
        one = b.const1()
        b.po(b.mux2(a, bb, one), "y")
        reference = b.circuit.clone()
        optimize(b.circuit)
        assert_function_preserved(reference, b.circuit)

    def test_protected_gate_untouched(self):
        b = Builder("c")
        a = b.input("a")
        zero = b.const0()
        out = b.and2(a, zero)
        b.po(out, "y")
        gate = b.circuit.driver_of(out).name
        propagate_constants(b.circuit, frozenset([gate]))
        assert gate in b.circuit.gates
        assert b.circuit.driver_of(out).name == gate


def _netlist(circuit):
    return ({name: (g.cell.name, dict(g.pins), g.output)
             for name, g in circuit.gates.items()},
            list(circuit.inputs), list(circuit.outputs))


@st.composite
def tied_circuits(draw):
    """A random DAG over a few inputs and TIE cells, some flip-flops,
    and a protected gate set that often sits right behind a TIE."""
    b = Builder("tied")
    b.clock()
    pool = list(b.inputs(*[f"i{n}" for n in range(draw(st.integers(1, 3)))]))
    for _tie in range(draw(st.integers(1, 3))):
        pool.append(b.const1() if draw(st.booleans()) else b.const0())
    protected = set()
    for _gate in range(draw(st.integers(1, 14))):
        pick = st.sampled_from(pool)
        kind = draw(st.sampled_from(
            ["inv", "buf", "and2", "nand2", "or2", "nor2", "xor", "xnor",
             "mux2", "dff"]))
        if kind == "dff":
            pool.append(b.dff(draw(pick)))
            continue
        if kind in ("inv", "buf"):
            operands = [draw(pick)]
        elif kind == "mux2":
            operands = [draw(pick), draw(pick), draw(pick)]
        else:
            operands = [draw(pick), draw(pick)]
        out = getattr(b, kind)(*operands)
        if draw(st.integers(0, 2)) == 0:
            protected.add(b.circuit.driver_of(out).name)
        pool.append(out)
    for net in draw(st.lists(st.sampled_from(pool), min_size=1, max_size=3,
                             unique=True)):
        if net not in b.circuit.inputs and net not in b.circuit.outputs:
            b.po(net)
    return b.circuit, frozenset(protected)


@active_profile()
@given(tied_circuits())
def test_constant_folding_matches_the_full_scan(drawn):
    """The TIE-seeded pre-pass returns early exactly when the
    topological scan would replace nothing: same count, same netlist."""
    circuit, protected = drawn
    fast, full = circuit.clone(), circuit.clone()
    changed = propagate_constants(fast, protected)
    with mock.patch("repro.synth.optimize._folds_anything",
                    return_value=True):
        expected = propagate_constants(full, protected)
    event("folded" if expected else "nothing to fold")
    assert changed == expected
    assert _netlist(fast) == _netlist(full)


class TestInverterSimplification:
    def test_double_inverter_bypassed(self):
        b = Builder("i")
        a = b.input("a")
        y = b.and2(b.inv(b.inv(a)), a)
        b.po(y, "out")
        reference = b.circuit.clone()
        before = b.circuit.stats().num_cells
        optimize(b.circuit)
        assert b.circuit.stats().num_cells < before
        assert_function_preserved(reference, b.circuit)

    def test_buffer_bypassed(self):
        b = Builder("i")
        a = b.input("a")
        y = b.inv(b.buf(a))
        b.po(y, "out")
        reference = b.circuit.clone()
        optimize(b.circuit)
        assert_function_preserved(reference, b.circuit)
        functions = {g.function for g in b.circuit.gates.values()}
        assert "BUF" not in functions or b.circuit.outputs[0] in {
            g.output for g in b.circuit.gates.values() if g.function == "BUF"
        }

    def test_po_buffer_kept(self):
        b = Builder("i")
        a = b.input("a")
        b.po(b.inv(a), "named_out")  # po() inserts a naming buffer
        optimize(b.circuit)
        assert "named_out" in b.circuit.outputs


class TestStructuralHashing:
    def test_identical_gates_merged(self):
        b = Builder("h")
        a, bb = b.inputs("a", "b")
        x1 = b.and2(a, bb)
        x2 = b.and2(a, bb)
        b.po(b.xor(x1, x2), "y")
        reference = b.circuit.clone()
        merged = hash_structural(b.circuit)
        assert merged == 1
        sweep_dead_gates(b.circuit)
        assert_function_preserved(reference, b.circuit)

    def test_commutative_operands_merged(self):
        b = Builder("h")
        a, bb = b.inputs("a", "b")
        x1 = b.and2(a, bb)
        x2 = b.and2(bb, a)
        b.po(b.or2(x1, x2), "y")
        assert hash_structural(b.circuit) == 1

    def test_different_functions_not_merged(self):
        b = Builder("h")
        a, bb = b.inputs("a", "b")
        x1 = b.xor(a, bb)
        x2 = b.xnor(a, bb)
        b.po(b.or2(x1, x2), "y")
        assert hash_structural(b.circuit) == 0


class TestDeadGateSweep:
    def test_unreachable_gate_removed(self, toy_combinational):
        c = toy_combinational.clone()
        c.add_gate("dead", "INV_X1", {"A": "a"}, "dead_net")
        removed = sweep_dead_gates(c)
        assert removed == 1
        assert "dead" not in c.gates

    def test_ff_fanin_is_live(self, toy_sequential):
        c = toy_sequential.clone()
        assert sweep_dead_gates(c) == 0

    def test_protected_dead_gate_kept(self, toy_combinational):
        c = toy_combinational.clone()
        c.add_gate("dead", "INV_X1", {"A": "a"}, "dead_net")
        assert sweep_dead_gates(c, frozenset(["dead"])) == 0
        assert "dead" in c.gates


class TestOptimizeFixpoint:
    def test_benchmark_functionality_preserved(self, s1238):
        """Optimize the benchmark; spot-check sequential equivalence."""
        import random

        from repro.sim import CycleSimulator

        c = s1238.circuit.clone()
        optimize(c)
        rng = random.Random(5)
        seq = [
            {net: rng.randint(0, 1) for net in s1238.circuit.inputs}
            for _ in range(6)
        ]
        sim_a = CycleSimulator(s1238.circuit)
        sim_b = CycleSimulator(c)
        for step in seq:
            out_a = sim_a.step(step)
            out_b = sim_b.step(step)
            shared = set(out_a) & set(out_b)
            assert shared
            assert all(out_a[n] == out_b[n] for n in shared)

    def test_idempotent(self, toy_combinational):
        c = toy_combinational.clone()
        optimize(c)
        assert optimize(c) == 0
