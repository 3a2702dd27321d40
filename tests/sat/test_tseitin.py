"""Tests for the circuit-to-CNF encoder."""

import itertools
import random

import pytest

from repro.netlist import Builder, NetlistError
from repro.sat import CNF, CircuitEncoder, Solver, encode_circuit
from repro.sim import evaluate_combinational


def check_encoder_matches_simulation(circuit, trials=None):
    """Every input assignment: CNF models agree with ternary simulation."""
    encoder = encode_circuit(circuit)
    drive = circuit.inputs + circuit.key_inputs
    patterns = (
        itertools.product((0, 1), repeat=len(drive))
        if trials is None
        else (
            tuple(random.Random(7 + t).randint(0, 1) for _ in drive)
            for t in range(trials)
        )
    )
    for bits in patterns:
        assignment = dict(zip(drive, bits))
        values = evaluate_combinational(circuit, assignment)
        solver = Solver()
        solver.add_cnf(encoder.cnf)
        assumptions = [
            encoder.var_of[net] if v else -encoder.var_of[net]
            for net, v in assignment.items()
        ]
        assert solver.solve(assumptions), assignment
        for net in circuit.outputs:
            assert solver.model_lit(encoder.var_of[net]) == bool(values[net]), (
                net,
                assignment,
            )


class TestEncoding:
    def test_all_gate_types(self):
        b = Builder("all")
        a, bb, c = b.inputs("a", "b", "c")
        nets = [
            b.and2(a, bb), b.nand2(a, bb), b.or2(bb, c), b.nor2(bb, c),
            b.xor(a, c), b.xnor(a, c), b.inv(a), b.buf(bb),
            b.mux2(a, bb, c), b.const0(), b.const1(),
            b.lut([a, bb], [0, 1, 1, 1]),
        ]
        acc = nets[0]
        for net in nets[1:]:
            acc = b.xor(acc, net)
        b.po(acc, "y")
        check_encoder_matches_simulation(b.circuit)

    def test_mux4(self):
        b = Builder("m4")
        nets = b.inputs("i0", "i1", "i2", "i3", "s0", "s1")
        b.po(b.mux4(*nets), "y")
        check_encoder_matches_simulation(b.circuit)

    def test_key_inputs_get_vars(self):
        b = Builder("k")
        a = b.input("a")
        k = b.key_input("k0")
        b.po(b.xor(a, k), "y")
        encoder = encode_circuit(b.circuit)
        assert "k0" in encoder.key_vars()
        assert "a" in encoder.input_vars()
        assert set(encoder.output_vars()) == set(b.circuit.outputs)

    def test_shared_vars_tie_copies_together(self):
        b = Builder("s")
        a = b.input("a")
        b.po(b.inv(a), "y")
        cnf = CNF()
        enc1 = CircuitEncoder(cnf, b.circuit)
        enc2 = CircuitEncoder(
            cnf, b.circuit, net_vars={"a": enc1.var_of["a"]}
        )
        # With a shared, both outputs must always be equal.
        solver = Solver()
        solver.add_cnf(cnf)
        x = cnf.new_var()
        extra = CNF(num_vars=solver.num_vars)
        extra.add_xor(x, enc1.var_of["y"], enc2.var_of["y"])
        solver.add_cnf(extra)
        assert not solver.solve([x])

    def test_sequential_circuit_rejected(self, toy_sequential):
        with pytest.raises(NetlistError, match="sequential"):
            encode_circuit(toy_sequential)

    def test_toy_combinational_exhaustive(self, toy_combinational):
        check_encoder_matches_simulation(toy_combinational)

    def test_benchmark_sample_patterns(self, s1238):
        from repro.netlist import extract_combinational

        comb = extract_combinational(s1238.circuit).circuit
        check_encoder_matches_simulation(comb, trials=5)
