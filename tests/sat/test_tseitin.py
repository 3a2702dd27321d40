"""Tests for the circuit-to-CNF encoder."""

import itertools
import random

from hypothesis import given, strategies as st
from hypothesis_profiles import active_profile

from repro.bench.generator import GeneratorSpec, random_sequential_circuit
from repro.locking import XorLock
from repro.netlist import Builder
from repro.netlist.transform import combinational_view, extract_combinational
from repro.sat import CNF, CircuitEncoder, Solver, encode_circuit
from repro.sim import evaluate_combinational
from repro.sim.cyclesim import evaluate_combinational_interpreted


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


def check_sequential_encoding(netlist):
    """Encoding *netlist* in place equals encoding its extracted copy:
    the same clause list, variable count and ``var_of``.  With at most
    10 inputs and keys, every full assignment of them has exactly one
    model, whose outputs are the interpreted evaluator's on the copy."""
    extraction = extract_combinational(netlist).circuit
    view = combinational_view(netlist)
    assert (view.name, view.inputs, view.key_inputs, view.outputs) == (
        extraction.name, extraction.inputs, extraction.key_inputs,
        extraction.outputs,
    )
    cnf, copy_cnf = CNF(), CNF()
    encoder = CircuitEncoder(cnf, netlist)
    on_copy = CircuitEncoder(copy_cnf, extraction)
    assert cnf.clauses == copy_cnf.clauses
    assert cnf.num_vars == copy_cnf.num_vars
    assert encoder.var_of == on_copy.var_of

    drive = extraction.inputs + extraction.key_inputs
    if len(drive) > 10:
        return
    solver = Solver()
    solver.add_cnf(cnf)
    for bits in itertools.product((0, 1), repeat=len(drive)):
        assignment = dict(zip(drive, bits))
        assumptions = [
            encoder.var_of[net] if value else -encoder.var_of[net]
            for net, value in assignment.items()
        ]
        assert solver.solve(assumptions), assignment
        expected = evaluate_combinational_interpreted(extraction, assignment)
        for net in extraction.outputs:
            assert solver.model_lit(encoder.var_of[net]) == bool(
                expected[net]), (net, assignment)
        model = solver.model()
        solver.add_clause([-var if value else var
                           for var, value in model.items()])
        assert not solver.solve(assumptions), ("second model", assignment)


@active_profile()
@given(
    inputs=st.integers(1, 4), outputs=st.integers(1, 3),
    flip_flops=st.integers(1, 4), gates=st.integers(2, 30),
    seed=st.integers(0, 2 ** 16),
)
def test_sequential_encoding_matches_extraction(inputs, outputs, flip_flops,
                                                gates, seed):
    """Seeded small sequential netlists encode as their extraction."""
    check_sequential_encoding(random_sequential_circuit(GeneratorSpec(
        name="seq", num_inputs=inputs, num_outputs=outputs,
        num_flip_flops=flip_flops, num_combinational=gates, seed=seed,
    )))


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

    def test_sequential_netlist_encodes_as_its_extraction(
            self, toy_sequential):
        check_sequential_encoding(toy_sequential)

    def test_locked_netlist_encodes_as_its_extraction(self):
        """Key gates are added after the gates they feed, so the walk
        must follow the topological order, not insertion order."""
        design = random_sequential_circuit(GeneratorSpec(
            name="lockme", num_inputs=3, num_outputs=2, num_flip_flops=3,
            num_combinational=20, seed=5,
        ))
        locked = XorLock().lock(design, 3, random.Random(1))
        check_sequential_encoding(locked.circuit)

    def test_benchmark_encodes_as_its_extraction(self, s1238):
        check_sequential_encoding(s1238.circuit)

    def test_toy_combinational_exhaustive(self, toy_combinational):
        check_encoder_matches_simulation(toy_combinational)

    def test_benchmark_sample_patterns(self, s1238):
        from repro.netlist import extract_combinational

        comb = extract_combinational(s1238.circuit).circuit
        check_encoder_matches_simulation(comb, trials=5)
