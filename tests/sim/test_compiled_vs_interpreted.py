"""Differential suite: compiled bit-parallel vs interpreted evaluation.

The interpreted object-graph walk (`evaluate_combinational_interpreted`)
is the executable specification; the compiled two-plane evaluator must
agree with it net for net — values *and* result-dict ordering — on
random circuits under random ternary (0/1/X) stimulus, and on the
corner cases where ternary semantics are subtle (MUX with an X select,
LUTs with X inputs).  The batched cases run patterns through passes of
several widths (a pass is as wide as its batch): the interpreted walk
is width-blind, so agreement at every batch size means the widths
agree with each other too.
"""

import random

import pytest

from repro.bench.generator import GeneratorSpec, random_sequential_circuit
from repro.netlist import Builder, compile_circuit
from repro.netlist.compiled import PlaneBatch
from repro.netlist.transform import extract_combinational
from repro.sim import (
    evaluate_combinational,
    evaluate_combinational_interpreted,
)

TERNARY = (0, 1, None)


def ternary_pattern(nets, rng):
    return {net: rng.choice(TERNARY) for net in nets}


def assert_same_batch(circuit, assignments, state=None):
    """The patterns as one batch — net-for-net dicts 64 per pass, and
    outputs as one plane batch, a pass exactly as wide — against the
    interpreted walk, pattern by pattern."""
    want = [evaluate_combinational_interpreted(circuit, a, state=state)
            for a in assignments]
    compiled = compile_circuit(circuit)
    assert compiled.evaluate_many(assignments, state) == want
    batch = PlaneBatch.pack(circuit.inputs + circuit.key_inputs,
                            assignments)
    assert compiled.query_outputs(batch, state).unpack() == [
        {net: values[net] for net in circuit.outputs} for values in want]


def assert_same_evaluation(circuit, assignment, state=None):
    got = evaluate_combinational(circuit, assignment, state=state)
    want = evaluate_combinational_interpreted(circuit, assignment, state=state)
    assert list(got) == list(want), "result-dict net ordering diverged"
    for net in want:
        assert got[net] == want[net], (
            f"net {net!r}: compiled={got[net]!r} interpreted={want[net]!r} "
            f"under {assignment!r} state={state!r}"
        )


SPECS = [
    GeneratorSpec("diff_c1", num_inputs=5, num_outputs=3,
                  num_flip_flops=0, num_combinational=24, seed=11),
    GeneratorSpec("diff_c2", num_inputs=8, num_outputs=4,
                  num_flip_flops=0, num_combinational=60, seed=12),
    GeneratorSpec("diff_s1", num_inputs=6, num_outputs=3,
                  num_flip_flops=4, num_combinational=40, seed=13),
    GeneratorSpec("diff_s2", num_inputs=4, num_outputs=2,
                  num_flip_flops=6, num_combinational=80, seed=14),
]


class TestRandomCircuits:
    @pytest.mark.parametrize("spec", SPECS, ids=lambda s: s.name)
    def test_net_for_net_under_ternary_stimulus(self, spec):
        circuit = random_sequential_circuit(spec)
        rng = random.Random(spec.seed * 7919)
        ffs = [g.name for g in circuit.flip_flops()]
        for _ in range(25):
            assignment = ternary_pattern(circuit.inputs, rng)
            state = ternary_pattern(ffs, rng) if ffs else None
            assert_same_evaluation(circuit, assignment, state=state)

    @pytest.mark.parametrize("spec", SPECS, ids=lambda s: s.name)
    def test_net_for_net_in_one_batch(self, spec):
        """25 ternary patterns as one batch under one flip-flop state."""
        circuit = random_sequential_circuit(spec)
        rng = random.Random(spec.seed * 6151)
        ffs = [g.name for g in circuit.flip_flops()]
        patterns = [ternary_pattern(circuit.inputs, rng) for _ in range(25)]
        state = ternary_pattern(ffs, rng) if ffs else None
        assert_same_batch(circuit, patterns, state)

    @pytest.mark.parametrize("spec", SPECS[2:], ids=lambda s: s.name)
    def test_extracted_core_in_one_batch(self, spec):
        comb = extract_combinational(random_sequential_circuit(spec)).circuit
        rng = random.Random(spec.seed * 2053)
        assert_same_batch(comb, [ternary_pattern(comb.inputs, rng)
                                 for _ in range(130)])

    @pytest.mark.parametrize("spec", SPECS[2:], ids=lambda s: s.name)
    def test_extracted_combinational_core(self, spec):
        comb = extract_combinational(random_sequential_circuit(spec)).circuit
        rng = random.Random(spec.seed * 104729)
        for _ in range(25):
            assert_same_evaluation(comb, ternary_pattern(comb.inputs, rng))

    @pytest.mark.parametrize("count", (1, 64, 257))
    def test_all_x_inputs_propagate_identically(self, count):
        """*count* all-X patterns, as dicts and as one plane batch."""
        circuit = random_sequential_circuit(SPECS[1])
        assignment = {net: None for net in circuit.inputs}
        assert_same_evaluation(circuit, assignment)
        want = evaluate_combinational_interpreted(circuit, assignment)
        compiled = compile_circuit(circuit)
        assert compiled.evaluate_many([assignment] * count) == [want] * count
        batch = PlaneBatch.pack(circuit.inputs, [assignment] * count)
        outputs = {net: want[net] for net in circuit.outputs}
        assert compiled.query_outputs(batch).unpack() == [outputs] * count

    def test_key_inputs_participate(self):
        b = Builder("keyed")
        a, c = b.inputs("a", "c")
        k = b.key_input("k")
        b.po(b.xor(b.and2(a, k), c), "y")
        rng = random.Random(5)
        for _ in range(27):  # all 27 ternary combos worth of sampling
            assert_same_evaluation(
                b.circuit, {"a": rng.choice(TERNARY),
                            "c": rng.choice(TERNARY),
                            "k": rng.choice(TERNARY)})


class TestTernaryCorners:
    def build_mux(self):
        b = Builder("muxcase")
        a, c, s = b.inputs("a", "c", "s")
        b.po(b.mux2(a, c, s), "y")
        return b.circuit

    def test_mux_x_select_agreeing_candidates(self):
        circuit = self.build_mux()
        values = evaluate_combinational(circuit, {"a": 1, "c": 1, "s": None})
        assert values["y"] == 1
        assert_same_evaluation(circuit, {"a": 1, "c": 1, "s": None})
        assert_same_evaluation(circuit, {"a": 0, "c": 0, "s": None})

    def test_mux_x_select_disagreeing_candidates(self):
        circuit = self.build_mux()
        values = evaluate_combinational(circuit, {"a": 0, "c": 1, "s": None})
        assert values["y"] is None
        assert_same_evaluation(circuit, {"a": 0, "c": 1, "s": None})
        assert_same_evaluation(circuit, {"a": None, "c": None, "s": None})

    def test_mux_known_select_passes_x_through(self):
        circuit = self.build_mux()
        values = evaluate_combinational(circuit, {"a": None, "c": 1, "s": 0})
        assert values["y"] is None
        values = evaluate_combinational(circuit, {"a": None, "c": 1, "s": 1})
        assert values["y"] == 1
        assert_same_evaluation(circuit, {"a": None, "c": 1, "s": 0})
        assert_same_evaluation(circuit, {"a": None, "c": 1, "s": 1})

    def test_mux4_exhaustive_ternary(self):
        b = Builder("mux4case")
        nets = b.inputs("a", "b", "c", "d", "s0", "s1")
        b.po(b.mux4(*nets), "y")
        rng = random.Random(17)
        patterns = [{net: rng.choice(TERNARY) for net in nets}
                    for _ in range(200)]
        for pattern in patterns:
            assert_same_evaluation(b.circuit, pattern)
        assert_same_batch(b.circuit, patterns)

    @pytest.mark.parametrize("table", [
        (0, 1, 1, 0),  # XOR
        (1, 1, 1, 1),  # constant: known even under all-X inputs
        (0, 0, 1, 1),  # depends on I1 only: X on I0 must not poison it
    ])
    def test_lut_exhaustive_ternary(self, table):
        b = Builder("lutcase")
        x, y = b.inputs("x", "y")
        b.po(b.lut([x, y], table), "z")
        patterns = [{"x": vx, "y": vy} for vx in TERNARY for vy in TERNARY]
        for pattern in patterns:
            assert_same_evaluation(b.circuit, pattern)
        # All nine as one pass: the LUT's entry planes span its lanes.
        assert_same_batch(b.circuit, patterns)

    def test_lut3_sampled_ternary(self):
        rng = random.Random(23)
        b = Builder("lut3case")
        nets = b.inputs("x", "y", "w")
        b.po(b.lut(list(nets), tuple(rng.randint(0, 1) for _ in range(8))),
             "z")
        for _ in range(27):
            assert_same_evaluation(
                b.circuit, {net: rng.choice(TERNARY) for net in nets})


class TestBatchedEvaluation:
    def test_evaluate_many_matches_per_pattern(self):
        """130 patterns: three passes, the last one two lanes wide."""
        circuit = random_sequential_circuit(SPECS[0])
        compiled = compile_circuit(circuit)
        rng = random.Random(99)
        patterns = [ternary_pattern(circuit.inputs, rng) for _ in range(130)]
        batched = compiled.evaluate_many(patterns)
        singles = [compiled.evaluate(p) for p in patterns]
        assert batched == singles

    def test_query_outputs_matches_full_evaluation(self):
        circuit = random_sequential_circuit(SPECS[1])
        compiled = compile_circuit(circuit)
        rng = random.Random(7)
        patterns = [ternary_pattern(circuit.inputs, rng) for _ in range(70)]
        outputs = compiled.query_outputs(patterns)
        full = compiled.evaluate_many(patterns)
        for out, values in zip(outputs, full):
            assert out == {net: values[net] for net in circuit.outputs}

    def test_widths_agree_lane_for_lane(self):
        """The same patterns as dicts (64 per pass) and as plane batches
        (one pass each, of 193, 64 and 1 lanes) answer the same."""
        circuit = random_sequential_circuit(SPECS[1])
        compiled = compile_circuit(circuit)
        rng = random.Random(31)
        patterns = [ternary_pattern(circuit.inputs, rng) for _ in range(193)]
        reference = compiled.query_outputs(patterns)
        for size in (193, 64, 1):
            got = []
            for start in range(0, len(patterns), size):
                batch = PlaneBatch.pack(circuit.inputs,
                                        patterns[start:start + size])
                got += compiled.query_outputs(batch).unpack()
            assert got == reference
