"""Equivalence and ATPG verdicts against exhaustive simulation.

:func:`~repro.netlist.equivalence.check_equivalence`,
:func:`~repro.netlist.equivalence.check_sequential_equivalence` and
:func:`~repro.netlist.atpg.generate_test` encode both of their copies
through one structural-hash table, so most of a miter folds away
before the solver sees it.  These properties draw small random
:class:`~repro.netlist.Builder` circuits (``tests/random_circuits.py``),
with and without keys and with pinned internal nets, and compare every
verdict with a simulation of every input pattern; the bounded
sequential check draws two XOR locks of one small random sequential
design under random keys and compares with
:class:`~repro.sim.cyclesim.CycleSimulator` runs from reset over every
input sequence.  Every counterexample and every test pattern must
really tell the two circuits apart.

Example volume comes from the ``tests/hypothesis_profiles.py`` profiles
(``HYPOTHESIS_PROFILE=ci`` runs 200+ examples per property).
"""

import itertools

from hypothesis import given, strategies as st
from hypothesis_profiles import active_profile
from random_circuits import (
    all_patterns, bits, circuit_pairs, circuits, sequential_designs,
    simulate, xor_locks,
)

from repro.netlist.atpg import Fault, generate_test
from repro.netlist.equivalence import (
    check_equivalence, check_sequential_equivalence,
)
from repro.sim.cyclesim import CycleSimulator


def internal_pins(data, circuit):
    """0-2 gate outputs of *circuit* pinned to random values."""
    gate_outputs = sorted(gate.output for gate in circuit.gates.values())
    return bits(data, data.draw(st.lists(
        st.sampled_from(gate_outputs), max_size=2, unique=True
    )))


def respond(circuit, pattern, key, pins):
    """*circuit*'s outputs on *pattern*, or None where a pin fails."""
    values = simulate(circuit, dict(pattern, **key))
    if any(values[net] != value for net, value in pins.items()):
        return None
    return [values[net] for net in circuit.outputs]


@active_profile()
@given(pair=circuit_pairs(), data=st.data())
def test_equivalence_verdict_matches_exhaustive_simulation(pair, data):
    """Equivalent iff no input on which every pinned net holds makes the
    outputs differ; a counterexample is such an input, and
    ``differing_outputs`` names exactly the outputs that differ on it."""
    a, b = pair
    key_a, key_b = bits(data, a.key_inputs), bits(data, b.key_inputs)
    pins_a = internal_pins(data, a) if data.draw(st.booleans()) else {}
    pins_b = internal_pins(data, b) if data.draw(st.booleans()) else {}
    result = check_equivalence(
        a, b, dict(key_a, **pins_a), dict(key_b, **pins_b)
    )

    def outputs(pattern):
        return (respond(a, pattern, key_a, pins_a),
                respond(b, pattern, key_b, pins_b))

    distinguishing = False
    for pattern in all_patterns(a.inputs):
        out_a, out_b = outputs(pattern)
        if out_a is not None and out_b is not None and out_a != out_b:
            distinguishing = True
    assert result.equivalent == (not distinguishing)
    if not result.equivalent:
        out_a, out_b = outputs(result.counterexample)
        assert out_a is not None and out_b is not None
        assert result.differing_outputs == {
            net_a: net_b
            for net_a, net_b, value_a, value_b
            in zip(a.outputs, b.outputs, out_a, out_b)
            if value_a != value_b
        }


@active_profile()
@given(circuit=circuits(), data=st.data())
def test_generate_test_matches_exhaustive_fault_simulation(circuit, data):
    """A stuck-at fault on any net (input, key or gate output), with
    every key pinned and maybe some internal nets of the good circuit:
    a test exists iff some input on which the pins hold shows the fault
    at an output, and the returned test shows it at ``observed_at``."""
    fault = Fault(
        data.draw(st.sampled_from(sorted(circuit.nets()))),
        data.draw(st.integers(0, 1)),
    )
    key = bits(data, circuit.key_inputs)
    pins = internal_pins(data, circuit) if data.draw(st.booleans()) else {}
    test = generate_test(circuit, fault, key=dict(key, **pins) or None)

    def observed(pattern):
        good = respond(circuit, pattern, key, pins)
        if good is None:
            return set()
        faulty = simulate(
            circuit, dict(pattern, **key), {fault.net: fault.stuck_at}
        )
        return {
            net for net, value in zip(circuit.outputs, good)
            if faulty[net] != value
        }

    testable = any(observed(p) for p in all_patterns(circuit.inputs))
    assert (test is not None) == testable
    if test is not None:
        assert test.observed_at in observed(test.inputs)


@active_profile()
@given(data=st.data())
def test_sequential_equivalence_matches_exhaustive_runs(data):
    """Two XOR locks of one small random sequential design, each under a
    random key: equivalent over T frames iff no input sequence of T
    frames from reset makes their output traces differ, and the
    counterexample (``"<input>@<frame>"`` -> bit) is such a sequence."""
    design = data.draw(sequential_designs())
    a, b = data.draw(xor_locks(design)), data.draw(xor_locks(design))
    key_a, key_b = bits(data, a.key_inputs), bits(data, b.key_inputs)
    frames = data.draw(st.integers(1, 3))
    result = check_sequential_equivalence(a, b, frames, key_a, key_b)

    def traces(sequence):
        return [
            [[outputs[net] for net in circuit.outputs] for outputs in
             CycleSimulator(circuit, reset_value=0).run(
                 [dict(frame, **key) for frame in sequence])]
            for circuit, key in ((a, key_a), (b, key_b))
        ]

    sequences = [
        [dict(zip(design.inputs, values[t * len(design.inputs):]))
         for t in range(frames)]
        for values in itertools.product(
            (0, 1), repeat=frames * len(design.inputs))
    ]
    distinguishing = any(
        trace_a != trace_b
        for trace_a, trace_b in map(traces, sequences)
    )
    assert result.equivalent == (not distinguishing)
    if not result.equivalent:
        sequence = [
            {net: result.counterexample[f"{net}@{t}"]
             for net in design.inputs}
            for t in range(frames)
        ]
        assert len(result.counterexample) == frames * len(design.inputs)
        trace_a, trace_b = traces(sequence)
        assert trace_a != trace_b
