"""Property suite for the hashed SAT-attack miter and its encoder.

Random :class:`~repro.netlist.Builder` circuits over every cell
function (at most 6 inputs and 3 key inputs, ``tests/random_circuits.py``)
are checked against independent references — the compiled evaluator,
a forcing gate-by-gate simulation and brute-force enumeration over
inputs and key pairs:

(a) the encoding of one copy agrees with the evaluator, on these
    circuits and on the combinational views of small
    :func:`~repro.bench.generator.random_sequential_circuit` netlists;
(b) on one node table a pre-bound gate is never encoded, a second copy
    adds nothing for the gates whose fan-in literals match copy 1's,
    and both copies compute the evaluator's outputs under their own
    keys;
(c) 1-3 successive pins on the miter's table admit exactly the key
    pairs whose simulation matches every response;
(d) the miter is SAT under ``diff`` exactly when two keys disagree on
    some input;
(e) two copies on one table with random nets pre-bound to constants
    give every net the value of a simulation that forces those nets,
    and encoding a copy again adds nothing and returns its literals.

Example volume comes from the ``tests/hypothesis_profiles.py`` profiles
(``HYPOTHESIS_PROFILE=ci`` runs 200+ examples per property).
"""

import copy

from hypothesis import given, strategies as st
from hypothesis_profiles import active_profile
from random_circuits import all_patterns, bits, circuits, simulate

from repro.attacks.sat_attack import KeyConeMiter
from repro.bench.generator import GeneratorSpec, random_sequential_circuit
from repro.netlist.compiled import compile_circuit
from repro.netlist.transform import combinational_view, extract_combinational
from repro.sat import CNF, CircuitEncoder, Solver
from repro.sat.tseitin import NodeTable


@st.composite
def sequential_views(draw):
    """The combinational view of a small random sequential netlist."""
    return extract_combinational(random_sequential_circuit(GeneratorSpec(
        name="seq",
        num_inputs=draw(st.integers(1, 4)),
        num_outputs=draw(st.integers(1, 3)),
        num_flip_flops=draw(st.integers(1, 4)),
        num_combinational=draw(st.integers(2, 30)),
        seed=draw(st.integers(0, 2 ** 16)),
    ))).circuit


def lit(var, value):
    return var if value else -var


def key_cone_nets(circuit):
    cone = set(circuit.key_inputs)
    for net in circuit.key_inputs:
        cone.update(
            circuit.gates[name].output for name in circuit.fanout_cone(net)
        )
    return cone


def assert_outputs_pinned(solver, fixed, outputs):
    """SAT with *outputs* as given, UNSAT with any single one flipped."""
    assert solver.solve(fixed + outputs)
    for index in range(len(outputs)):
        flipped = list(outputs)
        flipped[index] = -flipped[index]
        assert not solver.solve(fixed + flipped), index


@active_profile()
@given(circuit=st.one_of(circuits(), sequential_views()), data=st.data())
def test_tseitin_agrees_with_evaluator(circuit, data):
    """(a) With inputs and keys fixed, the outputs are forced to the
    compiled evaluator's values."""
    cnf = CNF()
    encoder = CircuitEncoder(cnf, circuit)
    assignment = bits(data, circuit.inputs + circuit.key_inputs)
    expected = compile_circuit(circuit).evaluate(assignment)
    solver = Solver()
    solver.add_cnf(cnf)
    fixed = [lit(encoder.var_of[net], v) for net, v in assignment.items()]
    outputs = [
        lit(encoder.var_of[net], expected[net]) for net in circuit.outputs
    ]
    assert_outputs_pinned(solver, fixed, outputs)


@active_profile()
@given(circuit=circuits(min_keys=1), data=st.data())
def test_prebound_gates_not_reencoded(circuit, data):
    """(b) On one table, copy 2 takes copy 1's input literals and fresh
    keys; it pre-binds a random set of key-independent gate outputs to
    copy 1's literals and a random set of key-dependent ones to fresh
    variables (cut points).  Every pre-bound net keeps its literal, and
    copy 2 adds exactly what it adds with *every* key-independent gate
    pre-bound: a gate whose fan-in literals all match copy 1's hashes
    onto copy 1's node and adds nothing.  With each cut point set to its
    net's value, both copies compute the evaluator's outputs under their
    own keys."""
    cnf = CNF()
    table = NodeTable()
    copy1 = CircuitEncoder(cnf, circuit, table=table)
    compiled = compile_circuit(circuit)
    cone = key_cone_nets(circuit)

    def some(nets):
        return data.draw(
            st.lists(st.sampled_from(nets), unique=True) if nets
            else st.just([])
        )

    outside = [net for net in compiled.out_names if net not in cone]
    shared = some(outside)
    cut = some([net for net in compiled.out_names if net in cone])
    bound = {net: copy1.var_of[net] for net in circuit.inputs}
    bound.update((net, cnf.new_var()) for net in cut)

    # The reference: copy 2 on a snapshot of the table with every gate
    # outside the key cone pre-bound.
    cone_cnf, cone_table = copy.deepcopy((cnf, table))
    cone_only = CircuitEncoder(cone_cnf, circuit, dict(
        bound, **{net: copy1.var_of[net] for net in outside}
    ), table=cone_table)

    before = len(cnf.clauses)
    copy2 = CircuitEncoder(cnf, circuit, dict(
        bound, **{net: copy1.var_of[net] for net in shared}
    ), table=table)
    for net in shared:
        assert copy2.var_of[net] == copy1.var_of[net]
    for net in cut:
        assert copy2.var_of[net] == bound[net]
    assert cnf.clauses[before:] == cone_cnf.clauses[before:]
    assert cnf.num_vars == cone_cnf.num_vars
    assert copy2.var_of == cone_only.var_of

    pattern = bits(data, circuit.inputs)
    fixed = [lit(copy1.var_of[net], v) for net, v in pattern.items()]
    outputs = []
    for encoder in (copy1, copy2):
        key = bits(data, circuit.key_inputs)
        fixed += [lit(encoder.var_of[net], v) for net, v in key.items()]
        expected = compiled.evaluate(dict(pattern, **key))
        if encoder is copy2:
            fixed += [lit(bound[net], expected[net]) for net in cut]
        outputs += [
            lit(encoder.var_of[net], expected[net]) for net in circuit.outputs
        ]
    solver = Solver()
    solver.add_cnf(cnf)
    assert_outputs_pinned(solver, fixed, outputs)


@active_profile()
@given(circuit=circuits(min_keys=1), data=st.data())
def test_dip_constraint_admits_exactly_matching_keys(circuit, data):
    """(c) After 1-3 pinned patterns on the miter's one table, a key pair
    is consistent iff both keys reproduce every response in exhaustive
    simulation."""
    solver = Solver()
    miter = KeyConeMiter(
        solver, combinational_view(circuit),
        {net: net for net in circuit.outputs},
    )
    keys = all_patterns(circuit.key_inputs)
    matches = [True] * len(keys)
    for _ in range(data.draw(st.integers(1, 3))):
        pattern = bits(data, circuit.inputs)
        answers = compile_circuit(circuit).query_outputs(
            [dict(pattern, **key) for key in keys]
        )
        if data.draw(st.booleans()):
            response = data.draw(st.sampled_from(answers))
        else:
            response = bits(data, circuit.outputs)
        miter.pin(pattern, response)
        matches = [
            match and answer == response
            for match, answer in zip(matches, answers)
        ]
    key_vars1, key_vars2 = miter.key_vars
    for key1, match1 in zip(keys, matches):
        for key2, match2 in zip(keys, matches):
            assumptions = [
                lit(key_vars1[net], v) for net, v in key1.items()
            ] + [lit(key_vars2[net], v) for net, v in key2.items()]
            assert solver.solve(assumptions) == (match1 and match2), (
                key1, key2,
            )


@active_profile()
@given(circuit=circuits(min_keys=1))
def test_miter_sat_iff_two_keys_disagree(circuit):
    """(d) ``diff`` is satisfiable iff brute force over inputs x key
    pairs finds an input on which two keys disagree; a model is such a
    witness."""
    solver = Solver()
    miter = KeyConeMiter(
        solver, combinational_view(circuit),
        {net: net for net in circuit.outputs},
    )
    compiled = compile_circuit(circuit)
    keys = all_patterns(circuit.key_inputs)
    patterns = all_patterns(circuit.inputs)
    answers = compiled.query_outputs([
        dict(pattern, **key) for pattern in patterns for key in keys
    ])
    disagree = any(
        any(answer != block[0] for answer in block)
        for block in (
            answers[start:start + len(keys)]
            for start in range(0, len(answers), len(keys))
        )
    )
    assert solver.solve([miter.diff]) == disagree
    if disagree:
        model = solver.model()
        dip = miter.dip(model)
        key1, key2 = (
            {net: int(model[var]) for net, var in key_vars.items()}
            for key_vars in miter.key_vars
        )
        assert miter.key(model) == key1
        first, second = compiled.query_outputs(
            [dict(dip, **key1), dict(dip, **key2)]
        )
        assert first != second


@active_profile()
@given(circuit=circuits(), data=st.data())
def test_shared_table_copies_fold_constants(circuit, data):
    """(e) Two copies share one table: copy 2 takes copy 1's input
    literals and fresh keys, and each copy pre-binds its own random set
    of nets (inputs, keys or gate outputs) to constants.  With the free
    inputs and keys fixed, every net's literal takes the value of a
    simulation that forces those nets.  Encoding copy 2 again with the
    same table and the same input, key and pre-bound literals adds no
    clause and no variable and returns identical literals."""
    cnf = CNF()
    table = NodeTable()
    nets = sorted(circuit.nets())

    def forced():
        return bits(data, data.draw(st.lists(
            st.sampled_from(nets), max_size=4, unique=True
        )))

    forced1, forced2 = forced(), forced()
    copy1 = CircuitEncoder(cnf, circuit, {
        net: table.constant(cnf, v) for net, v in forced1.items()
    }, table=table)
    bound2 = {net: copy1.var_of[net] for net in circuit.inputs}
    bound2.update(
        (net, table.constant(cnf, v)) for net, v in forced2.items()
    )
    copy2 = CircuitEncoder(cnf, circuit, bound2, table=table)

    pattern = bits(data, circuit.inputs)
    keys1 = bits(data, circuit.key_inputs)
    keys2 = bits(data, circuit.key_inputs)
    values1 = simulate(circuit, dict(pattern, **keys1), forced1)
    # copy 2 reads copy 1's input literals, forced ones included
    inputs2 = {net: values1[net] for net in circuit.inputs}
    values2 = simulate(circuit, dict(inputs2, **keys2), forced2)

    fixed, expected = [], []
    for encoder, free, pins, values in (
        (copy1, dict(pattern, **keys1), forced1, values1),
        (copy2, keys2, forced2, values2),
    ):
        fixed += [
            lit(encoder.var_of[net], v) for net, v in free.items()
            if net not in pins
        ]
        expected += [lit(encoder.var_of[net], values[net]) for net in nets]
    solver = Solver()
    solver.add_cnf(cnf)
    assert_outputs_pinned(solver, fixed, expected)

    clauses, num_vars = len(cnf.clauses), cnf.num_vars
    again = CircuitEncoder(cnf, circuit, dict(
        bound2, **{net: copy2.var_of[net] for net in circuit.key_inputs}
    ), table=table)
    assert (len(cnf.clauses), cnf.num_vars) == (clauses, num_vars)
    assert again.var_of == copy2.var_of
