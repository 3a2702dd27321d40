"""Property suite for the key-cone SAT-attack miter and its encoder.

Random :class:`~repro.netlist.Builder` circuits over every cell
function (at most 6 inputs and 3 key inputs) are checked against
independent references — the compiled evaluator and brute-force
enumeration over inputs and key pairs:

(a) the Tseitin encoding of one copy agrees with the evaluator, on
    these circuits and on the combinational views of small
    :func:`~repro.bench.generator.random_sequential_circuit` netlists;
(b) a gate whose output is pre-bound is not encoded again, and a second
    copy sharing key-independent nets with the first still agrees with
    the evaluator under its own key;
(c) one pinned DIP admits exactly the keys whose simulation matches the
    response;
(d) the key-cone miter is SAT under ``diff`` exactly when two keys
    disagree on some input.

Example volume comes from the ``tests/sat/conftest.py`` hypothesis
profiles (``HYPOTHESIS_PROFILE=ci`` runs 200+ examples per property).
"""

import itertools

from hypothesis import given, strategies as st
from hypothesis_profiles import active_profile

from repro.attacks.sat_attack import KeyConeMiter
from repro.bench.generator import GeneratorSpec, random_sequential_circuit
from repro.netlist import Builder
from repro.netlist.compiled import compile_circuit
from repro.netlist.transform import extract_combinational
from repro.sat import CNF, CircuitEncoder, Solver
from repro.sat.tseitin import encode_gate_function

FUNCTIONS = (
    "AND2", "NAND2", "OR2", "NOR2", "XOR2", "XNOR2", "INV", "BUF",
    "MUX2", "MUX4", "LUT", "TIE0", "TIE1",
)


@st.composite
def circuits(draw, min_keys=0):
    """A random combinational circuit; every net may drive an output."""
    num_inputs = draw(st.integers(1, 6))
    num_keys = draw(st.integers(min_keys, 3))
    b = Builder("rand")
    nets = list(b.inputs(*(f"i{n}" for n in range(num_inputs))))
    nets += [b.key_input(f"k{n}") for n in range(num_keys)]
    for _ in range(draw(st.integers(1, 12))):
        function = draw(st.sampled_from(FUNCTIONS))

        def pick(count):
            return [draw(st.sampled_from(nets)) for _ in range(count)]

        if function == "TIE0":
            out = b.const0()
        elif function == "TIE1":
            out = b.const1()
        elif function in ("INV", "BUF"):
            out = (b.inv if function == "INV" else b.buf)(*pick(1))
        elif function == "MUX2":
            out = b.mux2(*pick(3))
        elif function == "MUX4":
            out = b.mux4(*pick(6))
        elif function == "LUT":
            arity = draw(st.integers(2, 4))
            table = draw(st.lists(
                st.integers(0, 1), min_size=1 << arity, max_size=1 << arity
            ))
            out = b.lut(pick(arity), table)
        else:
            method = {
                "AND2": b.and2, "NAND2": b.nand2, "OR2": b.or2,
                "NOR2": b.nor2, "XOR2": b.xor, "XNOR2": b.xnor,
            }[function]
            out = method(*pick(2))
        nets.append(out)
    for net in draw(st.lists(
        st.sampled_from(nets), min_size=1, max_size=4, unique=True
    )):
        b.po(net)
    return b.circuit


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


def bits(data, nets):
    return {net: data.draw(st.integers(0, 1)) for net in nets}


def all_keys(circuit):
    return [
        dict(zip(circuit.key_inputs, values))
        for values in itertools.product((0, 1), repeat=len(circuit.key_inputs))
    ]


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


def gate_clause_count(compiled, index):
    """Clauses the encoder emits for gate *index* on fresh operands."""
    scratch = CNF()
    operands = [
        scratch.new_var() for _ in compiled.fanin_name_tuples[index]
    ]
    encode_gate_function(
        scratch, compiled.functions[index], scratch.new_var(), operands,
        compiled.truth_tables[index],
    )
    return len(scratch.clauses)


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
    """(b) Copy 2 shares a random set of key-independent gate outputs
    with copy 1: exactly the other gates are encoded, and both copies
    still compute the evaluator's outputs under their own keys."""
    cnf = CNF()
    copy1 = CircuitEncoder(cnf, circuit)
    compiled = compile_circuit(circuit)
    cone = key_cone_nets(circuit)
    shareable = [
        index for index, net in enumerate(compiled.out_names)
        if net not in cone
    ]
    shared = set(data.draw(st.lists(
        st.sampled_from(shareable), unique=True
    ) if shareable else st.just([])))
    net_vars = {net: copy1.var_of[net] for net in circuit.inputs}
    net_vars.update(
        (compiled.out_names[index], copy1.var_of[compiled.out_names[index]])
        for index in shared
    )
    before = len(cnf.clauses)
    copy2 = CircuitEncoder(cnf, circuit, net_vars=net_vars)
    assert len(cnf.clauses) - before == sum(
        gate_clause_count(compiled, index)
        for index in range(compiled.num_gates) if index not in shared
    )
    for index in shared:
        net = compiled.out_names[index]
        assert copy2.var_of[net] == copy1.var_of[net]

    pattern = bits(data, circuit.inputs)
    key1 = bits(data, circuit.key_inputs)
    key2 = bits(data, circuit.key_inputs)
    fixed = [lit(copy1.var_of[net], v) for net, v in pattern.items()]
    outputs = []
    for copy, key in ((copy1, key1), (copy2, key2)):
        fixed += [lit(copy.var_of[net], v) for net, v in key.items()]
        expected = compiled.evaluate(dict(pattern, **key))
        outputs += [
            lit(copy.var_of[net], expected[net]) for net in circuit.outputs
        ]
    solver = Solver()
    solver.add_cnf(cnf)
    assert_outputs_pinned(solver, fixed, outputs)


@active_profile()
@given(circuit=circuits(min_keys=1), data=st.data())
def test_dip_constraint_admits_exactly_matching_keys(circuit, data):
    """(c) After pinning one pattern/response, a key pair is consistent
    iff both keys reproduce the response in exhaustive simulation."""
    solver = Solver()
    miter = KeyConeMiter(
        solver, circuit, {net: net for net in circuit.outputs}
    )
    pattern = bits(data, circuit.inputs)
    keys = all_keys(circuit)
    answers = compile_circuit(circuit).query_outputs(
        [dict(pattern, **key) for key in keys]
    )
    if data.draw(st.booleans()):
        response = data.draw(st.sampled_from(answers))
    else:
        response = bits(data, circuit.outputs)
    miter.pin(pattern, response)
    matches = [answer == response for answer in answers]
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
        solver, circuit, {net: net for net in circuit.outputs}
    )
    compiled = compile_circuit(circuit)
    keys = all_keys(circuit)
    patterns = [
        dict(zip(circuit.inputs, values))
        for values in itertools.product((0, 1), repeat=len(circuit.inputs))
    ]
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
