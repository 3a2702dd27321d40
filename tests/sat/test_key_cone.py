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
    and encoding a copy again adds nothing and returns its literals;
(f) the miter's copies encode only the keys' cone of influence
    (:func:`~repro.netlist.transform.key_influence_view`): it keeps
    exactly the outputs in the keys' fan-out and their fan-in, in the
    view's order, and every output it leaves out is a function of the
    inputs alone;
(g) on random locks (the circuits above and XOR locks of small
    sequential designs) the miter, whose copy 2 and pins walk only the
    keys' fan-out cone twice, adds the same clauses in the same batches
    and order, and ends with the same variables, as a reference miter
    whose copy 2 and pins walk whole copies, over 1-3 random patterns
    and responses (some outputs unknown).

On the combinational copy, (c) and (d) check that smaller base against
brute force: about three in four drawn circuits have an output no key
reaches, and about one in eleven has keys that reach no output at all
(one in twenty of the time-expanded copy's smaller circuits), since the
strategy leads most circuits' outputs with a net some key reaches
(:func:`test_circuits_draw_key_independent_outputs` checks that it
draws both kinds).  The edge cases are pinned below them: keys that
reach no output, a key-independent output sharing fan-in with the
cone, and an unrolled copy, which is encoded whole.

(c) and (d) also run on the miter's two other copy kinds: the
unrolled copy (small XOR-locked
:func:`~repro.bench.generator.random_sequential_circuit` netlists over
1-3 frames, against :class:`~repro.sim.cyclesim.CycleSimulator` runs
from reset over every input sequence) and the time-expanded copy
(random circuits with at most 3 inputs and 2 keys, against
:func:`~repro.attacks.tcf.two_vector_response` over every (V1, V2)
pair, sampled half a tick after the copy's last tick, which is often a
tick on which some net switches).

Example volume comes from the ``tests/hypothesis_profiles.py`` profiles
(``HYPOTHESIS_PROFILE=ci`` runs 200+ examples per property).
"""

import copy

from hypothesis import find, given, settings, strategies as st
from hypothesis_profiles import active_profile
from random_circuits import (
    all_patterns, bits, circuits, sequential_designs, simulate, xor_locks,
)

from repro.attacks import CombinationalOracle
from repro.attacks.sat_attack import KeyConeMiter, sat_attack
from repro.attacks.tcf import two_vector_response
from repro.bench.generator import GeneratorSpec, random_sequential_circuit
from repro.netlist import Builder
from repro.netlist.compiled import compile_circuit
from repro.netlist.transform import (
    combinational_view, extract_combinational, key_influence_view,
    timed_view, unrolled_view,
)
from repro.sat import CNF, CircuitEncoder, Solver
from repro.sat.tseitin import NodeTable, miter_xors
from repro.sim.cyclesim import CycleSimulator

#: The timed copies' tick, in ns: every default-library cell delay is a
#: whole number of ticks, so the event simulator's transitions land on
#: ticks and a sample half a tick later is never on an edge.
TICK = 0.005


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


@st.composite
def locked_sequential(draw):
    """A small XOR-locked random sequential netlist and a frame count of
    1-3."""
    locked = draw(xor_locks(draw(sequential_designs())))
    return locked, draw(st.integers(1, 3))


def lit(var, value):
    return var if value else -var


def evaluator_responses(circuit):
    """``respond(pattern, keys)``: the compiled evaluator's outputs."""
    compiled = compile_circuit(circuit)
    return lambda pattern, keys: compiled.query_outputs(
        [dict(pattern, **key) for key in keys]
    )


def sequence_responses(netlist, frames):
    """``respond(pattern, keys)`` over ``(input, frame)`` tags: each
    key's ``(output, frame)`` trace, simulated from reset."""
    def respond(pattern, keys):
        sequence = [{net: pattern[(net, t)] for net in netlist.inputs}
                    for t in range(frames)]
        answers = []
        for key in keys:
            trace = CycleSimulator(netlist, reset_value=0).run(
                [dict(frame, **key) for frame in sequence]
            )
            answers.append({
                (net, t): value
                for t, outputs in enumerate(trace)
                for net, value in outputs.items()
            })
        return answers
    return respond


def two_vector_responses(circuit, sample_time):
    """``respond(pattern, keys)`` over ``(input, 0)`` (V1) and
    ``(input, 1)`` (V2) tags: each key's event-simulated outputs."""
    def respond(pattern, keys):
        v1, v2 = ({net: pattern[(net, v)] for net in circuit.inputs}
                  for v in (0, 1))
        return [two_vector_response(circuit, v1, v2, sample_time, key=key)
                for key in keys]
    return respond


def switching_ticks(circuit):
    """Every tick at which some net may switch once V2 is applied at
    tick 0, and the tick before each."""
    at = {net: {0} for net in circuit.inputs}
    for gate in circuit.topological_order():
        delay = round(gate.cell.delay / TICK)
        at[gate.output] = {
            delay + t for net in gate.input_nets() for t in at.get(net, ())
        }
    edges = set().union(*at.values())
    return sorted(edges | {t - 1 for t in edges if t})


def timed_case(draw, circuit):
    """The timed view of *circuit* at a drawn tick count, often one at
    or just before a switching tick, and the sample time half a tick
    past its last tick."""
    ticks = draw(st.one_of(
        st.sampled_from(switching_ticks(circuit)), st.integers(0, 80),
    ))
    return timed_view(circuit, ticks, TICK), (ticks + 0.5) * TICK


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


def assert_pins_admit_matching_keys(data, view, key_inputs, respond):
    """(c) on *view*: after 1-3 pins, a key pair is consistent iff both
    keys reproduce every response.  *respond(pattern, keys)* gives each
    key's response, keyed by *view*'s output names."""
    solver = Solver()
    miter = KeyConeMiter(solver, view, {name: name for name in view.outputs})
    keys = all_patterns(key_inputs)
    matches = [True] * len(keys)
    for _ in range(data.draw(st.integers(1, 3))):
        pattern = bits(data, view.inputs)
        answers = respond(pattern, keys)
        if data.draw(st.booleans()):
            response = data.draw(st.sampled_from(answers))
        else:
            response = bits(data, view.outputs)
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


def assert_diff_iff_keys_disagree(view, key_inputs, respond):
    """(d) on *view*: ``diff`` is satisfiable iff brute force over every
    input pattern and key finds a pattern on which two keys disagree; a
    model is such a witness."""
    solver = Solver()
    miter = KeyConeMiter(solver, view, {name: name for name in view.outputs})
    keys = all_patterns(key_inputs)
    disagree = any(
        any(answer != answers[0] for answer in answers)
        for answers in (
            respond(pattern, keys) for pattern in all_patterns(view.inputs)
        )
    )
    assert solver.solve([miter.diff]) == disagree
    if disagree:
        model = solver.model()
        key1, key2 = (
            {net: int(model[var]) for net, var in key_vars.items()}
            for key_vars in miter.key_vars
        )
        assert miter.key(model) == key1
        first, second = respond(miter.dip(model), [key1, key2])
        assert first != second


@active_profile()
@given(circuit=circuits(min_keys=1), data=st.data())
def test_dip_constraint_admits_exactly_matching_keys(circuit, data):
    """(c) After 1-3 pinned patterns on the miter's one table, a key pair
    is consistent iff both keys reproduce every response in exhaustive
    simulation."""
    assert_pins_admit_matching_keys(
        data, combinational_view(circuit), circuit.key_inputs,
        evaluator_responses(circuit),
    )


@active_profile()
@given(case=locked_sequential(), data=st.data())
def test_unrolled_dip_constraint_admits_exactly_matching_keys(case, data):
    """(c) on the unrolled copy: pinned input sequences admit exactly
    the key pairs whose runs from reset reproduce every trace."""
    netlist, frames = case
    assert_pins_admit_matching_keys(
        data, unrolled_view(netlist, frames), netlist.key_inputs,
        sequence_responses(netlist, frames),
    )


@active_profile()
@given(circuit=circuits(min_keys=1, max_inputs=3, max_keys=2),
       data=st.data())
def test_timed_dip_constraint_admits_exactly_matching_keys(circuit, data):
    """(c) on the time-expanded copy: pinned (V1, V2) tests admit
    exactly the key pairs whose event simulation reproduces every
    sampled response."""
    view, sample_time = timed_case(data.draw, circuit)
    assert_pins_admit_matching_keys(
        data, view, circuit.key_inputs,
        two_vector_responses(circuit, sample_time),
    )


@active_profile()
@given(circuit=circuits(min_keys=1))
def test_miter_sat_iff_two_keys_disagree(circuit):
    """(d) ``diff`` is satisfiable iff brute force over inputs x key
    pairs finds an input on which two keys disagree; a model is such a
    witness."""
    assert_diff_iff_keys_disagree(
        combinational_view(circuit), circuit.key_inputs,
        evaluator_responses(circuit),
    )


@active_profile()
@given(case=locked_sequential())
def test_unrolled_miter_sat_iff_two_keys_disagree(case):
    """(d) on the unrolled copy: ``diff`` is satisfiable iff some input
    sequence from reset makes two keys' traces differ in some frame."""
    netlist, frames = case
    assert_diff_iff_keys_disagree(
        unrolled_view(netlist, frames), netlist.key_inputs,
        sequence_responses(netlist, frames),
    )


@active_profile()
@given(circuit=circuits(min_keys=1, max_inputs=3, max_keys=2),
       data=st.data())
def test_timed_miter_sat_iff_two_keys_disagree(circuit, data):
    """(d) on the time-expanded copy: ``diff`` is satisfiable iff some
    (V1, V2) test makes two keys' sampled outputs differ."""
    view, sample_time = timed_case(data.draw, circuit)
    assert_diff_iff_keys_disagree(
        view, circuit.key_inputs, two_vector_responses(circuit, sample_time),
    )


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


@active_profile()
@given(circuit=circuits(min_keys=1))
def test_key_influence_view_keeps_what_keys_reach(circuit):
    """(f) The kept outputs are those in a key's fan-out and the kept
    gates their fan-in (by ``Circuit.fanout_cone`` and
    ``fanin_cone``), a subsequence of the view's gates whose fan-ins are
    inputs, keys or kept gates' outputs; an output left out keeps its
    value under every key, for every input."""
    view = combinational_view(circuit)
    cone = key_influence_view(view)
    assert (cone.inputs, cone.key_inputs) == (view.inputs, view.key_inputs)
    reached = key_cone_nets(circuit)
    assert cone.outputs == [net for net in view.outputs if net in reached]
    fanin = {
        circuit.gates[name].output
        for net in cone.outputs for name in circuit.fanin_cone(net)
    }
    assert {gate[1] for gate in cone.gates} == fanin
    positions = [view.gates.index(gate) for gate in cone.gates]
    assert positions == sorted(positions)
    defined = set(view.inputs + view.key_inputs)
    for _function, out, fanins, _table in cone.gates:
        assert defined.issuperset(fanins)
        defined.add(out)
    assert defined.issuperset(cone.outputs)
    left_out = [net for net in view.outputs if net not in set(cone.outputs)]
    respond = evaluator_responses(circuit)
    keys = all_patterns(circuit.key_inputs)
    for pattern in all_patterns(circuit.inputs):
        answers = respond(pattern, keys)
        for net in left_out:
            assert len({answer[net] for answer in answers}) == 1, net


def test_circuits_draw_key_independent_outputs():
    """The ``circuits`` strategy behind (c) and (d) draws circuits with
    an output no key reaches (about three in four do) and circuits
    whose keys reach no output (about one in eleven)."""
    def dropped(circuit):
        view = combinational_view(circuit)
        return len(view.outputs) - len(key_influence_view(view).outputs)

    quick = settings(database=None, max_examples=200)
    mixed = find(circuits(min_keys=1),
                 lambda c: 0 < dropped(c) < len(c.outputs), settings=quick)
    assert key_influence_view(combinational_view(mixed)).outputs
    unreached = find(circuits(min_keys=1),
                     lambda c: dropped(c) == len(c.outputs), settings=quick)
    assert not key_influence_view(combinational_view(unreached)).outputs


def node_kinds(miter):
    return sorted(key[0] for key in miter.table.nodes)


def test_keys_reaching_no_output():
    """The base is the key and input variables and ``NOT diff``: no
    XOR, every output merged.  The first query is UNSAT and a key is
    still extracted."""
    def build(locked):
        b = Builder("unreached")
        a, c = b.inputs("a", "b")
        if locked:
            b.and2(a, b.key_input("k0"))  # drives nothing
        b.po(b.or2(a, c), "y")
        return b.circuit

    circuit = build(locked=True)
    view = combinational_view(circuit)
    solver = Solver()
    miter = KeyConeMiter(solver, view, {net: net for net in view.outputs})
    assert miter.merged_outputs == 1
    assert miter.clauses == 1 and miter.table.nodes == {}
    assert not solver.solve([miter.diff])

    result = sat_attack(circuit, CombinationalOracle(build(locked=False)))
    assert result.completed and result.unsat_at_first_iteration
    assert set(result.key) == {"k0"}


def shared_fanin(locked, y2_function="or2"):
    """``y1 = AND(a, b) XOR k`` (just the AND unless *locked*) and
    ``y2 = AND(a, b) <op> c``: the key-independent ``y2`` reads the
    cone's AND."""
    b = Builder("locked" if locked else "chip")
    a, bb, c = b.inputs("a", "b", "c")
    shared = b.and2(a, bb)
    if locked:
        b.po(b.xor(shared, b.key_input("k0")), "y1")
    else:
        b.po(shared, "y1")
    b.po(getattr(b, y2_function)(shared, c), "y2")
    return b.circuit


def test_key_independent_output_sharing_the_cone():
    """``y2``'s gate is left out of the base, the AND it shares with
    ``y1`` is encoded once, and each pin still constrains ``y2``: an
    oracle whose ``y2`` no key reproduces leaves no key."""
    locked = shared_fanin(locked=True)
    view = combinational_view(locked)
    cone = key_influence_view(view)
    assert cone.outputs == ["y1"]
    assert [gate[0] for gate in cone.gates] == ["AND2", "XOR2", "BUF"]
    miter = KeyConeMiter(Solver(), view, {net: net for net in view.outputs})
    assert miter.merged_outputs == 1
    assert node_kinds(miter) == ["and", "xor", "xor"]

    result = sat_attack(locked, CombinationalOracle(shared_fanin(False)))
    assert result.completed and result.key == {"k0": 0}
    wrong = CombinationalOracle(shared_fanin(False, "nor2"))
    result = sat_attack(locked, wrong)
    assert result.completed and result.key is None


def test_unrolled_copy_is_encoded_whole():
    """An unrolled copy keeps every output's logic: the key-independent
    ``y2 = AND(a, b)`` gets its node in each frame, where the
    combinational copy of the same netlist leaves it out."""
    b = Builder("seq")
    b.clock("clk")
    a, bb = b.inputs("a", "b")
    b.po(b.dff(b.xor(a, b.key_input("k0"))), "y1")
    b.po(b.and2(a, bb), "y2")
    netlist = b.circuit

    comb = combinational_view(netlist)
    miter = KeyConeMiter(Solver(), comb, {net: net for net in comb.outputs})
    assert node_kinds(miter) == ["xor", "xor"]
    unrolled = unrolled_view(netlist, 2)
    miter = KeyConeMiter(
        Solver(), unrolled, {net: net for net in unrolled.outputs})
    assert node_kinds(miter).count("and") == 2


class Recorder:
    """Stands in for the solver: keeps each CNF batch the miter adds."""

    def __init__(self):
        self.num_vars = 0
        self.batches = []

    def add_cnf(self, cnf):
        self.num_vars = max(self.num_vars, cnf.num_vars)
        self.batches.append(list(cnf.clauses))


def whole_walk_miter(view, observations):
    """The miter's clause batches when copy 2 walks the whole base and
    each pin the whole view once per copy; and its key variables."""
    recorder, table = Recorder(), NodeTable()

    def encode(walked, net_vars):
        cnf = CNF(num_vars=recorder.num_vars)
        encoder = CircuitEncoder(cnf, walked, net_vars, table=table)
        recorder.add_cnf(cnf)
        return encoder

    base = key_influence_view(view)
    copy1 = encode(base, {})
    copy2 = encode(base, {net: copy1.var_of[net] for net in view.inputs})
    cnf = CNF(num_vars=recorder.num_vars)
    xors = miter_xors(cnf, ((net, copy1.var_of[net], copy2.var_of[net])
                            for net in base.outputs))
    cnf.add_or(cnf.new_var(), [x for _, x in xors])
    recorder.add_cnf(cnf)
    key_vars = [{net: copy.var_of[net] for net in view.key_inputs}
                for copy in (copy1, copy2)]
    for pattern, response in observations:
        cnf = CNF(num_vars=recorder.num_vars)
        constants = {net: table.constant(cnf, pattern[net])
                     for net in view.inputs}
        true = table.constant(cnf, 1)
        for keys in key_vars:
            copy = CircuitEncoder(cnf, view, dict(constants, **keys),
                                  table=table)
            for net in view.outputs:
                if response[net] is None:
                    continue
                lit = copy.var_of[net] if response[net] else -copy.var_of[net]
                if lit != true:
                    cnf.add_clause([lit])
        recorder.add_cnf(cnf)
    return recorder, key_vars


@active_profile()
@given(circuit=st.one_of(circuits(min_keys=1),
                         sequential_designs().flatmap(xor_locks)),
       data=st.data())
def test_cone_walks_add_what_whole_walks_add(circuit, data):
    """(g) Copy 2 and each pin walk only the keys' fan-out cone twice,
    yet add the same clauses, batch by batch and in order, as whole
    walks: a gate outside the cone would hash onto the first walk's
    literal and add nothing."""
    view = combinational_view(circuit)
    observations = [
        (bits(data, view.inputs),
         {net: data.draw(st.sampled_from([0, 1, None]))
          for net in view.outputs})
        for _ in range(data.draw(st.integers(1, 3)))
    ]
    reference, key_vars = whole_walk_miter(view, observations)
    recorder = Recorder()
    miter = KeyConeMiter(recorder, view, {net: net for net in view.outputs})
    for pattern, response in observations:
        miter.pin(pattern, response)
    assert recorder.batches == reference.batches
    assert recorder.num_vars == reference.num_vars
    assert miter.key_vars == key_vars
