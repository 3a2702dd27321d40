"""Random circuits for the encoder and checker properties.

:func:`recipes` draws a circuit as data: input and key counts, gate
specs over the nets made so far, and output picks.  :func:`build` turns
a recipe into a :class:`~repro.netlist.Builder` circuit over every cell
function (at most 6 inputs, 3 key inputs and 12 gates), and
:func:`circuit_pairs` builds a recipe and a variant with at most one
gate redrawn.  :func:`sequential_designs` draws generated sequential
netlists small enough to simulate every input sequence of 3 frames,
and :func:`xor_locks` an XOR lock of one.  :func:`simulate` is the
reference evaluator: a walk of ``topological_order()`` with the cell
functions of :mod:`repro.sim.logic` in which *forced* nets keep their
given value instead of their driver's.  Importable as
``random_circuits`` because pytest puts ``tests/`` on the path (see
``hypothesis_profiles``).
"""

import itertools
import random

from hypothesis import strategies as st

from repro.bench.generator import GeneratorSpec, random_sequential_circuit
from repro.locking import XorLock
from repro.locking.xor_lock import lockable_nets
from repro.netlist import Builder
from repro.sim.logic import eval_function

FUNCTIONS = (
    "AND2", "NAND2", "OR2", "NOR2", "XOR2", "XNOR2", "INV", "BUF",
    "MUX2", "MUX4", "LUT", "TIE0", "TIE1",
)
_ARITY = {"TIE0": 0, "TIE1": 0, "INV": 1, "BUF": 1, "MUX2": 3, "MUX4": 6}
_TWO_INPUT = {
    "AND2": "and2", "NAND2": "nand2", "OR2": "or2", "NOR2": "nor2",
    "XOR2": "xor", "XNOR2": "xnor",
}


@st.composite
def gate_specs(draw, available):
    """``(function, operand indices, truth table)`` over *available* nets."""
    function = draw(st.sampled_from(FUNCTIONS))
    arity = _ARITY.get(function, 2)
    table = None
    if function == "LUT":
        arity = draw(st.integers(2, 4))
        table = tuple(draw(st.lists(
            st.integers(0, 1), min_size=1 << arity, max_size=1 << arity
        )))
    operands = tuple(
        draw(st.integers(0, available - 1)) for _ in range(arity)
    )
    return function, operands, table


def _key_fanout(num_inputs, num_keys, gates):
    """Indices of the nets in the keys' fan-out, the keys included."""
    reached = set(range(num_inputs, num_inputs + num_keys))
    for index, (_function, operands, _table) in enumerate(gates):
        if reached.intersection(operands):
            reached.add(num_inputs + num_keys + index)
    return sorted(reached)


@st.composite
def recipes(draw, min_keys=0, max_inputs=6, max_keys=3):
    """``(inputs, keys, gate specs, output indices)``; every net may
    drive an output.  With keys, the outputs lead with a net of the
    keys' fan-out unless a 0-3 draw comes out 3, so most circuits have
    an output some key reaches; the rest draw their outputs freely."""
    num_inputs = draw(st.integers(1, max_inputs))
    num_keys = draw(st.integers(min_keys, max_keys))
    gates = []
    for _ in range(draw(st.integers(1, 12))):
        gates.append(draw(gate_specs(num_inputs + num_keys + len(gates))))
    outputs = draw(st.lists(
        st.integers(0, num_inputs + num_keys + len(gates) - 1),
        min_size=1, max_size=4, unique=True,
    ))
    if num_keys and draw(st.integers(0, 3)) < 3:
        reached = draw(st.sampled_from(
            _key_fanout(num_inputs, num_keys, gates)))
        outputs = [reached] + [i for i in outputs if i != reached][:3]
    return num_inputs, num_keys, tuple(gates), tuple(outputs)


def build(recipe, name="rand"):
    num_inputs, num_keys, gates, outputs = recipe
    b = Builder(name)
    nets = list(b.inputs(*(f"i{n}" for n in range(num_inputs))))
    nets += [b.key_input(f"k{n}") for n in range(num_keys)]
    for function, operands, table in gates:
        args = [nets[index] for index in operands]
        if function == "TIE0":
            out = b.const0()
        elif function == "TIE1":
            out = b.const1()
        elif function in ("INV", "BUF"):
            out = (b.inv if function == "INV" else b.buf)(*args)
        elif function == "MUX2":
            out = b.mux2(*args)
        elif function == "MUX4":
            out = b.mux4(*args)
        elif function == "LUT":
            out = b.lut(args, list(table))
        else:
            out = getattr(b, _TWO_INPUT[function])(*args)
        nets.append(out)
    for index in outputs:
        b.po(nets[index])
    return b.circuit


def circuits(min_keys=0, max_inputs=6, max_keys=3):
    """A random combinational circuit with *min_keys* to *max_keys* keys
    and at most *max_inputs* inputs."""
    return recipes(min_keys, max_inputs, max_keys).map(build)


@st.composite
def circuit_pairs(draw, min_keys=0):
    """Circuits A and B with the same interface; B is A with at most one
    gate redrawn (so the pair is often, not always, equivalent)."""
    recipe = draw(recipes(min_keys))
    num_inputs, num_keys, gates, outputs = recipe
    variant = list(gates)
    if draw(st.booleans()):
        index = draw(st.integers(0, len(gates) - 1))
        variant[index] = draw(gate_specs(num_inputs + num_keys + index))
    return (build(recipe, "a"),
            build((num_inputs, num_keys, tuple(variant), outputs), "b"))


@st.composite
def sequential_designs(draw):
    """A generated sequential netlist with 1-2 inputs, 1-3 flip-flops
    and 2-15 gates."""
    return random_sequential_circuit(GeneratorSpec(
        name="seq",
        num_inputs=draw(st.integers(1, 2)),
        num_outputs=draw(st.integers(1, 2)),
        num_flip_flops=draw(st.integers(1, 3)),
        num_combinational=draw(st.integers(2, 15)),
        seed=draw(st.integers(0, 2 ** 16)),
    ))


def xor_locks(design):
    """*design* XOR-locked with 1-2 key bits (no more than it has
    lockable nets)."""
    sites = min(2, len(lockable_nets(design)))
    return st.tuples(st.integers(1, sites), st.integers(0, 2 ** 16)).map(
        lambda drawn: XorLock().lock(
            design, drawn[0], random.Random(drawn[1])).circuit
    )


def simulate(circuit, assignment, forced=None):
    """Every net's 0/1 value under *assignment* (inputs and keys), with
    each net of *forced* held at its given value."""
    forced = forced or {}
    values = dict(assignment, **forced)
    for gate in circuit.topological_order():
        if gate.output not in forced:
            values[gate.output] = eval_function(
                gate.function, [values[net] for net in gate.input_nets()],
                gate.truth_table,
            )
    return values


def bits(data, nets):
    """A random 0/1 value per net, drawn from hypothesis *data*."""
    return {net: data.draw(st.integers(0, 1)) for net in nets}


def all_patterns(nets):
    """Every 0/1 assignment of *nets*."""
    return [
        dict(zip(nets, values))
        for values in itertools.product((0, 1), repeat=len(nets))
    ]
