"""The one-pass PO signatures equal a per-flip-flop search.

:meth:`Circuit.transitive_po_sets` computes every flip-flop's reachable
POs and capturing flip-flops in one reverse-topological bitset pass
(the Encrypt-Flip-Flop grouping of [4] and Table I's last column read
it).  The reference below is the plain depth-first search from one Q
net at a time.  The drawn designs always include a Q net that is also
a primary output and a flip-flop whose D reads another flip-flop's Q
directly, the two cases a pass over combinational gates alone misses.

Example volume comes from the ``tests/hypothesis_profiles.py`` profiles
(``HYPOTHESIS_PROFILE=ci`` runs 200+ examples per property).
"""

from hypothesis import given, strategies as st

from repro.bench.generator import GeneratorSpec, random_sequential_circuit
from repro.locking import po_signatures

from hypothesis_profiles import active_profile


def reference_signature(circuit, ff_name):
    """Depth-first search from one flip-flop's Q through
    combinational logic."""
    po_nets = set(circuit.outputs)
    reached = set()
    visited = set()
    stack = [circuit.gates[ff_name].output]
    while stack:
        net = stack.pop()
        if net in visited:
            continue
        visited.add(net)
        if net in po_nets:
            reached.add(f"po:{net}")
        for gate_name, _pin in circuit.fanout_pins(net):
            sink = circuit.gates[gate_name]
            if sink.is_flip_flop:
                reached.add(f"ff:{gate_name}")
            else:
                stack.append(sink.output)
    return frozenset(reached)


@st.composite
def designs(draw):
    """A small sequential design with a Q net on a PO and a
    flip-flop-to-flip-flop edge."""
    circuit = random_sequential_circuit(GeneratorSpec(
        name="sig",
        num_inputs=draw(st.integers(1, 4)),
        num_outputs=draw(st.integers(1, 3)),
        num_flip_flops=draw(st.integers(1, 6)),
        num_combinational=draw(st.integers(1, 30)),
        seed=draw(st.integers(0, 2 ** 16)),
    ))
    ffs = sorted(ff.name for ff in circuit.flip_flops())
    pick = st.sampled_from(ffs)
    for name in draw(st.lists(pick, min_size=1, max_size=3)):
        circuit.add_output(circuit.gates[name].output)
    for source, sink in draw(st.lists(st.tuples(pick, pick),
                                      min_size=1, max_size=3)):
        circuit.reconnect_pin(sink, "D", circuit.gates[source].output)
    circuit.validate()
    return circuit


@active_profile()
@given(designs())
def test_one_pass_equals_per_flip_flop_search(circuit):
    expected = {ff.name: reference_signature(circuit, ff.name)
                for ff in circuit.flip_flops()}
    assert circuit.transitive_po_sets() == expected
    for name, signature in expected.items():
        assert circuit.transitive_po_set(name) == signature
    assert po_signatures(circuit) == expected
