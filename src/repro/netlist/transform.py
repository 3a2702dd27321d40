"""Netlist transformations.

The central ones describe a netlist's combinational core: the SAT
attack on a sequential design first "extracts the combinational part
... by treating the inputs and outputs of FFs as pseudo primary outputs
and inputs, respectively" (paper, Sec. VI).
:func:`extract_combinational` builds that core as a new circuit (for
the evaluators); :func:`combinational_view` describes it in place,
without a copy (for the Tseitin encoder); :func:`combinational_circuit`
is the flip-flop-free circuit of any netlist.  The other helpers
support the locking flows: exposing internal nets as key inputs after
stripping KEYGENs, and inserting buffers.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Set, Tuple

from .circuit import Circuit, Gate, NetlistError

__all__ = [
    "CombinationalExtraction",
    "CombinationalView",
    "combinational_circuit",
    "combinational_view",
    "extract_combinational",
    "remove_gates",
    "expose_as_key_input",
    "fanin_depths",
]


@dataclass(frozen=True)
class CombinationalExtraction:
    """Result of :func:`extract_combinational`.

    Attributes:
        circuit: The flip-flop-free circuit.
        pseudo_inputs: FF gate name -> the pseudo-PI net (the old Q net).
        pseudo_outputs: FF gate name -> the pseudo-PO net (the old D net).
    """

    circuit: Circuit
    pseudo_inputs: Dict[str, str]
    pseudo_outputs: Dict[str, str]


def _core_interface(
    circuit: Circuit,
) -> Tuple[List[str], List[str], List[Gate]]:
    """(inputs, outputs, flip-flops) of *circuit*'s combinational core.

    Inputs are the PIs then the flip-flops' Q nets, outputs the POs
    then their D nets, both in flip-flop name order: the one order of
    the extraction and the view alike.  The SAT attack maps a locked
    netlist's outputs onto its oracle's by this position.
    """
    flip_flops = sorted(circuit.flip_flops(), key=lambda g: g.name)
    return (circuit.inputs + [ff.output for ff in flip_flops],
            circuit.outputs + [ff.pins["D"] for ff in flip_flops],
            flip_flops)


def extract_combinational(circuit: Circuit) -> CombinationalExtraction:
    """Remove flip-flops, exposing Q nets as PIs and D nets as POs.

    Scan flops lose their SI/SE connectivity (the attack model assumes
    full scan access, so the D path is what matters).  The clock net
    disappears.  The original circuit is not modified.  The copy is
    what the evaluators need; to encode a netlist,
    :func:`combinational_view` describes the same core without one.
    """
    comb = Circuit(f"{circuit.name}__comb", circuit.library)
    comb.inputs, comb.outputs, flip_flops = _core_interface(circuit)
    comb.key_inputs = list(circuit.key_inputs)
    for net in circuit.inputs + circuit.key_inputs:
        comb._claim_driver(net, "")

    pseudo_inputs: Dict[str, str] = {}
    pseudo_outputs: Dict[str, str] = {}
    for ff in flip_flops:
        pseudo_inputs[ff.name] = ff.output
        pseudo_outputs[ff.name] = ff.pins["D"]
        comb._claim_driver(ff.output, "")

    for gate in circuit.gates.values():
        if gate.is_flip_flop:
            continue
        comb.add_gate(
            gate.name,
            gate.cell.name,
            dict(gate.pins),
            gate.output,
            truth_table=gate.truth_table,
        )
    comb.validate()
    return CombinationalExtraction(comb, pseudo_inputs, pseudo_outputs)


def combinational_circuit(circuit: Circuit) -> Circuit:
    """The flip-flop-free circuit of *circuit*: its
    :func:`extract_combinational` copy if it has flip-flops, else
    *circuit* itself."""
    if circuit.flip_flops():
        return extract_combinational(circuit).circuit
    return circuit


#: ``(function, output net, fan-in nets in pin order, LUT truth table)``
ViewGate = Tuple[str, str, Tuple[str, ...], Optional[Tuple[int, ...]]]


@dataclass(frozen=True)
class CombinationalView:
    """A netlist's combinational core, described without a copy.

    The interface and name are those of
    ``combinational_circuit(netlist)``: *inputs* are the PIs then the
    flip-flops' Q nets, *outputs* the POs then their D nets, both in
    flip-flop name order.  *gates* has one entry per combinational gate
    of ``netlist.topological_order()``, which lists the gates as the
    extraction's own ``topological_order()`` does, so an encoder
    walking the view numbers variables as on the copy.  Build one per
    use: the view reads the netlist as it is and goes stale on its
    next edit.
    """

    name: str
    inputs: List[str]
    key_inputs: List[str]
    outputs: List[str]
    gates: List[ViewGate]


def combinational_view(netlist: Circuit) -> CombinationalView:
    """Describe *netlist*'s combinational core in place.

    A sequential netlist is validated first, as
    :func:`extract_combinational` validates its copy, so an undriven
    net or a combinational cycle raises :class:`NetlistError` here too.
    """
    inputs, outputs, flip_flops = _core_interface(netlist)
    name = netlist.name
    if flip_flops:
        netlist.validate()
        name = f"{name}__comb"
    return CombinationalView(
        name=name,
        inputs=inputs,
        key_inputs=list(netlist.key_inputs),
        outputs=outputs,
        gates=[
            (gate.cell.function, gate.output,
             tuple([gate.pins[pin] for pin in gate.cell.inputs]),
             gate.truth_table)
            for gate in netlist.topological_order()
        ],
    )


def remove_gates(circuit: Circuit, gate_names: Iterable[str]) -> List[str]:
    """Remove gates, returning the nets left undriven (to be re-driven).

    Fanout references to the removed outputs are left in place; the
    caller must re-drive or re-expose those nets (see
    :func:`expose_as_key_input`) before the circuit validates again.
    """
    undriven: List[str] = []
    for name in gate_names:
        gate = circuit.remove_gate(name)
        if circuit.fanout_pins(gate.output) or gate.output in circuit.outputs:
            undriven.append(gate.output)
    return undriven


def expose_as_key_input(circuit: Circuit, net: str) -> None:
    """Re-drive an undriven internal net as a key input.

    This models the attacker's preprocessing in Sec. VI: "we removed the
    KEYGEN of each GK and treated its key-input as the key-input of the
    design".
    """
    if net in circuit.nets() and circuit._driver.get(net) is not None:
        raise NetlistError(f"net {net!r} is still driven")
    circuit.add_key_input(net)


def fanin_depths(circuit: Circuit) -> Dict[str, int]:
    """Logic depth (max #gates from any source) for every net.

    Sources (PIs, keys, FF outputs) have depth 0.
    """
    depths: Dict[str, int] = {}
    for net in circuit.inputs + circuit.key_inputs:
        depths[net] = 0
    if circuit.clock is not None:
        depths[circuit.clock] = 0
    for ff in circuit.flip_flops():
        depths[ff.output] = 0
    for gate in circuit.topological_order():
        operands = [depths.get(net, 0) for net in gate.input_nets()]
        depths[gate.output] = 1 + max(operands, default=0)
    return depths
