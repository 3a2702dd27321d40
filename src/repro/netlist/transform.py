"""Netlist transformations.

The central ones describe a netlist's combinational core: the SAT
attack on a sequential design first "extracts the combinational part
... by treating the inputs and outputs of FFs as pseudo primary outputs
and inputs, respectively" (paper, Sec. VI).
:func:`extract_combinational` builds that core as a new circuit (for
the evaluators); :func:`combinational_view` describes it in place,
without a copy (for the Tseitin encoder); :func:`combinational_circuit`
is the flip-flop-free circuit of any netlist, and
:func:`key_influence_view` narrows a core view to the logic its key
inputs can influence (the SAT attack's miter copies), from the nets
:func:`key_fanout` finds the keys reach.  The encoder's
two other copy kinds are described on top of the core view:
:func:`unrolled_view` (T clock cycles from reset, for the attack
without scan access and bounded sequential equivalence) and
:func:`timed_view` (one copy per time tick, for the timed attack of
Sec. V-B).  The other helpers support the locking flows: exposing
internal nets as key inputs after stripping KEYGENs, and inserting
buffers.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional, Set, Tuple

from .circuit import Circuit, Gate, NetlistError

__all__ = [
    "CombinationalExtraction",
    "CombinationalView",
    "TimedView",
    "UnrolledView",
    "combinational_circuit",
    "combinational_view",
    "extract_combinational",
    "key_fanout",
    "key_influence_view",
    "timed_view",
    "unrolled_view",
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
    then their D nets, both in Q-net order: the one order of the
    extraction and the view alike.  The SAT attack maps a locked
    netlist's outputs onto its oracle's by this position, so the order
    rests on the Q net, which ``.bench`` keeps and locking never
    renames, not on the instance name, which ``.bench`` drops.
    """
    flip_flops = sorted(circuit.flip_flops(), key=lambda g: g.output)
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


def key_fanout(view: CombinationalView) -> Set[str]:
    """The key inputs of *view* and every net they reach, in one
    forward pass over its gates."""
    reached = set(view.key_inputs)
    for _function, out, fanins, _table in view.gates:
        if not reached.isdisjoint(fanins):
            reached.add(out)
    return reached


def key_influence_view(view: CombinationalView) -> CombinationalView:
    """*view* restricted to its keys' cone of influence.

    The outputs kept are those some key input reaches, in *view*'s
    order, and the gates kept are their transitive fan-in, in *view*'s
    order; the inputs and key inputs are all kept.  Every output left
    out is a function of the inputs alone.
    """
    reached = key_fanout(view)
    outputs = [net for net in view.outputs if net in reached]
    needed = set(outputs)
    gates = []
    for gate in reversed(view.gates):
        _function, out, fanins, _table = gate
        if out in needed:
            needed.update(fanins)
            gates.append(gate)
    gates.reverse()
    return CombinationalView(
        name=view.name,
        inputs=view.inputs,
        key_inputs=view.key_inputs,
        outputs=outputs,
        gates=gates,
    )


@dataclass(frozen=True)
class UnrolledView:
    """*frames* clock cycles of a netlist from the all-zero reset state.

    *core* is the netlist's :class:`CombinationalView` and *state* pairs
    each flip-flop's Q net with its D net, in the core's order.  The
    encoder walks *core* once per frame: frame 0's Q nets read constant
    0 and frame t's read frame t-1's D nets.  *inputs* are
    ``(primary input, frame)`` tags, *outputs* ``(primary output,
    frame)`` tags, and the key inputs are static across frames.
    """

    name: str
    core: CombinationalView
    frames: int
    state: List[Tuple[str, str]]
    inputs: List[Tuple[str, int]]
    key_inputs: List[str]
    outputs: List[Tuple[str, int]]


def unrolled_view(netlist: Circuit, frames: int) -> UnrolledView:
    """Describe *frames* cycles of *netlist* from reset, in place."""
    if frames < 1:
        raise NetlistError("need at least one frame")
    core = combinational_view(netlist)
    pis, pos = len(netlist.inputs), len(netlist.outputs)
    return UnrolledView(
        name=netlist.name,
        core=core,
        frames=frames,
        state=list(zip(core.inputs[pis:], core.outputs[pos:])),
        inputs=[(net, t) for t in range(frames) for net in netlist.inputs],
        key_inputs=core.key_inputs,
        outputs=[(net, t) for t in range(frames) for net in netlist.outputs],
    )


@dataclass(frozen=True)
class TimedView:
    """A combinational circuit time-expanded over ticks ``0..ticks``.

    The timed characteristic function of Ho et al.: the inputs hold V1
    long enough to settle and switch to V2 at tick 0; a gate of
    *delays* ticks (one entry per gate of *core*, in its order) drives
    at tick t its function of its fan-ins at tick ``t - delay``, or of
    the settled V1 values when that is before tick 0 (transport
    delay).  *inputs* are ``(net, 0)`` tags for V1 and ``(net, 1)``
    for V2; the key inputs are static; *outputs* are the primary
    outputs sampled at tick *ticks*.
    """

    name: str
    core: CombinationalView
    ticks: int
    delays: Tuple[int, ...]
    inputs: List[Tuple[str, int]]
    key_inputs: List[str]
    outputs: List[str]


def timed_view(
    circuit: Circuit,
    ticks: int,
    dt: float,
    delay_override: Optional[Dict[str, float]] = None,
) -> TimedView:
    """Describe *circuit* over *ticks* steps of *dt* ns.

    *delay_override* maps a gate name to the delay it has in place of
    its cell's (delay-defect injection).
    """
    if circuit.flip_flops():
        raise NetlistError("a timed view needs a combinational circuit")
    overrides = delay_override or {}
    core = combinational_view(circuit)
    gates = circuit.topological_order()
    return TimedView(
        name=circuit.name,
        core=core,
        ticks=ticks,
        delays=tuple(
            max(0, int(round(overrides.get(g.name, g.cell.delay) / dt)))
            for g in gates
        ),
        inputs=[(net, v) for v in (0, 1) for net in core.inputs],
        key_inputs=core.key_inputs,
        outputs=core.outputs,
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
