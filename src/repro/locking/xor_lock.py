"""XOR/XNOR random logic locking (EPIC, Roy et al. [9]; paper Fig. 1).

The classic combinational scheme: each key bit drives an XOR or XNOR
key-gate spliced into a randomly chosen internal net.  With the correct
bit the gate is a buffer; with the wrong bit, an inverter.  The choice
of XOR-with-0 vs. XNOR-with-1 is itself randomized so the gate type
leaks nothing about the correct bit.

This is both the paper's baseline and one half of its hybrid GK+XOR
encryption (Table II, last column pair).
"""

from __future__ import annotations

import random
from typing import Dict, List, Optional, Sequence

from ..netlist.circuit import Circuit
from .base import LockedCircuit, LockingError, LockingScheme
from .registry import register_scheme

__all__ = ["XorLock", "insert_xor_keygate", "lockable_nets",
           "remove_xor_keygate"]


def lockable_nets(circuit: Circuit) -> List[str]:
    """Internal nets eligible for key-gate insertion.

    Gate outputs that are not POs (splicing a PO would rename it) and
    not already driven by key logic; deterministic order.
    """
    po = set(circuit.outputs)
    nets = [
        gate.output
        for gate in circuit.gates.values()
        if gate.output not in po and gate.function not in ("TIE0", "TIE1")
    ]
    nets.sort()
    return nets


def insert_xor_keygate(
    circuit: Circuit, net: str, key_net: str, correct_bit: int
) -> str:
    """Splice one XOR/XNOR key-gate into *net*; returns the gate name.

    The gate type is chosen so the correct bit makes it a buffer
    (XOR for 0, XNOR for 1).  *key_net* must already be a key input.
    """
    function = "XNOR2" if correct_bit else "XOR2"
    out = circuit.new_net("klk")
    gate_name = circuit.new_gate_name("kg")
    # Splice: move the original readers of `net` onto the key-gate
    # output, then connect the key-gate input to `net`.
    circuit.rewire_sinks(net, out)
    circuit.add_gate(
        gate_name,
        circuit.library.cheapest(function).name,
        {"A": net, "B": key_net},
        out,
    )
    return gate_name


def remove_xor_keygate(circuit: Circuit, gate_name: str) -> None:
    """Undo :func:`insert_xor_keygate` and drop the gate's key input.

    The spliced net gets its readers back, and the netlist is as it was
    before the key input was added.
    """
    gate = circuit.remove_gate(gate_name)
    circuit.rewire_sinks(gate.output, gate.pins["A"])
    key_net = gate.pins["B"]
    circuit.key_inputs.remove(key_net)
    circuit.release_driver(key_net)


@register_scheme(
    "xor",
    description="random XOR/XNOR key-gate insertion (EPIC-style)",
)
class XorLock(LockingScheme):
    """Random XOR/XNOR key-gate insertion.

    Args:
        sites: Optional explicit insertion nets (defaults to a random
            sample of :func:`lockable_nets`).  One key bit per site.
    """

    name = "xor"

    def __init__(self, sites: Optional[Sequence[str]] = None) -> None:
        self._sites = list(sites) if sites is not None else None

    def lock(
        self, circuit: Circuit, num_key_bits: int, rng: random.Random
    ) -> LockedCircuit:
        locked = circuit.clone(f"{circuit.name}__xor{num_key_bits}")
        if self._sites is not None:
            if len(self._sites) != num_key_bits:
                raise LockingError(
                    f"{len(self._sites)} sites for {num_key_bits} key bits"
                )
            sites = list(self._sites)
        else:
            candidates = lockable_nets(locked)
            if len(candidates) < num_key_bits:
                raise LockingError(
                    f"only {len(candidates)} lockable nets for "
                    f"{num_key_bits} key bits"
                )
            sites = rng.sample(candidates, num_key_bits)

        key: Dict[str, int] = {}
        gates: List[Dict[str, str]] = []
        for i, net in enumerate(sites):
            key_net = locked.add_key_input(f"keyin_x{i}")
            bit = rng.randint(0, 1)
            key[key_net] = bit
            gate_name = insert_xor_keygate(locked, net, key_net, bit)
            gates.append({"gate": gate_name, "net": net, "key": key_net})
        locked.validate()
        return LockedCircuit(
            circuit=locked,
            original=circuit,
            key=key,
            scheme=self.name,
            metadata={"key_gates": gates},
        )
