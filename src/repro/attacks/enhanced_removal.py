"""Enhanced removal attack: locate GKs, re-model them, SAT-attack
(paper Sec. V-D).

The scenario the paper analyzes:

1. **Locate** each security structure.  Our locator does real
   structural pattern matching: a GK looks like a MUX2 whose select net
   also drives exactly one XOR2 and one XNOR2 sharing a second common
   operand, whose outputs reach the MUX data pins through buffer
   (delay) chains, with the MUX feeding a flip-flop's D input (possibly
   behind nothing else).
2. **Replace** the located structure by "a MUX having multiple
   encryption behavior from the MUX's inputs and selected by
   key-inputs": here, ``MUX(x, x', k)`` with a fresh Boolean key bit —
   the buffer/inverter hypothesis space of one GK.
3. **SAT-attack** the re-modeled netlist: each hypothesis bit is now an
   ordinary, combinationally *influential* key bit, so the DIP loop
   resolves it against the oracle.  The attack therefore decrypts
   GK-only designs — "effective to decrypt circuits when the security
   structures are located".

The defense is withholding (Sec. V-D, :mod:`repro.core.withholding`):
with the GK arms fused into externally unreadable LUTs, the matcher can
no longer *prove* the arms are complementary buffer/inverter functions,
and the replacement hypothesis space grows with the LUT contents — the
locator reports the structure as unresolvable and the attack degrades
to the plain (invalid) SAT attack.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from ..netlist.circuit import Circuit
from .oracle import CombinationalOracle
from .sat_attack import SatAttackResult, sat_attack, verify_key_against_oracle

__all__ = ["LocatedGk", "EnhancedRemovalResult", "locate_gk_structures",
           "enhanced_removal_attack"]


@dataclass(frozen=True)
class LocatedGk:
    """One structure the locator identified as a GK."""

    mux_gate: str
    key_net: str
    x_net: str
    xor_arm: str
    xnor_arm: str
    chain_gates: Tuple[str, ...]


@dataclass
class EnhancedRemovalResult:
    located: List[LocatedGk] = field(default_factory=list)
    unresolvable_muxes: List[str] = field(default_factory=list)  # withheld arms
    remodeled: Optional[Circuit] = None
    sat_result: Optional[SatAttackResult] = None
    recovered_behaviour: Dict[str, str] = field(default_factory=dict)
    key_accuracy: Optional[float] = None

    @property
    def success(self) -> bool:
        return (
            self.sat_result is not None
            and self.sat_result.completed
            and (self.key_accuracy or 0.0) == 1.0
            and bool(self.located)
        )


def _trace_through_buffers(circuit: Circuit, net: str) -> Tuple[str, Tuple[str, ...]]:
    """Walk back through BUF gates; returns (source net, buffer gates)."""
    gates: List[str] = []
    current = net
    while True:
        driver = circuit.driver_of(current)
        if driver is None or driver.function != "BUF":
            return current, tuple(gates)
        gates.append(driver.name)
        current = driver.pins["A"]


def locate_gk_structures(circuit: Circuit) -> Tuple[List[LocatedGk], List[str]]:
    """Structural GK search over a (sequential or comb-view) netlist.

    Returns ``(located, unresolvable)``: confirmed GK structures, plus
    MUX gates that *look* like GKs but whose arms are opaque LUTs
    (withheld designs) so the buffer/inverter model cannot be proven.
    """
    located: List[LocatedGk] = []
    unresolvable: List[str] = []
    for mux in sorted(circuit.gates.values(), key=lambda g: g.name):
        if mux.function != "MUX2":
            continue
        select = mux.pins["S"]
        arm_a_src, chain_a = _trace_through_buffers(circuit, mux.pins["A"])
        arm_b_src, chain_b = _trace_through_buffers(circuit, mux.pins["B"])
        gate_a = circuit.driver_of(arm_a_src)
        gate_b = circuit.driver_of(arm_b_src)
        if gate_a is None or gate_b is None:
            continue
        pair = {gate_a.function, gate_b.function}
        if pair == {"XOR2", "XNOR2"}:
            operands_a = set(gate_a.input_nets())
            operands_b = set(gate_b.input_nets())
            if operands_a != operands_b or select not in operands_a:
                continue
            (x_net,) = operands_a - {select}
            xor_arm = gate_a if gate_a.function == "XOR2" else gate_b
            xnor_arm = gate_b if gate_a.function == "XOR2" else gate_a
            located.append(
                LocatedGk(
                    mux_gate=mux.name,
                    key_net=select,
                    x_net=x_net,
                    xor_arm=xor_arm.name,
                    xnor_arm=xnor_arm.name,
                    chain_gates=chain_a + chain_b,
                )
            )
        elif "LUT" in pair and (gate_a.function == "LUT" or gate_b.function == "LUT"):
            # Candidate GK with withheld arms: the select feeds both
            # LUTs, but the table contents are externally inaccessible,
            # so the complementary-arm property cannot be established.
            reads_select = all(
                select in g.input_nets() for g in (gate_a, gate_b)
            )
            if reads_select:
                unresolvable.append(mux.name)
    return located, unresolvable


def enhanced_removal_attack(
    locked_netlist: Circuit,
    oracle: CombinationalOracle,
    max_iterations: int = 256,
    verify_samples: int = 64,
    rng: Optional[random.Random] = None,
) -> EnhancedRemovalResult:
    """Run the Sec. V-D combined attack against a GK-locked netlist.

    *locked_netlist* is the attacker's view — typically
    :func:`repro.core.flow.expose_gk_keys` output (KEYGENs stripped, GK
    key wires as key inputs), which is also what the plain SAT attack
    consumes.
    """
    rng = rng or random.Random(0)
    result = EnhancedRemovalResult()
    located, unresolvable = locate_gk_structures(locked_netlist)
    result.located = located
    result.unresolvable_muxes = unresolvable
    if not located:
        return result

    remodeled = locked_netlist.clone(f"{locked_netlist.name}__remodel")
    hypothesis_keys: Dict[str, str] = {}  # key net -> mux gate
    for i, gk in enumerate(located):
        mux = remodeled.gates[gk.mux_gate]
        output = mux.output
        # Drop the GK: MUX, arms, and delay chains.
        remodeled.remove_gate(gk.mux_gate)
        for name in (gk.xor_arm, gk.xnor_arm) + gk.chain_gates:
            if name in remodeled.gates:
                remodeled.remove_gate(name)
        # Replace with MUX(x, x', hypothesis-key).
        hyp = remodeled.add_key_input(f"hyp{i}")
        hypothesis_keys[hyp] = gk.mux_gate
        inv_net = remodeled.new_net("hypinv")
        remodeled.add_gate(
            remodeled.new_gate_name("hypinv"),
            remodeled.library.cheapest("INV").name,
            {"A": gk.x_net},
            inv_net,
        )
        remodeled.add_gate(
            remodeled.new_gate_name("hypmux"),
            remodeled.library.cheapest("MUX2").name,
            {"A": gk.x_net, "B": inv_net, "S": hyp},
            output,
        )
        # The original GK key wire is now unread; drop it if floating.
        if gk.key_net in remodeled.key_inputs and not remodeled.fanout_pins(gk.key_net):
            remodeled.key_inputs.remove(gk.key_net)
            remodeled.release_driver(gk.key_net)
    remodeled.validate()
    result.remodeled = remodeled

    result.sat_result = sat_attack(remodeled, oracle, max_iterations=max_iterations)
    if result.sat_result.completed and result.sat_result.key is not None:
        result.key_accuracy = verify_key_against_oracle(
            remodeled, oracle, result.sat_result.key, samples=verify_samples, rng=rng
        )
        for hyp, mux_name in hypothesis_keys.items():
            bit = result.sat_result.key.get(hyp)
            result.recovered_behaviour[mux_name] = (
                "inverter" if bit else "buffer"
            )
    return result
