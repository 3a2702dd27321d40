"""Scan-chain infrastructure and the scan-based attack on GKs.

Sec. VI notes a GK weakness: "scan-chain can be designed to test the
paths between FFs ... the GK that works solely to encrypt the input of
FF at the end of the path can provide only limited security."  With
scan access an attacker can *measure*, per flip-flop, whether the
captured value matches the glitch-blind combinational netlist or its
complement — directly reading off each GK's effective buffer/inverter
behaviour.  The paper's fix is hybrid GK+XOR encryption: once unknown
XOR key bits sit in the same fan-in cone, the measured parity confounds
the GK bit with the XOR key bits and the per-path equation becomes
underdetermined.

Two parts:

* :func:`insert_scan_chain` — real DFF -> scan-DFF conversion with a
  stitched SI/SE chain (the substrate making the threat concrete);
* :func:`scan_attack` — launch-on-capture measurement against the
  activated chip (timing oracle), resolving each GK'd flip-flop's
  inversion parity where no other key material blocks it.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Set, Tuple

from ..locking.base import LockedCircuit
from ..netlist.circuit import Circuit
from ..netlist.transform import extract_combinational
from ..sim.cyclesim import evaluate_combinational
from .oracle import TimingOracle

__all__ = ["ScanChain", "insert_scan_chain", "ScanAttackResult", "scan_attack"]


@dataclass(frozen=True)
class ScanChain:
    """Result of scan insertion."""

    circuit: Circuit
    order: Tuple[str, ...]  # FF names, scan_in first
    scan_in: str
    scan_enable: str
    scan_out: str


def insert_scan_chain(circuit: Circuit) -> ScanChain:
    """Convert every DFF to a scan DFF and stitch the chain.

    Returns a new circuit with ``scan_in`` / ``scan_en`` inputs and a
    ``scan_out`` output; chain order is FF-name order.
    """
    scanned = circuit.clone(f"{circuit.name}__scan")
    ffs = sorted(g.name for g in scanned.flip_flops())
    if not ffs:
        raise ValueError("no flip-flops to scan")
    scan_in = scanned.add_input("scan_in")
    scan_en = scanned.add_input("scan_en")
    sdff = scanned.library.cheapest("SDFF")
    previous = scan_in
    for name in ffs:
        gate = scanned.remove_gate(name)
        scanned.add_gate(
            name,
            sdff.name,
            {
                "D": gate.pins["D"],
                "SI": previous,
                "SE": scan_en,
                "CLK": gate.pins["CLK"],
            },
            gate.output,
        )
        previous = gate.output
    scanned.add_output(previous)  # scan_out = last FF's Q
    scanned.validate()
    return ScanChain(
        circuit=scanned,
        order=tuple(ffs),
        scan_in=scan_in,
        scan_enable=scan_en,
        scan_out=previous,
    )


@dataclass
class ScanAttackResult:
    """Per-GK'd-FF measurement outcome."""

    #: FF -> True if the chip's capture is the complement of the
    #: glitch-blind netlist's prediction (i.e. the GK's real behaviour
    #: is the opposite of its combinational appearance)
    inverted_vs_model: Dict[str, bool] = field(default_factory=dict)
    #: FFs whose cone contains other unknown key bits (hybrid defense):
    #: the parity equation is confounded and the GK bit is unresolved
    ambiguous: List[str] = field(default_factory=list)
    trials: int = 0

    @property
    def resolved(self) -> int:
        return len(self.inverted_vs_model)

    @property
    def success(self) -> bool:
        return not self.ambiguous and self.resolved > 0


def _cone_key_bits(comb: Circuit, net: str) -> Set[str]:
    """Key inputs in the transitive fan-in of *net*."""
    keys = set(comb.key_inputs)
    found: Set[str] = set()
    seen: Set[str] = set()
    stack = [net]
    while stack:
        current = stack.pop()
        if current in seen:
            continue
        seen.add(current)
        if current in keys:
            found.add(current)
            continue
        driver = comb.driver_of(current)
        if driver is not None:
            stack.extend(driver.pins.values())
    return found


def scan_attack(
    locked: LockedCircuit,
    attacker_view: Circuit,
    clock_period: float,
    gk_ffs: Dict[str, str],
    trials: int = 6,
    cycles: int = 8,
    rng: Optional[random.Random] = None,
) -> ScanAttackResult:
    """Measure each GK'd FF's inversion parity through scan tests.

    Args:
        locked: The activated chip (correct key known to the chip only).
        attacker_view: The attacker's netlist —
            :func:`~repro.core.flow.expose_gk_keys` output.  Its GK key
            bits are combinationally non-influential; any *other* key
            bits (hybrid XOR) in a measured cone block resolution.
        gk_ffs: FF name -> the GK key net guarding it.
    """
    rng = rng or random.Random(0)
    result = ScanAttackResult(trials=trials)
    oracle = TimingOracle(locked, clock_period)
    extraction = extract_combinational(attacker_view)
    comb = extraction.circuit
    gk_key_nets = set(gk_ffs.values())

    # Cones with non-GK key material are confounded (Sec. VI's hybrid).
    measurable: Dict[str, str] = {}
    for ff, key_net in sorted(gk_ffs.items()):
        data_net = extraction.pseudo_outputs[ff]
        blockers = _cone_key_bits(comb, data_net) - gk_key_nets
        if blockers:
            result.ambiguous.append(ff)
        else:
            measurable[ff] = data_net

    if not measurable:
        return result

    parities: Dict[str, Set[bool]] = {ff: set() for ff in measurable}
    for _ in range(trials):
        sequence = [
            {net: rng.randint(0, 1) for net in locked.circuit.inputs}
            for _ in range(cycles)
        ]
        trace = oracle.run(sequence)
        # Predict each capture from the glitch-blind model, using the
        # chip's own observed previous state (scan-out gives it to the
        # attacker).
        for k in range(1, cycles):
            state = {
                ff: trace.states[k].get(ff) for ff in extraction.pseudo_inputs
            }
            if any(v is None for v in state.values()):
                continue
            assignment = dict(sequence[k])
            for net in comb.key_inputs:
                assignment[net] = 0  # GK bits: non-influential anyway
            for ff, q_net in extraction.pseudo_inputs.items():
                assignment[q_net] = state[ff]
            values = evaluate_combinational(comb, assignment)
            for ff, data_net in measurable.items():
                predicted = values[data_net]
                captured = trace.states[k + 1].get(ff)
                if predicted is None or captured not in (0, 1):
                    continue
                parities[ff].add(bool(predicted != captured))
    for ff, observed in parities.items():
        if len(observed) == 1:
            result.inverted_vs_model[ff] = observed.pop()
        else:
            result.ambiguous.append(ff)
    return result
