"""Removal attack via signal-probability skew (Yasin et al. [15][16]).

SAT-attack-resistant blocks (SARLock, Anti-SAT) work by making the
key-dependent corruption *rare*: their flip signal is 1 on at most a
handful of input patterns.  That rarity is also their fingerprint — the
flip net's signal probability under random stimulus is heavily skewed,
far outside what load-bearing logic exhibits.  The attack:

1. estimate every net's signal probability by random simulation with
   random keys,
2. collect skewed nets that gate a primary output through an XOR/XNOR
   (the classic point-function wiring), most-skewed first,
3. filter to nets whose fan-in cone contains key inputs (benign
   design logic that happens to be skewed has none), then tentatively
   replace each with its constant majority value and keep the edit only
   if the result still matches the **oracle** (the activated chip) on a
   batch of random patterns — the attacker's functional validation,
4. sweep the dead security block.

Against XOR/XNOR key-gates or the paper's GK no removable skewed net
exists: every candidate either fails the oracle check or was never
skewed.  Even a located GK would leave the attacker guessing
buffer-vs-inverter per key-gate (Sec. V-C), which
:mod:`repro.attacks.enhanced_removal` escalates to.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from ..locking.base import LockedCircuit
from ..netlist.circuit import Circuit
from ..netlist.compiled import compile_circuit
from ..netlist.transform import combinational_circuit, extract_combinational
from ..synth.optimize import sweep_dead_gates
from .oracle import CombinationalOracle

__all__ = ["RemovalResult", "signal_probabilities", "removal_attack"]


@dataclass
class RemovalResult:
    """Outcome of one removal attack."""

    located: List[str] = field(default_factory=list)  # candidates, ranked
    removed_nets: List[str] = field(default_factory=list)  # oracle-validated
    gates_swept: int = 0
    restored: Optional[Circuit] = None
    #: fraction of random patterns on which the restored netlist matches
    #: the original function (designer-side ground truth)
    restored_accuracy: Optional[float] = None

    @property
    def success(self) -> bool:
        return bool(self.removed_nets) and (self.restored_accuracy or 0.0) == 1.0


def signal_probabilities(
    circuit: Circuit,
    samples: int,
    rng: random.Random,
) -> Tuple[Dict[str, float], Dict[str, bool]]:
    """Signal statistics under uniform random inputs *and keys*.

    Returns ``(probabilities, key_sensitive)``: P(net = 1), and whether
    the net's value ever changed between two random keys on the same
    input pattern — ordinary design logic is key-insensitive, so this
    flag separates security structures from benign skewed nets.
    Expects a combinational circuit (extract first for sequential).
    X evaluations count as 0.5.
    """
    compiled = compile_circuit(circuit)
    # The nets the per-sample evaluation dict used to report, in the
    # same insertion order: inputs, keys, then gate outputs in schedule
    # (= topological) order.  Undriven stray nets never appeared.
    net_order = (
        list(circuit.inputs) + list(circuit.key_inputs)
        + list(compiled.out_names)
    )
    ids = [compiled.net_ids[net] for net in net_order]
    ones = [0] * len(ids)
    unknowns = [0] * len(ids)
    sensitive_flags = [False] * len(ids)

    num_nets = compiled.num_nets
    lanes = compiled.lanes
    remaining = samples
    while remaining:
        used = min(lanes, remaining)
        remaining -= used
        lane_mask = compiled.mask if used == lanes else (1 << used) - 1
        va = [0] * num_nets
        ka = [0] * num_nets
        vb = [0] * num_nets
        kb = [0] * num_nets
        for lane in range(used):
            bit = 1 << lane
            pattern = {net: rng.randint(0, 1) for net in circuit.inputs}
            key_a = {net: rng.randint(0, 1) for net in circuit.key_inputs}
            key_b = {net: rng.randint(0, 1) for net in circuit.key_inputs}
            for net, value in pattern.items():
                nid = compiled.net_ids[net]
                if value:
                    va[nid] |= bit
                    vb[nid] |= bit
                ka[nid] |= bit
                kb[nid] |= bit
            for net, value in key_a.items():
                nid = compiled.net_ids[net]
                if value:
                    va[nid] |= bit
                ka[nid] |= bit
            for net, value in key_b.items():
                nid = compiled.net_ids[net]
                if value:
                    vb[nid] |= bit
                kb[nid] |= bit
        compiled.run_planes(va, ka)
        compiled.run_planes(vb, kb)
        for j, nid in enumerate(ids):
            v1, k1 = va[nid], ka[nid]
            v2, k2 = vb[nid], kb[nid]
            ones[j] += bin(v1 & k1 & lane_mask).count("1")
            unknowns[j] += bin(~k1 & lane_mask).count("1")
            if not sensitive_flags[j]:
                differ = ((v1 ^ v2) & k1 & k2) | (k1 ^ k2)
                if differ & lane_mask:
                    sensitive_flags[j] = True

    # ones + 0.5*unknowns is a sum of exact halves, so this reproduces
    # the sequential float accumulation bit for bit.
    probs = {
        net: (ones[j] + 0.5 * unknowns[j]) / samples
        for j, net in enumerate(net_order)
    }
    return probs, {
        net: sensitive_flags[j] for j, net in enumerate(net_order)
    }


def _matches_oracle(
    candidate: Circuit,
    oracle: CombinationalOracle,
    rng: random.Random,
    patterns: int,
) -> bool:
    # Kept per-pattern: the early return means batching would change
    # how much of the rng stream gets consumed.
    output_map = dict(zip(candidate.outputs, oracle.outputs))
    compiled = compile_circuit(candidate)
    for _ in range(patterns):
        pattern = {net: rng.randint(0, 1) for net in oracle.inputs}
        response = oracle.query(pattern)
        assignment = dict(pattern)
        for key_net in candidate.key_inputs:
            assignment[key_net] = rng.randint(0, 1)
        values = compiled.query_outputs([assignment])[0]
        if any(
            values[net] != response[output_map[net]]
            for net in candidate.outputs
        ):
            return False
    return True


def removal_attack(
    locked: LockedCircuit,
    oracle: Optional[CombinationalOracle] = None,
    samples: int = 512,
    skew_threshold: float = 0.10,
    validation_patterns: int = 48,
    rng: Optional[random.Random] = None,
    check_samples: int = 128,
) -> RemovalResult:
    """Locate, oracle-validate, and strip point-function blocks.

    *skew_threshold*: a net is a candidate when min(P, 1-P) is below it
    and the net feeds an XOR/XNOR in front of a primary output.  The
    default oracle is built from ``locked.original`` (the attack model
    grants the attacker an activated chip).
    """
    rng = rng or random.Random(1)
    if oracle is None:
        oracle = CombinationalOracle(locked.original)
    netlist = locked.circuit
    comb = (
        extract_combinational(netlist).circuit
        if netlist.flip_flops()
        else netlist.clone()
    )
    probs, _observed_sensitivity = signal_probabilities(comb, samples, rng)

    def key_in_cone(net: str) -> bool:
        """Structural key dependence: benign logic that happens to be
        skewed has no key input in its fan-in and is filtered out."""
        keys = set(comb.key_inputs)
        seen: set = set()
        stack = [net]
        while stack:
            current = stack.pop()
            if current in seen:
                continue
            seen.add(current)
            if current in keys:
                return True
            driver = comb.driver_of(current)
            if driver is not None:
                stack.extend(driver.pins.values())
        return False

    result = RemovalResult()
    po_set = set(comb.outputs)
    candidates: List[Tuple[float, str]] = []
    for net, p in probs.items():
        skew = min(p, 1.0 - p)
        if skew > skew_threshold:
            continue
        if net in comb.inputs or net in comb.key_inputs:
            continue
        if not key_in_cone(net):
            continue
        driver = comb.driver_of(net)
        if driver is None or driver.function in ("TIE0", "TIE1"):
            continue
        for sink_name, _pin in comb.fanout_pins(net):
            sink = comb.gates[sink_name]
            if sink.function in ("XOR2", "XNOR2") and sink.output in po_set:
                candidates.append((skew, net))
                break
    candidates.sort()
    result.located = [net for _skew, net in candidates]
    if not candidates:
        return result

    restored = comb.clone(f"{comb.name}__removal")
    for _skew, net in candidates:
        trial = restored.clone()
        majority = 1 if probs[net] > 0.5 else 0
        constant = trial.new_net("rm")
        cell = "TIE1_X1" if majority else "TIE0_X1"
        trial.add_gate(trial.new_gate_name("rm"), cell, {}, constant)
        trial.rewire_sinks(net, constant)
        if _matches_oracle(trial, oracle, rng, validation_patterns):
            restored = trial
            result.removed_nets.append(net)
    if not result.removed_nets:
        return result
    result.gates_swept = sweep_dead_gates(restored)
    restored.validate()
    result.restored = restored

    # Designer-side ground truth accuracy.
    original_comb = combinational_circuit(locked.original)
    output_map = dict(zip(restored.outputs, original_comb.outputs))
    patterns_drawn: List[Dict[str, int]] = []
    assignments: List[Dict[str, int]] = []
    for _ in range(check_samples):
        pattern = {net: rng.randint(0, 1) for net in original_comb.inputs}
        assignment = dict(pattern)
        for key_net in restored.key_inputs:
            assignment[key_net] = rng.randint(0, 1)
        patterns_drawn.append(pattern)
        assignments.append(assignment)
    got_all = compile_circuit(restored).query_outputs(assignments)
    want_all = compile_circuit(original_comb).query_outputs(patterns_drawn)
    matches = sum(
        1
        for got, want in zip(got_all, want_all)
        if all(got[net] == want[output_map[net]] for net in restored.outputs)
    )
    result.restored_accuracy = matches / check_samples
    return result
