"""IC camouflaging and SAT-based de-camouflaging.

The removal-attack literature the paper builds on ([16], "Removal
Attacks on Logic Locking and Camouflaging Techniques") treats
camouflaging as locking's sibling: instead of key inputs, selected
gates are fabricated as look-alike cells whose true function (say NAND
vs NOR vs XOR) cannot be read from the layout.  The attacker sees *a*
cell with known candidate functions and must resolve which.

This module provides both sides:

* :func:`camouflage` — replace chosen 2-input gates by LUT2 cells
  (their truth tables model the dopant-level programming; the
  *attacker view* strips the tables and keeps only the candidate list);
* :func:`decamouflage_attack` — the standard SAT-based resolution: each
  ambiguous cell becomes a key-multiplexed choice among its candidates
  and the ordinary DIP loop recovers the selection, which is why plain
  camouflaging is considered broken and why the paper reaches for
  *timing* (glitches) instead of structural ambiguity.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Dict, List, Sequence, Tuple

from ..netlist.circuit import Circuit
from ..sim.logic import eval_function
from .base import LockedCircuit, LockingError, LockingScheme
from .registry import register_scheme

__all__ = [
    "CAMOUFLAGE_CANDIDATES",
    "CamouflagedGate",
    "CamouflagedCircuit",
    "CamouflageLock",
    "camouflage",
    "attacker_view",
    "keyed_model",
    "decamouflage_attack",
]

#: The classic camouflaged-cell candidate set: one layout, four possible
#: dopant programmings.
CAMOUFLAGE_CANDIDATES: Tuple[str, ...] = ("NAND2", "NOR2", "XOR2", "XNOR2")

_TABLES: Dict[str, Tuple[int, ...]] = {
    function: tuple(
        eval_function(function, [(i >> 0) & 1, (i >> 1) & 1])  # type: ignore[misc]
        for i in range(4)
    )
    for function in CAMOUFLAGE_CANDIDATES
}


@dataclass(frozen=True)
class CamouflagedGate:
    """One gate hidden behind a look-alike cell."""

    gate_name: str  # the LUT instance in the camouflaged netlist
    true_function: str  # designer-side secret
    candidates: Tuple[str, ...]


@dataclass
class CamouflagedCircuit:
    """A camouflaged netlist plus the designer's secret programming."""

    circuit: Circuit
    original: Circuit
    gates: List[CamouflagedGate] = field(default_factory=list)

    @property
    def ambiguity_bits(self) -> float:
        """log2 of the naive search space the foundry attacker faces."""
        import math

        return sum(math.log2(len(g.candidates)) for g in self.gates)


def camouflage(
    circuit: Circuit,
    count: int,
    rng: random.Random,
    candidates: Sequence[str] = CAMOUFLAGE_CANDIDATES,
) -> CamouflagedCircuit:
    """Camouflage *count* randomly chosen candidate-function gates.

    Only gates whose real function is in *candidates* can be hidden (a
    look-alike cell must plausibly be the real one).  The camouflaged
    netlist computes the original function — the LUT carries the true
    table — but :func:`attacker_view` redacts it.
    """
    eligible = sorted(
        g.name
        for g in circuit.gates.values()
        if g.function in candidates
    )
    if len(eligible) < count:
        raise ValueError(
            f"only {len(eligible)} gates with functions in "
            f"{tuple(candidates)} are available"
        )
    chosen = rng.sample(eligible, count)
    camo = circuit.clone(f"{circuit.name}__camo{count}")
    records: List[CamouflagedGate] = []
    for name in chosen:
        gate = camo.gates[name]
        function = gate.function
        operands = gate.input_nets()
        output = gate.output
        camo.remove_gate(name)
        lut_name = camo.new_gate_name("camo")
        camo.add_gate(
            lut_name,
            "LUT2_X1",
            {"I0": operands[0], "I1": operands[1]},
            output,
            truth_table=_TABLES[function],
        )
        records.append(
            CamouflagedGate(
                gate_name=lut_name,
                true_function=function,
                candidates=tuple(candidates),
            )
        )
    camo.validate()
    return CamouflagedCircuit(circuit=camo, original=circuit, gates=records)


def attacker_view(camo: CamouflagedCircuit) -> Circuit:
    """The reverse-engineered netlist: look-alike cells, tables unknown.

    Each camouflaged LUT's truth table is replaced by an arbitrary
    placeholder (the attacker cannot read dopant programming); the
    candidate lists in ``camo.gates`` are what layout analysis *does*
    reveal.
    """
    view = camo.circuit.clone(f"{camo.circuit.name}__view")
    placeholder = _TABLES[camo.gates[0].candidates[0]] if camo.gates else None
    for record in camo.gates:
        gate = view.gates[record.gate_name]
        gate.truth_table = placeholder  # type: ignore[assignment]
    view._invalidate()  # truth tables are baked into the compiled IR
    return view


def keyed_model(
    source: Circuit, records: Sequence[CamouflagedGate]
) -> Tuple[Circuit, List[Tuple[CamouflagedGate, str, str]]]:
    """The standard locking reduction of a camouflaged netlist.

    Each ambiguous cell becomes a 4-way choice among its candidate
    functions selected by two fresh key bits (``cam{i}_s0``/``_s1``).
    Returns the keyed circuit plus ``(record, s0, s1)`` selector
    triples.  Both the SAT de-camouflaging attack and
    :class:`CamouflageLock` build on this model.
    """
    modeled = source.clone(f"{source.name}__model")
    selectors: List[Tuple[CamouflagedGate, str, str]] = []
    for i, record in enumerate(records):
        gate = modeled.gates[record.gate_name]
        operands = gate.input_nets()
        output = gate.output
        modeled.remove_gate(record.gate_name)
        arms = []
        for function in record.candidates:
            out = modeled.new_net("camarm")
            modeled.add_gate(
                modeled.new_gate_name("camarm"),
                modeled.library.cheapest(function).name,
                {"A": operands[0], "B": operands[1]},
                out,
            )
            arms.append(out)
        s0 = modeled.add_key_input(f"cam{i}_s0")
        s1 = modeled.add_key_input(f"cam{i}_s1")
        modeled.add_gate(
            modeled.new_gate_name("cammux"),
            modeled.library.cheapest("MUX4").name,
            {"A": arms[0], "B": arms[1], "C": arms[2], "D": arms[3],
             "S0": s0, "S1": s1},
            output,
        )
        selectors.append((record, s0, s1))
    modeled.validate()
    return modeled, selectors


@register_scheme(
    "camouflage",
    description="look-alike cells via the keyed MUX4 reduction",
    key_bits_multiple=2,
    min_key_bits=2,
)
class CamouflageLock(LockingScheme):
    """Camouflaging cast as a locking scheme (two key bits per cell).

    The locked circuit is the keyed reduction of the camouflaged
    netlist: each hidden cell's candidate arms behind a MUX4 whose
    select bits are key inputs.  The correct key picks the true
    function everywhere, so this slots camouflaging straight into the
    scheme x attack arena alongside the key-based schemes.
    """

    name = "camouflage"

    def lock(
        self, circuit: Circuit, num_key_bits: int, rng: random.Random
    ) -> LockedCircuit:
        if num_key_bits < 2 or num_key_bits % 2:
            raise LockingError(
                "each camouflaged cell uses 2 key bits; width must be even"
            )
        try:
            camo = camouflage(circuit, num_key_bits // 2, rng)
        except ValueError as exc:
            raise LockingError(str(exc)) from None
        modeled, selectors = keyed_model(attacker_view(camo), camo.gates)
        modeled.name = f"{circuit.name}__camouflage{num_key_bits}"
        key: Dict[str, int] = {}
        for record, s0, s1 in selectors:
            index = record.candidates.index(record.true_function)
            key[s0] = index & 1
            key[s1] = (index >> 1) & 1
        return LockedCircuit(
            circuit=modeled,
            original=circuit,
            key=key,
            scheme=self.name,
            metadata={
                "camouflaged_gates": [
                    {"gate": r.gate_name, "candidates": list(r.candidates)}
                    for r in camo.gates
                ],
            },
        )


@dataclass
class DecamouflageResult:
    resolved: Dict[str, str] = field(default_factory=dict)  # gate -> function
    correct: int = 0
    iterations: int = 0
    completed: bool = False

    @property
    def success(self) -> bool:
        return self.completed and self.correct == len(self.resolved)


def decamouflage_attack(
    camo: CamouflagedCircuit,
    max_iterations: int = 256,
) -> DecamouflageResult:
    """Resolve every camouflaged cell with the SAT attack.

    Builds the standard reduction: each ambiguous cell becomes a
    4-way choice among its candidate functions selected by two fresh
    key bits, then the DIP loop against the activated chip (the
    original design) pins the selection.
    """
    from ..attacks.oracle import CombinationalOracle
    from ..attacks.sat_attack import sat_attack

    modeled, selectors = keyed_model(attacker_view(camo), camo.gates)

    oracle = CombinationalOracle(camo.original)
    attack = sat_attack(modeled, oracle, max_iterations=max_iterations)
    result = DecamouflageResult(
        iterations=attack.iterations, completed=attack.completed
    )
    if attack.key is None:
        return result
    for record, s0, s1 in selectors:
        index = attack.key[s0] | (attack.key[s1] << 1)
        resolved = record.candidates[index]
        result.resolved[record.gate_name] = resolved
        if resolved == record.true_function:
            result.correct += 1
    return result
