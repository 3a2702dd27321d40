"""Output-corruption metrics for wrong keys.

Sec. VI argues a GK "can act as an inverter or a buffer just like
conventional key-gate does, and the behaviors provide a stronger
corruptibility to POs than other SAT resistant methods" — point
functions like SARLock corrupt one input pattern per wrong key, while a
wrong GK key complements a flip-flop *every cycle*.

Corruptibility here is the standard logic-locking metric: the fraction
of observed output bits that differ from the original design, averaged
over random wrong keys and random stimulus.  Combinational schemes are
measured on the combinational view; GK schemes are measured where their
corruption actually lives — the timing-accurate sequential chip.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Optional

from ..locking.base import LockedCircuit
from ..netlist.compiled import compile_circuit
from ..netlist.transform import combinational_circuit
from ..sim.harness import compare_with_original, random_input_sequence

__all__ = ["CorruptionReport", "combinational_corruption",
           "sequential_corruption"]


@dataclass(frozen=True)
class CorruptionReport:
    """Average wrong-key output corruption of one locked design."""

    scheme: str
    wrong_keys_sampled: int
    observations: int  # output bits compared in total
    corrupted: int  # of which differed from the original

    @property
    def rate(self) -> float:
        return self.corrupted / self.observations if self.observations else 0.0

    def __str__(self) -> str:
        return (
            f"{self.scheme}: {100 * self.rate:.2f}% of output bits corrupted "
            f"({self.wrong_keys_sampled} wrong keys)"
        )


def combinational_corruption(
    locked: LockedCircuit,
    wrong_keys: int = 8,
    patterns_per_key: int = 32,
    rng: Optional[random.Random] = None,
) -> CorruptionReport:
    """Zero-delay corruption of a (possibly sequential) locked design.

    Measures the combinational view — the right lens for XOR/SARLock/
    Anti-SAT whose corruption is Boolean.  (A GK measured this way shows
    its *constant-mode* corruption, i.e. what an unlicensed user who
    straps the key wires would see.)
    """
    rng = rng or random.Random(0)
    original = locked.original
    comb_orig = combinational_circuit(original)
    comb_lock = combinational_circuit(locked.circuit)
    output_map = list(zip(comb_lock.outputs, comb_orig.outputs))
    observations = corrupted = 0
    for _ in range(wrong_keys):
        key = locked.random_wrong_key(rng)
        patterns = [
            {net: rng.randint(0, 1) for net in comb_orig.inputs}
            for _ in range(patterns_per_key)
        ]
        want_all = compile_circuit(comb_orig).query_outputs(patterns)
        got_all = compile_circuit(comb_lock).query_outputs(
            [dict(pattern, **key) for pattern in patterns]
        )
        for want, got in zip(want_all, got_all):
            for net_l, net_o in output_map:
                observations += 1
                if got[net_l] != want[net_o]:
                    corrupted += 1
    return CorruptionReport(
        scheme=locked.scheme,
        wrong_keys_sampled=wrong_keys,
        observations=observations,
        corrupted=corrupted,
    )


def sequential_corruption(
    locked: LockedCircuit,
    clock_period: float,
    wrong_keys: int = 4,
    cycles: int = 10,
    rng: Optional[random.Random] = None,
) -> CorruptionReport:
    """Timing-accurate corruption: the chip with a wrong key on the
    bench, outputs and state compared against the original cycle by
    cycle.  This is where GK corruption manifests (the glitch level)."""
    rng = rng or random.Random(0)
    observations = corrupted = 0
    for _ in range(wrong_keys):
        key = locked.random_wrong_key(rng)
        seq = random_input_sequence(locked.original, cycles, rng)
        result = compare_with_original(
            locked.original, locked.circuit, clock_period, seq, key
        )
        per_cycle = len(locked.original.outputs) + len(
            locked.original.flip_flops()
        )
        observations += result.cycles * per_cycle
        corrupted += result.mismatch_count
    return CorruptionReport(
        scheme=locked.scheme,
        wrong_keys_sampled=wrong_keys,
        observations=observations,
        corrupted=corrupted,
    )
