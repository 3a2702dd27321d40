"""Switching-activity estimation (a dynamic-power proxy).

Sec. III opens with "when the length of a glitch is adjustable by
designers, a glitch is not a waste anymore" — glitches normally only
waste power.  A GK-locked design deliberately adds one glitch per
encrypted flip-flop per cycle (plus a KEYGEN toggle), so its dynamic
power rises even though its logical behaviour is unchanged.  This
module measures that cost the standard way: count net transitions per
clock cycle in event simulation and weight each by the driven
capacitance proxy (fanout count + 1).

Used by the power-overhead ablation bench; also a generally useful
profiling tool for any circuit in the repo.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Mapping, Optional, Sequence

from ..netlist.circuit import Circuit
from ..sim.harness import simulate_sequential
from ..sim.logic import LogicValue

__all__ = ["ActivityReport", "switching_activity"]


@dataclass(frozen=True)
class ActivityReport:
    """Transition counts from one simulation run."""

    circuit_name: str
    cycles: int
    transitions: int  # total net value changes in the measured window
    weighted: float  # transitions weighted by fanout+1 (capacitance proxy)
    per_net: Dict[str, int]

    @property
    def transitions_per_cycle(self) -> float:
        return self.transitions / self.cycles if self.cycles else 0.0

    @property
    def weighted_per_cycle(self) -> float:
        return self.weighted / self.cycles if self.cycles else 0.0

    def busiest(self, count: int = 5):
        """The most active nets, (net, transitions), busiest first."""
        ranked = sorted(self.per_net.items(), key=lambda kv: (-kv[1], kv[0]))
        return ranked[:count]


def switching_activity(
    circuit: Circuit,
    clock_period: float,
    input_sequence: Sequence[Mapping[str, LogicValue]],
    key: Optional[Mapping[str, LogicValue]] = None,
    settle_cycles: int = 1,
) -> ActivityReport:
    """Count net transitions over the input sequence.

    The first *settle_cycles* cycles are excluded (power-up settling).
    The clock net itself is excluded — its tree is not modeled — but
    every data net, including the GK/KEYGEN internals, is counted.
    """
    trace = simulate_sequential(circuit, clock_period, input_sequence,
                                key=key)
    start = settle_cycles * clock_period
    end = len(input_sequence) * clock_period
    per_net: Dict[str, int] = {}
    weighted = 0.0
    for net, waveform in trace.result.waveforms.items():
        if net == circuit.clock:
            continue
        count = sum(1 for t, _v in waveform.changes if start <= t < end)
        if count:
            per_net[net] = count
            weighted += count * (len(circuit.fanout_pins(net)) + 1)
    return ActivityReport(
        circuit_name=circuit.name,
        cycles=len(input_sequence) - settle_cycles,
        transitions=sum(per_net.values()),
        weighted=weighted,
        per_net=per_net,
    )
