"""Attack oracles: models of the "functionally correct chip".

The SAT attack model [11] assumes the attacker holds (1) the locked
netlist and (2) an *activated* chip — a black box answering input/output
queries.  Two oracle flavours:

* :class:`CombinationalOracle` — the standard scan-enabled view: the
  chip's combinational core queried directly (pseudo-PIs = FF outputs,
  pseudo-POs = FF inputs).  Backed by the original netlist's
  zero-delay evaluation, since the activated chip computes the original
  function.
* :class:`TimingOracle` — the chip at speed: event-driven simulation of
  the *locked* netlist under the correct key.  This is what a
  scan-based launch/capture test (Sec. VI's BIST discussion) actually
  observes, glitches included.

:class:`OracleProtocol` is the structural contract every combinational
oracle satisfies — the attacks (SAT, AppSAT, key verification) are
typed against it, so any implementation plugs in: the in-process
:class:`CombinationalOracle`, the served
:class:`~repro.serve.client.RemoteOracle`, or a test stub.
:class:`TwoVectorOracleProtocol` is the analogous seam for the *timed*
attack surface (TCF's launch/capture measurements).

Both concrete oracles resolve their compiled circuit through the
process-wide serving registry
(:func:`repro.serve.registry.default_registry`) **once, at
construction**, and hold the instance — the same
lookup-then-hold story the oracle server uses, and the correct
semantics for an activated chip: it does not change because the Python
``Circuit`` object it was built from is later mutated.
"""

from __future__ import annotations

import random
from typing import Dict, List, Mapping, Optional, Sequence

try:  # typing.Protocol is 3.8+; keep the guard cheap and explicit
    from typing import Protocol, runtime_checkable
except ImportError:  # pragma: no cover - py<3.8 fallback, never hit in CI
    Protocol = object  # type: ignore[assignment]

    def runtime_checkable(cls):  # type: ignore[misc]
        return cls

from ..locking.base import LockedCircuit
from ..netlist.circuit import Circuit, NetlistError
from ..netlist.transform import combinational_circuit
from ..sim.harness import SequentialTrace, simulate_sequential
from ..sim.logic import LogicValue

__all__ = [
    "OracleProtocol",
    "TwoVectorOracleProtocol",
    "CombinationalOracle",
    "TimingOracle",
    "random_pattern",
]


@runtime_checkable
class OracleProtocol(Protocol):
    """What the oracle-guided attacks require of an activated chip.

    ``query_count`` counts one per *pattern* regardless of batching —
    batching is an evaluation optimization, not a cheaper attack model —
    so query totals are comparable across implementations.
    """

    inputs: List[str]
    outputs: List[str]
    query_count: int

    def query(
        self, assignment: Mapping[str, LogicValue]
    ) -> Dict[str, LogicValue]:
        """Outputs of the activated chip for one input pattern."""
        ...

    def query_batch(
        self, assignments: Sequence[Mapping[str, LogicValue]]
    ) -> List[Dict[str, LogicValue]]:
        """Outputs for many patterns (counts one query per pattern)."""
        ...


@runtime_checkable
class TwoVectorOracleProtocol(Protocol):
    """The at-speed tester interface the timed (TCF) attack queries."""

    query_count: int

    def two_vector(
        self,
        v1: Mapping[str, int],
        v2: Mapping[str, int],
        sample_time: float,
    ) -> Dict[str, Optional[int]]:
        """Sampled primary outputs of one launch/capture test."""
        ...


def random_pattern(nets: Sequence[str], rng: random.Random) -> Dict[str, int]:
    return {net: rng.randint(0, 1) for net in nets}


def _registry_compiled(circuit: Circuit):
    """Compiled instance via the serving registry (one memo story).

    Imported lazily: ``repro.serve`` imports this module for the
    protocol, so a module-level import would be circular.  At call time
    (oracle construction) both packages are fully initialized.
    """
    from ..serve.registry import default_registry

    return default_registry().compiled_for(circuit)


class CombinationalOracle:
    """I/O oracle over the combinational core of the original design."""

    def __init__(self, original: Circuit) -> None:
        if original.key_inputs:
            raise NetlistError("the oracle wraps the *original* (keyless) design")
        self.circuit = comb = combinational_circuit(original)
        self._compiled = _registry_compiled(comb)
        self.inputs: List[str] = list(comb.inputs)
        self.outputs: List[str] = list(comb.outputs)
        self.query_count = 0

    def query(self, assignment: Mapping[str, LogicValue]) -> Dict[str, LogicValue]:
        """Outputs of the activated chip for one input pattern."""
        self.query_count += 1
        return self._compiled.query_outputs([assignment])[0]

    def query_batch(
        self, assignments: Sequence[Mapping[str, LogicValue]]
    ) -> List[Dict[str, LogicValue]]:
        """Outputs for many patterns: one bit-parallel pass per lane width.

        Counts one oracle query per pattern — batching is an evaluation
        optimization, not a cheaper attack model.
        """
        self.query_count += len(assignments)
        return self._compiled.query_outputs(assignments)


class TimingOracle:
    """The activated chip observed at speed (glitches and all)."""

    def __init__(
        self,
        locked: LockedCircuit,
        clock_period: float,
        delay_mode: str = "transport",
    ) -> None:
        self.locked = locked
        self.clock_period = clock_period
        self.delay_mode = delay_mode
        # Same memoization story as CombinationalOracle: the compiled
        # instance the event simulator's settle pass needs is resolved
        # through the registry up front, not re-derived per run.
        self._compiled = _registry_compiled(locked.circuit)
        self.run_count = 0

    def run(
        self, input_sequence: Sequence[Mapping[str, LogicValue]]
    ) -> SequentialTrace:
        """Drive the chip for ``len(input_sequence)`` cycles."""
        self.run_count += 1
        return simulate_sequential(
            self.locked.circuit,
            self.clock_period,
            input_sequence,
            key=self.locked.key,
            delay_mode=self.delay_mode,
        )
