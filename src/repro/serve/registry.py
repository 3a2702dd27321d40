"""Circuit registry: content-addressed LRU of compiled oracle circuits.

The serving layer hosts circuits by **content hash** — the same
SHA-256-over-canonical-JSON identity the campaign cache uses
(:func:`repro.campaign.cache.content_key` over the circuit's ``.bench``
text) — so registering the same netlist twice, from two clients or two
processes, lands on one entry and one
:class:`~repro.netlist.compiled.CompiledCircuit` instance.  Each entry
holds that instance for its lifetime, so a hosted chip does not change
under the attacker's feet even if the Python object it was built from
is later mutated.

Entries are kept in an LRU of bounded ``capacity``; **query accounting
survives eviction**: per-circuit query counts and budgets live in a
side table keyed by circuit ID, because an attacker's query budget must
not reset just because the compiled instance was cold enough to evict.
"""

from __future__ import annotations

import io
import threading
from collections import OrderedDict
from typing import Any, Dict, Optional

from ..campaign.cache import content_key
from ..netlist.bench_io import write_bench
from ..netlist.circuit import Circuit
from ..netlist.compiled import CompiledCircuit, compile_circuit
from .protocol import QueryBudgetExceededError, UnknownCircuitError

__all__ = [
    "circuit_content_id",
    "RegisteredCircuit",
    "CircuitRegistry",
]


def circuit_content_id(circuit: Circuit) -> str:
    """Content hash of *circuit* (its canonical ``.bench`` serialization).

    Serializing and re-parsing the same text therefore lands on one ID,
    which is what makes registration idempotent across clients.  A
    circuit with cells beyond the ``.bench`` gate set raises
    :class:`~repro.netlist.circuit.NetlistError`: the wire ships
    ``.bench`` text and can never carry one.
    """
    text = io.StringIO()
    write_bench(circuit, text)
    return content_key(kind="serve.circuit", netlist=text.getvalue())


class RegisteredCircuit:
    """One hosted circuit: the source netlist plus its compiled form."""

    __slots__ = ("circuit_id", "circuit", "compiled")

    def __init__(self, circuit_id: str, circuit: Circuit,
                 compiled: CompiledCircuit) -> None:
        self.circuit_id = circuit_id
        self.circuit = circuit
        self.compiled = compiled

    def describe(self) -> Dict[str, Any]:
        """The interface payload register/describe responses carry."""
        return {
            "circuit": self.circuit_id,
            "name": self.circuit.name,
            "inputs": list(self.compiled.inputs),
            "outputs": list(self.compiled.outputs),
        }


class CircuitRegistry:
    """Bounded LRU of :class:`RegisteredCircuit` plus query accounting.

    Thread-safe: the asyncio server mutates it from the event loop while
    other threads (an in-process client, ``stats`` readers) read it.
    """

    def __init__(self, capacity: int = 16) -> None:
        if capacity < 1:
            raise ValueError("registry capacity must be >= 1")
        self.capacity = capacity
        self._entries: "OrderedDict[str, RegisteredCircuit]" = OrderedDict()
        self._lock = threading.Lock()
        # Accounting outlives eviction (budgets must not reset).
        self._query_counts: Dict[str, int] = {}
        self._budgets: Dict[str, Optional[int]] = {}
        self.registrations = 0
        self.evictions = 0
        self.hits = 0
        self.misses = 0

    def __len__(self) -> int:
        return len(self._entries)

    def __contains__(self, circuit_id: str) -> bool:
        return circuit_id in self._entries

    # ------------------------------------------------------------------

    def register(
        self,
        circuit: Circuit,
        budget: Optional[int] = None,
    ) -> RegisteredCircuit:
        """Host *circuit*, compiling it once; idempotent by content.

        Re-registering an already-hosted circuit refreshes its LRU slot
        and returns the existing entry; a *budget* passed on a
        re-registration only tightens (never relaxes) the recorded one,
        so a second client cannot lift the first one's cap.
        """
        circuit_id = circuit_content_id(circuit)
        with self._lock:
            entry = self._entries.get(circuit_id)
            if entry is not None:
                self._entries.move_to_end(circuit_id)
                self.hits += 1
                self._tighten_budget(circuit_id, budget)
                return entry
        # Compile outside the lock (it can take milliseconds on the big
        # benchmarks); compile_circuit memoizes on the circuit, so a
        # racing duplicate registration costs nothing extra.
        compiled = compile_circuit(circuit)
        entry = RegisteredCircuit(circuit_id, circuit, compiled)
        with self._lock:
            self.misses += 1
            self.registrations += 1
            self._entries[circuit_id] = entry
            self._entries.move_to_end(circuit_id)
            self._query_counts.setdefault(circuit_id, 0)
            self._tighten_budget(circuit_id, budget)
            while len(self._entries) > self.capacity:
                self._entries.popitem(last=False)
                self.evictions += 1
        return entry

    def _tighten_budget(self, circuit_id: str, budget: Optional[int]) -> None:
        if budget is None:
            self._budgets.setdefault(circuit_id, None)
            return
        current = self._budgets.get(circuit_id)
        if current is None:
            self._budgets[circuit_id] = budget
        else:
            self._budgets[circuit_id] = min(current, budget)

    def get(self, circuit_id: str) -> RegisteredCircuit:
        """The hosted entry (LRU-touched); typed error when absent."""
        with self._lock:
            entry = self._entries.get(circuit_id)
            if entry is None:
                self.misses += 1
                raise UnknownCircuitError(
                    f"no circuit registered under {circuit_id[:16]}..."
                    if len(circuit_id) > 16
                    else f"no circuit registered under {circuit_id!r}"
                )
            self._entries.move_to_end(circuit_id)
            self.hits += 1
            return entry

    # ------------------------------------------------------------------
    # Query accounting
    # ------------------------------------------------------------------

    def charge(self, circuit_id: str, patterns: int) -> int:
        """Count *patterns* oracle queries against the circuit's budget.

        Returns the cumulative query count (the served analogue of
        ``CombinationalOracle.query_count``).  All-or-nothing: a request
        that would cross the budget is refused whole, leaving the count
        untouched, so a client never pays for answers it did not get.
        """
        with self._lock:
            count = self._query_counts.get(circuit_id, 0)
            budget = self._budgets.get(circuit_id)
            if budget is not None and count + patterns > budget:
                raise QueryBudgetExceededError(
                    f"query budget exhausted: {count}/{budget} used, "
                    f"{patterns} more requested"
                )
            count += patterns
            self._query_counts[circuit_id] = count
            return count

    def query_count(self, circuit_id: str) -> int:
        return self._query_counts.get(circuit_id, 0)

    def budget(self, circuit_id: str) -> Optional[int]:
        return self._budgets.get(circuit_id)

    # ------------------------------------------------------------------

    def stats(self) -> Dict[str, Any]:
        with self._lock:
            return {
                "size": len(self._entries),
                "capacity": self.capacity,
                "registrations": self.registrations,
                "evictions": self.evictions,
                "hits": self.hits,
                "misses": self.misses,
                "query_counts": dict(self._query_counts),
                "budgets": dict(self._budgets),
            }

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"CircuitRegistry({len(self._entries)}/{self.capacity}, "
                f"hits={self.hits}, misses={self.misses})")
