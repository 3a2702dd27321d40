"""Content-addressed LRU registry and its query accounting."""

import io

import pytest

from repro.netlist.bench_io import parse_bench, write_bench
from repro.serve import (
    CircuitRegistry,
    QueryBudgetExceededError,
    UnknownCircuitError,
    circuit_content_id,
)

from tests.serve.conftest import build_chain


class TestContentId:
    def test_deterministic(self):
        circuit = build_chain()
        assert circuit_content_id(circuit) == circuit_content_id(circuit)

    def test_survives_bench_roundtrip(self):
        circuit = build_chain()
        text = io.StringIO()
        write_bench(circuit, text)
        reparsed = parse_bench(text.getvalue(), name=circuit.name)
        assert circuit_content_id(reparsed) == circuit_content_id(circuit)

    def test_distinct_structures_distinct_ids(self):
        assert (circuit_content_id(build_chain(length=2))
                != circuit_content_id(build_chain(length=3)))


class TestRegistryLru:
    def test_register_is_idempotent_by_content(self, registry):
        first = registry.register(build_chain())
        second = registry.register(build_chain())
        assert first is second
        assert len(registry) == 1
        assert registry.registrations == 1
        assert registry.hits == 1

    def test_get_touches_and_returns(self, registry):
        entry = registry.register(build_chain())
        assert registry.get(entry.circuit_id) is entry

    def test_unknown_circuit_typed_error(self, registry):
        with pytest.raises(UnknownCircuitError):
            registry.get("no-such-circuit")

    def test_capacity_evicts_least_recently_used(self):
        registry = CircuitRegistry(capacity=2)
        a = registry.register(build_chain("a", 1))
        b = registry.register(build_chain("b", 2))
        registry.get(a.circuit_id)  # touch a; b is now LRU
        c = registry.register(build_chain("c", 3))
        assert len(registry) == 2
        assert registry.evictions == 1
        assert a.circuit_id in registry and c.circuit_id in registry
        with pytest.raises(UnknownCircuitError):
            registry.get(b.circuit_id)

    def test_accounting_survives_eviction(self):
        registry = CircuitRegistry(capacity=1)
        a = registry.register(build_chain("a", 1), budget=10)
        registry.charge(a.circuit_id, 4)
        registry.register(build_chain("b", 2))  # evicts a
        assert a.circuit_id not in registry
        assert registry.query_count(a.circuit_id) == 4
        assert registry.budget(a.circuit_id) == 10
        # Re-registering the evicted circuit resumes, not resets.
        registry2 = registry.register(build_chain("a", 1))
        assert registry.query_count(registry2.circuit_id) == 4

    def test_invalid_capacity_rejected(self):
        with pytest.raises(ValueError):
            CircuitRegistry(capacity=0)

    def test_entry_holds_the_circuits_compiled_instance(self, registry):
        from repro.netlist import compile_circuit

        circuit = build_chain()
        entry = registry.register(circuit)
        assert entry.compiled is compile_circuit(circuit)
        assert registry.register(circuit).compiled is entry.compiled
        assert registry.get(circuit_content_id(circuit)).compiled is \
            entry.compiled


class TestBudgets:
    def test_budget_only_tightens(self, registry):
        entry = registry.register(build_chain(), budget=10)
        registry.register(build_chain(), budget=5)
        assert registry.budget(entry.circuit_id) == 5
        registry.register(build_chain(), budget=20)
        assert registry.budget(entry.circuit_id) == 5
        registry.register(build_chain())  # no budget: no relaxation either
        assert registry.budget(entry.circuit_id) == 5

    def test_charge_is_all_or_nothing(self, registry):
        entry = registry.register(build_chain(), budget=3)
        assert registry.charge(entry.circuit_id, 2) == 2
        with pytest.raises(QueryBudgetExceededError):
            registry.charge(entry.circuit_id, 2)
        assert registry.query_count(entry.circuit_id) == 2
        assert registry.charge(entry.circuit_id, 1) == 3

    def test_unbudgeted_circuit_charges_freely(self, registry):
        entry = registry.register(build_chain())
        assert registry.charge(entry.circuit_id, 10_000) == 10_000


def test_unserializable_circuit_is_refused():
    """A GK-locked design (cells beyond the .bench gate set) has no
    ``.bench`` text, so no content ID: the wire could never carry it."""
    import random

    from repro.bench import iwls_benchmark
    from repro.core import GkLock
    from repro.netlist import NetlistError

    bench = iwls_benchmark("s1238")
    locked = GkLock(bench.clock).lock(bench.circuit, 2, random.Random(1))
    with pytest.raises(NetlistError):
        circuit_content_id(locked.circuit)
