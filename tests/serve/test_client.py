"""The blocking client and the RemoteOracle drop-in."""

import pytest

from repro.attacks.oracle import CombinationalOracle, OracleProtocol
from repro.serve import (
    OracleServer,
    QueryBudgetExceededError,
    RemoteOracle,
    ThreadedServer,
    UnknownCircuitError,
)
from repro.serve.client import parse_address

from tests.serve.conftest import build_chain


class TestParseAddress:
    def test_string_form(self):
        assert parse_address("127.0.0.1:9007") == ("127.0.0.1", 9007)

    def test_tuple_form(self):
        assert parse_address(("localhost", "42")) == ("localhost", 42)

    def test_rejects_portless(self):
        with pytest.raises(ValueError):
            parse_address("localhost")


class TestRemoteOracle:
    def test_requires_exactly_one_source(self):
        with pytest.raises(ValueError):
            RemoteOracle("h:1")
        with pytest.raises(ValueError):
            RemoteOracle("h:1", circuit=build_chain(), circuit_id="x")

    def test_drop_in_for_combinational_oracle(self):
        circuit = build_chain()
        local = CombinationalOracle(circuit)
        with ThreadedServer() as (host, port):
            with RemoteOracle((host, port), circuit=circuit) as remote:
                assert isinstance(remote, OracleProtocol)
                assert remote.inputs == local.inputs
                assert remote.outputs == local.outputs
                patterns = [{"a": 0}, {"a": 1}, {"a": 0}]
                assert remote.query({"a": 1}) == local.query({"a": 1})
                assert remote.query_batch(patterns) == \
                    local.query_batch(patterns)
                # Local per-pattern count: identical bookkeeping.
                assert remote.query_count == local.query_count == 4
                assert remote.server_query_count == 4
                assert remote.query_batch([]) == []
                assert remote.query_count == 4

    def test_attach_by_circuit_id(self):
        circuit = build_chain()
        with ThreadedServer() as (host, port):
            first = RemoteOracle((host, port), circuit=circuit)
            second = RemoteOracle((host, port), circuit_id=first.circuit_id)
            assert second.inputs == first.inputs
            first.query({"a": 0})
            second.query({"a": 1})
            # The server's count aggregates across clients...
            assert second.server_query_count == 2
            # ...while each client's local count stays its own.
            assert first.query_count == 1 and second.query_count == 1

    def test_unknown_circuit_id_raises_typed(self):
        with ThreadedServer() as (host, port):
            with pytest.raises(UnknownCircuitError):
                RemoteOracle((host, port), circuit_id="deadbeef")

    def test_budget_enforced_over_the_wire(self):
        circuit = build_chain()
        with ThreadedServer() as (host, port):
            with RemoteOracle((host, port), circuit=circuit,
                              budget=3) as oracle:
                assert oracle.budget == 3
                oracle.query_batch([{"a": 0}, {"a": 1}])
                oracle.query({"a": 0})
                with pytest.raises(QueryBudgetExceededError):
                    oracle.query({"a": 1})
                # The refused query was not counted anywhere.
                assert oracle.server_query_count == 3
                assert oracle.query_count == 3

    def test_second_registration_cannot_lift_budget(self):
        circuit = build_chain()
        with ThreadedServer() as (host, port):
            RemoteOracle((host, port), circuit=circuit, budget=2)
            relaxed = RemoteOracle((host, port), circuit=circuit, budget=100)
            assert relaxed.budget == 2


def test_combinational_oracle_satisfies_protocol():
    assert isinstance(CombinationalOracle(build_chain()), OracleProtocol)


def test_local_connection_matches_tcp_semantics():
    """Awaiting ``handle`` in process speaks the same request dialect."""
    import asyncio
    import io

    from repro.netlist.bench_io import write_bench

    circuit = build_chain()
    text = io.StringIO()
    write_bench(circuit, text)
    server = OracleServer()

    async def scenario():
        info = await server.handle({
            "op": "register", "netlist": text.getvalue(),
            "name": circuit.name,
        })
        reply = await server.handle({
            "op": "query", "circuit": info["circuit"],
            "patterns": [{"a": 1}],
        })
        return reply["outputs"][0]["y"]

    assert asyncio.run(scenario()) == 0
