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
from repro.netlist import NetlistError
from repro.serve.client import parse_address, query_answer, query_request

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
        reply = await server.handle(
            query_request(info["circuit"], info["inputs"], [{"a": 1}]))
        return query_answer(reply, info["outputs"])[0]["y"]

    assert asyncio.run(scenario()) == 0


class TestQueryRequest:
    """The dict edge of the plane wire format."""

    def test_packs_one_plane_pair_per_input(self):
        request = query_request("cid", ["a", "b"],
                                [{"a": 1, "b": None}, {"a": 0, "b": 1}],
                                deadline_ms=5)
        assert request == {"op": "query", "circuit": "cid", "count": 2,
                           "planes": [["1", "3"], ["2", "2"]],
                           "deadline_ms": 5}
        answer = {"ok": True, "count": 2, "planes": [["1", "3"]]}
        assert query_answer(answer, ["y"]) == [{"y": 1}, {"y": 0}]

    def test_bad_patterns_rejected_before_sending(self):
        """Value, unknown-net and missing-net errors are the in-process
        oracle's, raised client-side: nothing reaches the batcher."""
        server = OracleServer()
        with ThreadedServer(server) as (host, port):
            with RemoteOracle((host, port), circuit=build_chain()) as remote:
                with pytest.raises(ValueError, match="not a logic value"):
                    remote.query({"a": 2})
                with pytest.raises(NetlistError, match="unknown net"):
                    remote.query({"a": 0, "zz": 1})
                with pytest.raises(NetlistError, match="no value supplied"):
                    remote.query({})
                assert remote.query_count == 0
        assert server.batcher.lanes_total == 0
        assert server.admission.admitted == 0

    def test_64_pattern_s1238_query_fits_the_wire_budget(self):
        """At most 2 KB in and 4 KB out (one JSON object per pattern
        took 18.5 KB and 38.1 KB)."""
        import asyncio
        import json
        import random

        from repro.bench import iwls_benchmark
        from repro.serve.client import register_request

        circuit = iwls_benchmark("s1238").circuit
        server = OracleServer()

        async def scenario():
            info = await server.handle(register_request(circuit))
            rng = random.Random(7)
            patterns = [{net: rng.randint(0, 1) for net in info["inputs"]}
                        for _ in range(64)]
            request = query_request(info["circuit"], info["inputs"],
                                    patterns)
            return request, await server.handle(request)

        request, response = asyncio.run(scenario())
        assert response["ok"] and response["count"] == 64
        size = len(json.dumps(request, separators=(",", ":")))
        assert size <= 2048
        assert len(json.dumps(response, separators=(",", ":"))) <= 4096
