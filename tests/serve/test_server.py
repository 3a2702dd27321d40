"""The dispatcher (in-process transport) and the TCP front-end."""

import asyncio
import io

from repro.netlist.bench_io import write_bench
from repro.serve import OracleServer, ServeConnection, ThreadedServer
from repro.serve.client import query_answer, query_request
from repro.serve.registry import circuit_content_id

from tests.conftest import build_toy_sequential
from tests.serve.conftest import build_chain


def bench_text(circuit):
    text = io.StringIO()
    write_bench(circuit, text)
    return text.getvalue()


def dispatch(server, *requests):
    """Run one or more requests through the in-process dispatcher."""
    async def scenario():
        return [await server.handle(r) for r in requests]

    responses = asyncio.run(scenario())
    return responses[0] if len(responses) == 1 else responses


class TestDispatch:
    def test_ping(self):
        assert dispatch(OracleServer(), {"op": "ping"})["pong"] is True

    def test_register_describe_query(self):
        server = OracleServer()
        circuit = build_chain()
        registered, described, queried = dispatch(
            server,
            {"op": "register", "netlist": bench_text(circuit),
             "name": circuit.name},
            {"op": "describe", "circuit": circuit_content_id(circuit)},
            query_request(circuit_content_id(circuit), ["a"],
                          [{"a": 0}, {"a": 1}]),
        )
        assert registered["ok"] and registered["circuit"] == described["circuit"]
        assert registered["inputs"] == ["a"]
        assert registered["outputs"] == ["y"]
        assert queried["ok"]
        # 3 inverters
        assert [p["y"] for p in query_answer(queried, ["y"])] == [1, 0]
        assert queried["query_count"] == 2

    def test_register_is_idempotent(self):
        server = OracleServer()
        circuit = build_chain()
        request = {"op": "register", "netlist": bench_text(circuit),
                   "name": circuit.name}
        first, second = dispatch(server, request, dict(request))
        assert first["circuit"] == second["circuit"]
        assert len(server.registry) == 1

    def test_register_normalizes_sequential_to_oracle_view(self):
        server = OracleServer()
        sequential = build_toy_sequential()
        response = dispatch(server, {
            "op": "register", "netlist": bench_text(sequential),
            "name": sequential.name,
        })
        assert response["ok"]
        # FFs become pseudo-PIs/POs: more ports than the sequential shell.
        assert len(response["inputs"]) > len(sequential.inputs)

    def test_register_refuses_locked_netlist(self):
        text = ("INPUT(a)\nINPUT(keyin0)\nOUTPUT(y)\n"
                "y = XOR(a, keyin0)\n")
        response = dispatch(OracleServer(), {"op": "register", "netlist": text})
        assert not response["ok"]
        assert response["error"]["code"] == "protocol-error"
        assert "locked" in response["error"]["message"]

    def test_register_rejects_garbage(self):
        server = OracleServer()
        text = bench_text(build_chain())
        garbage = [{"netlist": netlist} for netlist in ("", "widget(", 42)]
        # A budget is a non-negative int: a bool is not a budget of 1.
        garbage += [{"netlist": text, "budget": budget}
                    for budget in (True, False, 2.0, float("nan"), -1)]
        for fields in garbage:
            response = dispatch(server, {"op": "register", **fields})
            assert not response["ok"], fields
            assert response["error"]["code"] == "protocol-error", fields
        assert len(server.registry) == 0

    def test_unknown_op_and_unknown_circuit(self):
        server = OracleServer()
        bad_op, bad_circuit = dispatch(
            server,
            {"op": "defragment"},
            query_request("missing", ["a"], [{"a": 0}]),
        )
        assert bad_op["error"]["code"] == "protocol-error"
        assert bad_circuit["error"]["code"] == "unknown-circuit"

    def test_bad_pattern_value_rejected_per_request(self):
        """Malformed planes: a typed error before admission, per request."""
        server = OracleServer()
        circuit = build_chain()
        cid = circuit_content_id(circuit)
        register = {"op": "register", "netlist": bench_text(circuit),
                    "name": circuit.name}

        def query(count, planes, **fields):
            return {"op": "query", "circuit": cid, "count": count,
                    "planes": planes, **fields}

        malformed = [
            # bad hex, signs, whitespace and prefixes
            query(1, [["z", "1"]]), query(1, [["-1", "1"]]),
            query(1, [["+1", "1"]]), query(1, [[" 1", "1"]]),
            query(1, [["1", "1\n"]]), query(1, [["0x1", "1"]]),
            query(4, [["1_0", "f"]]), query(1, [["", "1"]]),
            query(1, [[1, 1]]), query(1, [["1", "1", "1"]]),
            query(1, ["11"]), query(1, "11"), query(1, None),
            # wrong number of plane pairs (a missing or an extra input)
            query(1, []), query(1, [["1", "1"], ["1", "1"]]),
            # bits set at or past count
            query(1, [["2", "2"]]), query(1, [["0", "3"]]),
            query(3, [["0", "8"]]),
            # a value bit outside its known plane
            query(2, [["2", "1"]]),
            # a count that is not a positive int
            query(0, [["0", "0"]]), query(-1, [["0", "0"]]),
            query(True, [["1", "1"]]), query(1.0, [["1", "1"]]),
            query("1", [["1", "1"]]), query(None, [["1", "1"]]),
            # a deadline that is not an int or a finite float (json
            # parses the NaN and Infinity literals)
            *(query(1, [["1", "1"]], deadline_ms=deadline)
              for deadline in (True, False, float("nan"), float("inf"),
                               float("-inf"), "10")),
        ]
        responses = dispatch(server, register, *malformed)[1:]
        for request, response in zip(malformed, responses):
            assert not response["ok"], request
            assert response["error"]["code"] == "protocol-error", request
        # Rejected before admission/batching: nothing was evaluated.
        assert server.batcher.lanes_total == 0
        assert server.admission.admitted == 0

    def test_deadline_past_float_range_is_a_protocol_error(self):
        """An int deadline too large for a float is refused on the wire
        check, not by an OverflowError in admission (a serve-error)."""
        server = OracleServer()
        circuit = build_chain()
        response = dispatch(
            server,
            {"op": "register", "netlist": bench_text(circuit),
             "name": circuit.name},
            {"op": "query", "circuit": circuit_content_id(circuit),
             "count": 1, "planes": [["1", "1"]], "deadline_ms": 10 ** 400},
        )[1]
        assert response["error"]["code"] == "protocol-error"
        assert server.admission.stats()["admitted"] == 0

    def test_oversized_count_refused_before_decoding(self):
        """The count is bounded before it sizes a single plane word."""
        server = OracleServer()
        circuit = build_chain()
        response = dispatch(
            server,
            {"op": "register", "netlist": bench_text(circuit),
             "name": circuit.name},
            {"op": "query", "circuit": circuit_content_id(circuit),
             "count": 10 ** 9, "planes": [["0", "0"]]},
        )[1]
        assert response["error"]["code"] == "overloaded"
        assert "limit 4096" in response["error"]["message"]
        assert server.batcher.lanes_total == 0
        assert server.admission.admitted == 0

    def test_x_propagates_as_null(self):
        server = OracleServer()
        circuit = build_chain()
        responses = dispatch(
            server,
            {"op": "register", "netlist": bench_text(circuit),
             "name": circuit.name},
            query_request(circuit_content_id(circuit), ["a"], [{"a": None}]),
        )
        assert query_answer(responses[1], ["y"])[0]["y"] is None

    def test_stats_shape(self):
        server = OracleServer()
        circuit = build_chain()
        responses = dispatch(
            server,
            {"op": "register", "netlist": bench_text(circuit),
             "name": circuit.name},
            query_request(circuit_content_id(circuit), ["a"], [{"a": 1}]),
            {"op": "stats"},
        )
        stats = responses[2]
        assert stats["ok"]
        assert stats["requests"] == 3
        assert stats["errors"] == 0
        assert stats["latency"]["count"] == 2  # stats op not yet recorded
        assert stats["registry"]["size"] == 1
        assert stats["batcher"]["lanes_total"] == 1
        assert stats["admission"]["admitted"] == 1

    def test_unexpected_exception_fails_request_not_server(self):
        server = OracleServer()

        def boom():
            raise RuntimeError("kaput")

        server._op_stats = boom
        response = dispatch(server, {"op": "stats"})
        assert not response["ok"]
        assert response["error"]["code"] == "serve-error"
        assert "kaput" in response["error"]["message"]
        assert dispatch(server, {"op": "ping"})["ok"]  # server survived


class TestTcp:
    def test_threaded_server_roundtrip(self):
        circuit = build_chain()
        with ThreadedServer() as (host, port):
            with ServeConnection((host, port)) as connection:
                assert connection.ping()
                registered = connection.request({
                    "op": "register", "netlist": bench_text(circuit),
                    "name": circuit.name,
                })
                answer = connection.request(query_request(
                    registered["circuit"], ["a"], [{"a": 0}]))
                assert query_answer(answer, ["y"])[0]["y"] == 1
                stats = connection.stats()
                assert stats["connections"]["total"] == 1

    def test_concurrent_connections_share_one_batch(self):
        """Clients on separate sockets coalesce into one compiled pass."""
        from concurrent.futures import ThreadPoolExecutor

        from repro.serve import BatchConfig, ServerConfig

        circuit = build_chain()
        # A generous window so thread-startup jitter cannot stagger the
        # eight arrivals across separate windows and flake the assert.
        server = OracleServer(config=ServerConfig(
            batch=BatchConfig(max_batch=64, window_s=0.25)
        ))
        with ThreadedServer(server) as (host, port):
            with ServeConnection((host, port)) as setup:
                cid = setup.request({
                    "op": "register", "netlist": bench_text(circuit),
                    "name": circuit.name,
                })["circuit"]

            def one_query(value):
                with ServeConnection((host, port)) as connection:
                    answer = connection.request(
                        query_request(cid, ["a"], [{"a": value}]))
                    return query_answer(answer, ["y"])[0]["y"]

            with ThreadPoolExecutor(max_workers=8) as pool:
                answers = list(pool.map(one_query, [i % 2 for i in range(8)]))
        assert answers == [1 - i % 2 for i in range(8)]
        assert server.batcher.lanes_total == 8
        # Windowed coalescing across sockets: fewer flushes than queries.
        assert server.batcher.batches < 8

    def test_pipelined_queries_answered_in_order(self):
        """A client that writes three query frames before reading any
        answer gets all three, in order, from the lockstep loop."""
        import socket

        from repro.serve.protocol import encode_frame, recv_frame

        circuit = build_chain()
        batches = [[{"a": 0}], [{"a": 1}, {"a": 0}], [{"a": 1}] * 3]
        with ThreadedServer() as address:
            with ServeConnection(address) as connection:
                cid = connection.request({
                    "op": "register", "netlist": bench_text(circuit),
                    "name": circuit.name,
                })["circuit"]
            with socket.create_connection(address, timeout=10.0) as sock:
                sock.sendall(b"".join(
                    encode_frame(query_request(cid, ["a"], batch))
                    for batch in batches))
                answers = [recv_frame(sock) for _ in batches]
        assert [query_answer(answer, ["y"]) for answer in answers] == [
            [{"y": 1}], [{"y": 0}, {"y": 1}], [{"y": 0}] * 3]
        # Each request was answered before the next was read: none
        # shared a batch, so each saw only its predecessors' charges.
        assert [answer["query_count"] for answer in answers] == [1, 3, 6]

    def test_drain_on_shutdown_leaves_no_pending_work(self):
        server = OracleServer()
        with ThreadedServer(server) as (host, port):
            with ServeConnection((host, port)) as connection:
                connection.request({
                    "op": "register",
                    "netlist": bench_text(build_chain()),
                })
        assert server.admission.draining
        assert server.admission.idle
