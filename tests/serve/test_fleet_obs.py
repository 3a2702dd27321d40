"""Fleet observability end to end: one query, one span tree.

The distributed-tracing acceptance test lives here: a client root span
must come back as ONE contiguous tree spanning the client, the
front end, and the owning worker process —

    client root -> serve.client.query -> serve.shard.route
                -> serve.request -> serve.batch.flush

— plus the ops-plane invariants: the ``obs`` wire op's fleet totals
agree with the per-worker cumulative stats, and the slow-request log
captures slow, rejected, and deadline-expired requests.
"""

import asyncio
import io
import json
import time

import pytest

from repro import obs
from repro.obs.sinks import InMemorySink, SlowRequestLog, SpanBuffer
from repro.serve import (
    DeadlineExceededError,
    OracleServer,
    RemoteOracle,
    ServeConnection,
    ServerConfig,
    ThreadedServer,
    adopt_remote_trace,
)
from repro.serve import supervisor as supervisor_module
from repro.serve.client import query_request

from tests.serve.conftest import (
    FakeClock,
    bench_text,
    build_chain,
    make_batcher,
)


def _find_chain(span, names):
    """True when *names* occur as an ancestor chain somewhere in the
    tree under *span* (descendants may be separated by other spans)."""
    if not names:
        return True
    rest = names[1:] if span.name == names[0] else names
    if not rest:
        return True
    return any(_find_chain(child, rest) for child in span.children)


def _request(server, request):
    return asyncio.run(server.handle(request))


# ----------------------------------------------------------------------
# Single process, cross-thread stitching
# ----------------------------------------------------------------------

class TestSingleServerTracing:
    def test_client_and_server_spans_form_one_tree(self):
        """Over real TCP (server thread, client thread) the request
        span re-parents under the client's exported context — same
        session, so the tree is contiguous without any adoption."""
        session = obs.enable(InMemorySink())
        try:
            with ThreadedServer(OracleServer()) as address:
                with obs.trace_span("client.root"):
                    oracle = RemoteOracle(address,
                                          circuit=build_chain("t1", 3))
                    assert oracle.query({"a": 1}) == {"y": 0}
                    oracle.close()
            roots = [r for r in session.roots if r.name == "client.root"]
            assert len(roots) == 1, [r.name for r in session.roots]
            assert _find_chain(
                roots[0],
                ["client.root", "serve.client.query", "serve.request"],
            )
        finally:
            obs.disable()

    def test_obs_op_works_with_observability_disabled(self):
        """The ops plane is always on: stats/fleet answer without a
        session; only span shipping needs one."""
        assert not obs.is_enabled()
        server = OracleServer()
        circuit = build_chain("t2", 4)
        _request(server, {"op": "register", "netlist": bench_text(circuit),
                          "name": circuit.name})
        response = _request(server, {"op": "obs", "spans": True})
        assert response["ok"]
        assert response["spans"] == []
        assert response["fleet"]["totals"]["workers"] == 1
        assert response["stats"]["requests"] == 2  # register + obs

    def test_fleet_totals_match_cumulative_stats(self):
        server = OracleServer()
        circuit = build_chain("t3", 5)
        register = _request(server, {"op": "register",
                                     "netlist": bench_text(circuit),
                                     "name": circuit.name})
        for value in (0, 1, 0):
            _request(server, query_request(register["circuit"], ["a"],
                                           [{"a": value}]))
        response = _request(server, {"op": "obs"})
        fleet = response["fleet"]
        stats = response["stats"]
        assert fleet["totals"]["requests"] == stats["requests"]
        assert fleet["totals"]["errors"] == stats["errors"]
        row = fleet["circuits"][register["circuit"]]
        assert row["query_count"] == 3
        assert row["query_count"] == \
            stats["registry"]["query_counts"][register["circuit"]]


# ----------------------------------------------------------------------
# Slow-request log
# ----------------------------------------------------------------------

def _log_events(stream):
    return [json.loads(line) for line in stream.getvalue().splitlines()]


class TestSlowRequestLog:
    def test_slow_and_reject_events(self):
        """threshold 0 logs every answered request as ``slow``; errors
        are always logged as ``reject`` regardless of duration."""
        stream = io.StringIO()
        server = OracleServer(
            slow_log=SlowRequestLog(stream, threshold_s=0.0))
        _request(server, {"op": "ping"})
        _request(server, query_request("nope", ["a"], [{"a": 0}]))
        events = _log_events(stream)
        assert [e["event"] for e in events] == ["slow", "reject"]
        assert events[0]["op"] == "ping"
        assert events[1]["error"] == "unknown-circuit"
        assert events[1]["circuit"] == "nope"
        assert all("took_ms" in e and "ts" in e for e in events)

    def test_fast_requests_stay_unlogged_above_threshold(self):
        stream = io.StringIO()
        server = OracleServer(
            slow_log=SlowRequestLog(stream, threshold_s=60.0))
        _request(server, {"op": "ping"})
        assert stream.getvalue() == ""
        assert server.slow_log.logged == 0

    def test_deadline_expiry_logged_by_the_batcher(self, registry):
        entry = registry.register(build_chain("dl", 2))
        clock = FakeClock()
        batcher, _ = make_batcher(registry, max_batch=64, window_s=60.0,
                                  clock=clock)
        stream = io.StringIO()
        batcher.slow_log = SlowRequestLog(stream, threshold_s=0.0)

        async def scenario():
            task = asyncio.create_task(
                batcher.submit(entry.circuit_id, [{"a": 0}], deadline_ms=10)
            )
            await asyncio.sleep(0)
            clock.advance(0.5)
            batcher.flush_all()
            with pytest.raises(DeadlineExceededError):
                await task

        asyncio.run(scenario())
        (event,) = _log_events(stream)
        assert event["event"] == "deadline-expired"
        assert event["circuit"] == entry.circuit_id[:16]
        assert event["lanes"] == 1
        assert event["late_ms"] > 0


# ----------------------------------------------------------------------
# Control-channel resilience
# ----------------------------------------------------------------------

def test_control_timeout_resets_the_lockstep_channel():
    """A timed-out control request must not desync the channel.

    The control connection is lockstep (no request ids): if a slow
    response is abandoned by ``wait_for`` but arrives later, it would
    be read as the answer to the *next* request — every stats/obs poll
    from then on returns the previous reply.  Obs polls ship span
    payloads, so slow replies are realistic; the fix drops and redials
    the connection on timeout.  Driven by a stub worker endpoint whose
    first reply stalls forever and whose later replies echo a nonce.
    """
    from repro.serve.protocol import encode_frame, read_raw_frame_async
    from repro.serve.supervisor import WorkerHandle

    async def scenario():
        connections = []

        async def stub(reader, writer):
            connection = len(connections)
            connections.append(connection)
            while await read_raw_frame_async(reader) is not None:
                if connection == 0:
                    continue  # first connection: stall every reply
                writer.write(encode_frame({"ok": True,
                                           "nonce": connection}))
                await writer.drain()
            writer.close()

        server = await asyncio.start_server(stub, "127.0.0.1", 0)
        try:
            worker = WorkerHandle(0, ServerConfig())
            worker.address = server.sockets[0].getsockname()[:2]
            worker.control_reader, worker.control_writer = (
                await asyncio.open_connection(*worker.address))

            with pytest.raises(asyncio.TimeoutError):
                await worker.control_request({"op": "stats"}, 0.1)
            # The channel was redialed: the next request goes out on a
            # fresh connection and gets ITS OWN answer, not a stale one.
            response = await worker.control_request({"op": "ping"}, 5.0)
            assert response["nonce"] == 1
            assert len(connections) == 2
            worker.control_writer.close()
        finally:
            server.close()
            await server.wait_closed()

    asyncio.run(scenario())


# ----------------------------------------------------------------------
# Sharded fleet: cross-process stitching + aggregate agreement
# ----------------------------------------------------------------------

class TestShardedFleet:
    CHAIN = ["serve.client.query", "serve.shard.route",
             "serve.request", "serve.batch.flush"]

    @pytest.fixture(autouse=True)
    def fast_polls(self, monkeypatch):
        monkeypatch.setattr(supervisor_module, "HEARTBEAT_S", 0.1)
        monkeypatch.setattr(supervisor_module, "OBS_INTERVAL_S", 0.2)

    def test_traced_fleet_yields_one_contiguous_tree(self):
        """Worker-process spans ship home over the ``obs`` op and stitch
        under the submitting client span — the tentpole acceptance."""
        session = obs.enable(InMemorySink())
        # The front end's own routing spans ship through this buffer
        # alongside the worker trees its polling loop collects.
        session.sinks.append(SpanBuffer())
        server = OracleServer(config=ServerConfig(workers=2, trace=True))
        try:
            with ThreadedServer(server) as address:
                circuit = build_chain("fleettrace", 5)
                with obs.trace_span("client.root"):
                    oracle = RemoteOracle(address, circuit=circuit)
                    for value in (0, 1):
                        oracle.query({"a": value})

                (root,) = [r for r in session.roots
                           if r.name == "client.root"]
                deadline = time.monotonic() + 10.0
                stitched = False
                while time.monotonic() < deadline and not stitched:
                    # obs polls run every 0.2 s; keep adopting until the
                    # worker's request/flush spans have shipped home.
                    adopt_remote_trace(oracle.connection)
                    stitched = _find_chain(root, ["client.root"] + self.CHAIN)
                    if not stitched:
                        time.sleep(0.1)
                assert stitched, f"no contiguous chain under {root.name}"
                oracle.close()
        finally:
            obs.disable()

    def test_fleet_aggregates_agree_with_worker_stats(self):
        server = OracleServer(config=ServerConfig(workers=2))
        with ThreadedServer(server) as address:
            circuit = build_chain("fleetagg", 7)
            oracle = RemoteOracle(address, circuit=circuit)
            queries = 5
            for i in range(queries):
                oracle.query({"a": i % 2})

            connection = ServeConnection(address)
            try:
                deadline = time.monotonic() + 10.0
                fleet = {}
                while time.monotonic() < deadline:
                    response = connection.fetch_obs()
                    assert response["ok"] and response["sharded"]
                    fleet = response["fleet"]
                    row = (fleet.get("circuits") or {}).get(oracle.circuit_id)
                    if row and row["query_count"] >= queries:
                        break
                    time.sleep(0.1)

                assert fleet["totals"]["workers"] == 2
                row = fleet["circuits"][oracle.circuit_id]
                assert row["query_count"] == queries
                assert len(row["workers"]) == 1  # exclusive ring ownership

                # Cross-check the fleet view against the authoritative
                # per-worker rollup the plain stats op reports.
                stats = connection.request({"op": "stats"})
                rollup = stats["rollup"]["query_counts"]
                assert rollup[oracle.circuit_id] == row["query_count"]
                worker_requests = sum(
                    w["requests"] for w in fleet["workers"].values())
                assert fleet["totals"]["requests"] == worker_requests
            finally:
                connection.close()
                oracle.close()
