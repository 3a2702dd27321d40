"""Fleet observability end to end: one query, one span tree.

The distributed-tracing acceptance test lives here: a client root span
must come back as ONE contiguous tree spanning the client and the
server process —

    client root -> serve.client.query -> serve.request
                -> serve.batch.flush

— plus the ops-plane invariants: the ``obs`` wire op's fleet totals
agree with the cumulative stats, and the slow-request log captures
slow, rejected, and deadline-expired requests.
"""

import asyncio
import io
import json
import signal

import pytest

from repro import obs
from repro.obs.sinks import InMemorySink, SlowRequestLog
from repro.serve import (
    DeadlineExceededError,
    OracleServer,
    RemoteOracle,
    ThreadedServer,
    adopt_remote_trace,
)
from repro.serve.client import query_request

from tests.serve.conftest import (
    FakeClock,
    bench_text,
    build_chain,
    make_batcher,
    serve_process,
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
# Cross-process stitching
# ----------------------------------------------------------------------

class TestCrossProcessTracing:
    CHAIN = ["client.root", "serve.client.query", "serve.request",
             "serve.batch.flush"]

    def test_traced_query_yields_one_contiguous_tree(self, tmp_path):
        """`repro serve --fleet-trace` in its own process: its request
        and flush spans ship home over the ``obs`` op and stitch under
        the submitting client span — the flow of ``repro attack
        --remote ... --profile``."""
        circuit = build_chain("xtrace", 5)
        netlist = tmp_path / "xtrace.bench"
        netlist.write_text(bench_text(circuit))
        with serve_process(netlist, tmp_path,
                           "--fleet-trace") as (server, address):
            session = obs.enable(InMemorySink())
            try:
                with obs.trace_span("client.root"):
                    oracle = RemoteOracle(address, circuit=circuit)
                    for value in (0, 1):
                        oracle.query({"a": value})
                # The server closes a request's span before it writes
                # the answer, so both trees are buffered by now.
                assert adopt_remote_trace(oracle.connection) >= 2
                oracle.close()
            finally:
                obs.disable()
            server.send_signal(signal.SIGTERM)
            assert server.wait(timeout=10.0) == 0
        (root,) = [r for r in session.roots if r.name == "client.root"]
        assert _find_chain(root, self.CHAIN), \
            f"no contiguous chain under {root.name}"
