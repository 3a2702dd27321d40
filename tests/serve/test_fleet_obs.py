"""Server observability end to end: one query, one span tree.

The distributed-tracing acceptance test lives here: a client root span
must come back as ONE contiguous tree spanning the client and the
server process —

    client root -> serve.client.query -> serve.request
                -> serve.batch.flush

— and each traced client of one server adopts only its own trees;
plus the ops-plane invariants: the views rendered from the ``obs``
wire op agree with the cumulative stats, and the slow-request log
captures slow, rejected, and deadline-expired requests.
"""

import asyncio
import contextlib
import io
import json
import signal

import pytest

from repro import obs
from repro.obs import context as _obs
from repro.obs.context import ObsSession
from repro.obs.export import render_exposition, render_top
from repro.obs.metrics import MetricsRegistry
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
        """The ops plane is always on: stats answer without a session;
        only span shipping needs one."""
        assert not obs.is_enabled()
        server = OracleServer()
        circuit = build_chain("t2", 4)
        _request(server, {"op": "register", "netlist": bench_text(circuit),
                          "name": circuit.name})
        response = _request(server, {"op": "obs", "spans": True})
        assert set(response) == {"ok", "stats", "latency_hist", "metrics",
                                 "spans"}
        assert response["spans"] == []
        assert response["metrics"] is None
        assert response["stats"]["requests"] == 1  # an obs poll is not one

    def test_obs_polls_are_not_requests(self):
        """``repro top`` and the metrics dumper poll ``obs``: the polls
        move neither ``requests`` nor the latency histogram, while a
        ``stats`` request still counts in both."""
        server = OracleServer()
        for _ in range(3):
            response = _request(server, {"op": "obs"})
        assert response["stats"]["requests"] == 0
        assert response["latency_hist"]["count"] == 0
        _request(server, {"op": "stats"})
        response = _request(server, {"op": "obs"})
        assert response["stats"]["requests"] == 1
        assert response["latency_hist"]["count"] == 1

    def test_ops_views_match_cumulative_stats(self):
        server = OracleServer()
        circuit = build_chain("t3", 5)
        register = _request(server, {"op": "register",
                                     "netlist": bench_text(circuit),
                                     "name": circuit.name})
        for value in (0, 1, 0):
            _request(server, query_request(register["circuit"], ["a"],
                                           [{"a": value}]))
        response = _request(server, {"op": "obs"})
        stats = response["stats"]
        cid = register["circuit"]
        assert stats["registry"]["query_counts"][cid] == 3
        exposition = render_exposition(response).splitlines()
        assert f"repro_serve_requests {stats['requests']}" in exposition
        assert f"repro_serve_errors {stats['errors']}" in exposition
        assert f'repro_serve_circuit_queries{{circuit="{cid}"}} 3' \
            in exposition
        (row,) = [line for line in render_top(response).splitlines()
                  if line.startswith(cid[:15])]
        assert row.split()[1:3] == ["3", "-"]


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


@contextlib.contextmanager
def _active(session):
    """Make *session* the process's active one for a block, as if each
    client ran in its own process."""
    previous = _obs.ACTIVE
    _obs.ACTIVE = session
    try:
        yield
    finally:
        _obs.ACTIVE = previous


class TestTraceScopedAdoption:
    def test_each_client_adopts_only_its_own_trees(self, tmp_path):
        """Two traced clients, each with its own session, on one
        `repro serve --fleet-trace` process: each adopts exactly the
        trees of its own requests (register and queries), stitched
        under its own spans; neither takes the server's startup
        registration or the other's trees, and the first adoption
        leaves the second client's trees in place."""
        circuit = build_chain("scoped", 4)
        netlist = tmp_path / "scoped.bench"
        netlist.write_text(bench_text(circuit))
        with serve_process(netlist, tmp_path,
                           "--fleet-trace") as (server, address):
            clients = {}
            for name, queries in (("a", 2), ("b", 1)):
                session = ObsSession([InMemorySink()], MetricsRegistry())
                with _active(session):
                    with obs.trace_span(f"client.{name}"):
                        oracle = RemoteOracle(address, circuit=circuit)
                        for value in range(queries):
                            oracle.query({"a": value})
                clients[name] = (session, oracle, queries)
            for name in ("b", "a"):  # b adopts first
                session, oracle, queries = clients[name]
                with _active(session):
                    assert adopt_remote_trace(oracle.connection) \
                        == 1 + queries
                oracle.close()
            server.send_signal(signal.SIGTERM)
            assert server.wait(timeout=10.0) == 0

        for name, (session, _oracle, queries) in clients.items():
            (root,) = session.roots
            assert root.name == f"client.{name}"
            requests = [span for span in root.iter_tree()
                        if span.name == "serve.request"]
            assert sorted(span.attrs["op"] for span in requests) == \
                ["query"] * queries + ["register"]
            assert {span.attrs["trace_id"] for span in requests} == \
                {session.trace_id}
            for span in requests:
                if span.attrs["op"] == "query":
                    assert span.parent.name == "serve.client.query"
                else:
                    assert span.parent is root
