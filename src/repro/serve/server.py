"""The oracle server: asyncio TCP front-end over registry + batcher.

Layering, from the wire inward:

* a TCP listener (:meth:`OracleServer.start`) framing requests with the
  length-prefixed JSON protocol; one asyncio task per connection,
  reading a request, answering it and writing the answer in lockstep,
  connections served concurrently — which is what lets the batcher
  coalesce across clients;
* a transport-independent dispatcher (:meth:`OracleServer.handle`)
  mapping ``op`` fields onto the registry / batcher / admission
  trio and typed errors onto failure payloads.  In-process callers
  (the batcher tests, the batching benchmark, ``repro serve``'s own
  registrations) await it directly — the full serving semantics minus
  sockets;
* :class:`ThreadedServer`, a small harness running the server on a
  dedicated event-loop thread so blocking clients (the synchronous
  :class:`~repro.serve.client.RemoteOracle`, a pytest process, the SAT
  attack) can talk to a live server in the same process.

One process serves every op: its event-loop thread decodes, batches,
evaluates and encodes (DESIGN §7 records why there is no multi-process
backend).  Ops: ``ping``, ``register`` (host a ``.bench`` netlist,
normalized to its combinational oracle view), ``describe``, ``query``
(the batched hot path), ``stats``, ``obs``.  Shutdown is a drain:
admission stops accepting, in-flight work completes, then the listener
closes.
"""

from __future__ import annotations

import asyncio
import sys
import threading
import time
from dataclasses import dataclass, field
from typing import Any, Dict, List, Mapping, Optional, Tuple

from ..netlist.bench_io import parse_bench
from ..netlist.transform import combinational_circuit
from ..obs import context as _obs
from ..obs import metrics as _metrics
from ..obs.metrics import histogram_snapshot
from ..obs.propagate import TraceContext, context_from_request, remote_span
from ..obs.sinks import SlowRequestLog, SpanBuffer
from .admission import AdmissionConfig, AdmissionController
from .batcher import BatchConfig, DynamicBatcher
from .protocol import (
    ProtocolError,
    ServeError,
    decode_count,
    decode_planes,
    encode_planes,
    error_to_payload,
    read_frame_async,
    write_frame_async,
)
from .registry import CircuitRegistry

__all__ = ["ServerConfig", "OracleServer", "ThreadedServer",
           "registration_view"]


@dataclass(frozen=True)
class ServerConfig:
    """Everything an :class:`OracleServer` needs beyond its registry."""

    host: str = "127.0.0.1"
    port: int = 0  # 0 = ephemeral; the bound port is in ``address``
    batch: BatchConfig = field(default_factory=BatchConfig)
    admission: AdmissionConfig = field(default_factory=AdmissionConfig)
    #: budget applied to circuits registered without one (None = unlimited)
    default_budget: Optional[int] = None
    #: JSONL slow-request log path (None disables the log)
    slow_log_path: Optional[str] = None
    #: answered requests at or above this duration are logged as slow
    #: (rejections and errors are always logged)
    slow_request_s: float = 1.0


def registration_view(
    request: Mapping[str, Any],
    default_budget: Optional[int] = None,
):
    """Validate a ``register`` request and return ``(circuit, budget)``.

    The *oracle view* the server hosts: the netlist parsed, refused if
    locked, and normalized to its combinational core.  ``.bench``
    serialization is not a re-parse fixed point, so a caller that needs
    the content ID a ``register`` request gets (``repro serve`` printing
    it, a test) hashes this view, not a re-serialization of it.  The
    budget is a non-negative int; a bool is not.
    """
    netlist = request.get("netlist")
    if not isinstance(netlist, str) or not netlist.strip():
        raise ProtocolError("register needs a non-empty 'netlist' field")
    fmt = request.get("format", "bench")
    if fmt != "bench":
        raise ProtocolError(f"unsupported netlist format {fmt!r}")
    try:
        circuit = parse_bench(netlist, name=request.get("name", "served"))
    except Exception as exc:
        raise ProtocolError(f"unparseable netlist: {exc}") from None
    # The server hosts *oracles*: the activated chip's combinational
    # view.  Same normalization as CombinationalOracle.
    if circuit.key_inputs:
        raise ProtocolError(
            "refusing to serve a locked netlist: an oracle wraps the "
            "original (keyless) design"
        )
    circuit = combinational_circuit(circuit)
    budget = request.get("budget", default_budget)
    if budget is not None and (type(budget) is not int or budget < 0):
        raise ProtocolError(f"invalid budget {budget!r}")
    return circuit, budget


class OracleServer:
    """Transport-independent dispatcher plus the asyncio TCP front-end."""

    def __init__(
        self,
        registry: Optional[CircuitRegistry] = None,
        config: Optional[ServerConfig] = None,
        slow_log: Optional[SlowRequestLog] = None,
    ) -> None:
        self.config = config or ServerConfig()
        self.registry = (registry if registry is not None
                         else CircuitRegistry())
        self.admission = AdmissionController(self.config.admission)
        if slow_log is None and self.config.slow_log_path:
            slow_log = SlowRequestLog(self.config.slow_log_path,
                                      self.config.slow_request_s)
        self.slow_log = slow_log
        self.batcher = DynamicBatcher(
            self.registry, self.admission, self.config.batch,
            slow_log=slow_log,
        )
        from ..obs.metrics import DEFAULT_TIME_BUCKETS, Histogram

        self.latency = Histogram("serve.request.seconds",
                                 DEFAULT_TIME_BUCKETS)
        self.requests = 0
        self.errors = 0
        self.connections_total = 0
        self._open_connections = 0
        self._started_at = time.time()
        self._server: Optional[asyncio.AbstractServer] = None
        self.address: Optional[Tuple[str, int]] = None

    # ------------------------------------------------------------------
    # Dispatch (shared by TCP and in-process callers)
    # ------------------------------------------------------------------

    async def handle(self, request: Mapping[str, Any]) -> Dict[str, Any]:
        """Answer one request object; never raises — errors are payloads.

        With observability enabled, the request span is re-parented
        under the client's trace context (the optional ``ctx`` frame
        field), so a traced client's tree stitches the server's spans
        under the submitting span when they ship home.  Disabled, the
        context field is never even decoded.

        An ``obs`` poll is the ops view reading the server, not traffic:
        it counts in neither ``requests`` nor the latency histogram, so
        ``repro top`` and the metrics dumper do not see their own polls.
        """
        op = request.get("op")
        t0 = time.perf_counter()
        traffic = op != "obs"
        if traffic:
            self.requests += 1
        ctx = (context_from_request(request)
               if _obs.ACTIVE is not None else None)
        error_code: Optional[str] = None
        try:
            with remote_span("serve.request", ctx, op=str(op)):
                response = await self._answer(request, op)
        except ServeError as exc:
            self.errors += 1
            error_code = exc.code
            response = {"ok": False, "error": error_to_payload(exc)}
        except Exception as exc:  # noqa: BLE001 - fail the request, not the server
            self.errors += 1
            wrapped = ServeError(f"{type(exc).__name__}: {exc}")
            error_code = wrapped.code
            response = {"ok": False, "error": error_to_payload(wrapped)}
        took = time.perf_counter() - t0
        if traffic:
            self.latency.observe(took)
            _metrics.observe("serve.request.seconds", took)
        if self.slow_log is not None and \
                self.slow_log.should_log(took, error_code):
            circuit = request.get("circuit")
            self.slow_log.request(
                str(op), took, error_code,
                circuit=circuit[:16] if isinstance(circuit, str) else None,
            )
        return response

    async def _answer(self, request: Mapping[str, Any],
                      op: Any) -> Dict[str, Any]:
        """Dispatch one request on its ``op`` field."""
        if op == "ping":
            return {"ok": True, "pong": True}
        if op == "register":
            return self._op_register(request)
        if op == "describe":
            return self._op_describe(request)
        if op == "query":
            return await self._op_query(request)
        if op == "stats":
            return self._op_stats()
        if op == "obs":
            return self._op_obs(request)
        raise ProtocolError(f"unknown op {op!r}")

    def _op_register(self, request: Mapping[str, Any]) -> Dict[str, Any]:
        circuit, budget = registration_view(
            request, self.config.default_budget
        )
        entry = self.registry.register(circuit, budget=budget)
        payload = entry.describe()
        payload.update(
            ok=True,
            budget=self.registry.budget(entry.circuit_id),
            query_count=self.registry.query_count(entry.circuit_id),
        )
        return payload

    def _op_describe(self, request: Mapping[str, Any]) -> Dict[str, Any]:
        circuit_id = request.get("circuit")
        if not isinstance(circuit_id, str):
            raise ProtocolError("describe needs a 'circuit' field")
        entry = self.registry.get(circuit_id)
        payload = entry.describe()
        payload.update(
            ok=True,
            budget=self.registry.budget(circuit_id),
            query_count=self.registry.query_count(circuit_id),
        )
        return payload

    async def _op_query(self, request: Mapping[str, Any]) -> Dict[str, Any]:
        circuit_id = request.get("circuit")
        if not isinstance(circuit_id, str):
            raise ProtocolError("query needs a 'circuit' field")
        count = decode_count(request.get("count"))
        entry = self.registry.get(circuit_id)
        # Bound the count before decoding: it sizes every plane word.
        self.admission.check_size(count)
        # Decoded per request, before admission: one client's malformed
        # planes must not poison the co-batched evaluation of others.
        batch = decode_planes(entry.compiled.inputs, count,
                              request.get("planes"))
        # An int or a float within float range; a negative one expires
        # at once (AdmissionController.deadline_for clamps it).  A bool,
        # NaN, an infinity or a larger int is refused: NaN would expire
        # the request with the retryable deadline-exceeded, which a
        # client retries for ever, and an int past float range would
        # overflow deadline_for's float().
        deadline_ms = request.get("deadline_ms")
        if deadline_ms is not None and not (
                type(deadline_ms) in (int, float)
                and abs(deadline_ms) <= sys.float_info.max):
            raise ProtocolError(f"invalid deadline_ms {deadline_ms!r}")
        outputs = await self.batcher.submit(circuit_id, batch, deadline_ms)
        return {
            "ok": True,
            "count": outputs.count,
            "planes": encode_planes(outputs),
            "query_count": self.registry.query_count(circuit_id),
        }

    def _op_stats(self) -> Dict[str, Any]:
        return {
            "ok": True,
            "uptime_s": round(time.time() - self._started_at, 3),
            "requests": self.requests,
            "errors": self.errors,
            "connections": {
                "open": self._open_connections,
                "total": self.connections_total,
            },
            "latency": {
                "count": self.latency.count,
                "mean_s": self.latency.mean,
                "p50_s": self.latency.quantile(0.5),
                "p99_s": self.latency.quantile(0.99),
                "max_s": self.latency.max,
            },
            "registry": self.registry.stats(),
            "batcher": self.batcher.stats(),
            "admission": self.admission.stats(),
        }

    def _op_obs(self, request: Mapping[str, Any]) -> Dict[str, Any]:
        """This server's observability state, for ``repro top`` and the
        metrics dump.

        ``stats`` (the ``stats`` op's payload), ``latency_hist`` (the
        full request-latency histogram) and ``metrics`` (the registry
        dump, None without tracing) are all *cumulative*, so the op is
        safe to poll at any rate.  ``"spans": true`` also drains the
        buffered span trees of the caller's trace, named by the
        request's ``ctx``: each tree ships once, to the client whose
        request it answered, and every other tree stays buffered.
        """
        stats = self._op_stats()
        stats.pop("ok", None)
        response: Dict[str, Any] = {
            "ok": True,
            "stats": stats,
            "latency_hist": histogram_snapshot(self.latency),
            "metrics": _metrics.snapshot(),
        }
        if request.get("spans"):
            response["spans"] = self.drain_spans(
                context_from_request(request))
        return response

    @staticmethod
    def drain_spans(ctx: Optional[TraceContext]) -> List[dict]:
        """The buffered span trees of *ctx*'s trace (each once); none
        without a context or an active session."""
        session = _obs.ACTIVE
        if session is None or ctx is None:
            return []
        trees: List[dict] = []
        for sink in session.sinks:
            if isinstance(sink, SpanBuffer):
                trees.extend(sink.drain(ctx.trace_id))
        return trees

    # ------------------------------------------------------------------
    # TCP front-end
    # ------------------------------------------------------------------

    async def start(self) -> Tuple[str, int]:
        """Bind and listen; returns the bound ``(host, port)``."""
        if self._server is not None:
            raise RuntimeError("server already started")
        self._server = await asyncio.start_server(
            self._on_client, self.config.host, self.config.port
        )
        sock = self._server.sockets[0]
        self.address = sock.getsockname()[:2]
        return self.address

    async def _on_client(self, reader: asyncio.StreamReader,
                         writer: asyncio.StreamWriter) -> None:
        """One connection: read a request, answer it, write the answer.

        Lockstep, as every client of the protocol keeps one request in
        flight.  A client that writes several frames before reading
        still gets every answer, in order: the next frame is read only
        once the previous answer is written.  Concurrent connections
        are what the batcher coalesces.
        """
        self.connections_total += 1
        self._open_connections += 1
        _metrics.inc("serve.connections", 1)
        try:
            while True:
                try:
                    request = await read_frame_async(reader)
                except ProtocolError as exc:
                    # Framing is out of sync: answer once, then hang up.
                    await write_frame_async(
                        writer, {"ok": False, "error": error_to_payload(exc)}
                    )
                    break
                if request is None:
                    break
                await write_frame_async(writer, await self.handle(request))
        except (ConnectionError, asyncio.CancelledError):
            # Peer vanished mid-write, or loop shutdown cancelled this
            # connection task (the drain closed the listener while a
            # peer kept its socket open).  Exit quietly: re-raising
            # would only spam the loop's exception handler on the way
            # down.
            pass
        finally:
            # No await here: at loop shutdown this task may already be
            # cancelled, and awaiting wait_closed() would re-raise into
            # the transport's close callback.
            self._open_connections -= 1
            try:
                writer.close()
            except (ConnectionError, RuntimeError):
                pass

    async def drain(self, timeout_s: float = 5.0) -> bool:
        """Graceful shutdown: refuse new work, finish in-flight work.

        Returns False only if in-flight work failed to complete within
        *timeout_s*.
        """
        self.admission.begin_drain()
        settled = await self.batcher.drain(timeout_s)
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
            self._server = None
        return settled

    async def serve_forever(self) -> None:
        if self._server is None:
            await self.start()
        assert self._server is not None
        try:
            await self._server.serve_forever()
        except asyncio.CancelledError:
            pass


class ThreadedServer:
    """An :class:`OracleServer` on its own event-loop thread.

    For synchronous callers — the blocking client, tests, the CLI's
    ``--serve-seconds`` smoke mode — that need a live TCP endpoint in
    the current process::

        with ThreadedServer(OracleServer()) as (host, port):
            oracle = RemoteOracle((host, port), circuit=original)

    Exiting the context drains the server (in-flight work completes)
    and joins the thread.
    """

    def __init__(self, server: Optional[OracleServer] = None) -> None:
        self.server = server if server is not None else OracleServer()
        self._thread: Optional[threading.Thread] = None
        self._started = threading.Event()
        self._loop: Optional[asyncio.AbstractEventLoop] = None
        self._stop: Optional[asyncio.Event] = None
        self._startup_error: Optional[BaseException] = None

    def start(self, timeout_s: float = 60.0) -> Tuple[str, int]:
        self._thread = threading.Thread(
            target=self._run, name="repro-serve", daemon=True
        )
        self._thread.start()
        if not self._started.wait(timeout_s):
            raise RuntimeError("oracle server failed to start in time")
        if self._startup_error is not None:
            raise self._startup_error
        assert self.server.address is not None
        return self.server.address

    def _run(self) -> None:
        asyncio.run(self._main())

    async def _main(self) -> None:
        self._loop = asyncio.get_running_loop()
        self._stop = asyncio.Event()
        try:
            await self.server.start()
        except BaseException as exc:  # bind failure, ...
            self._startup_error = exc
            self._started.set()
            return
        self._started.set()
        await self._stop.wait()
        await self.server.drain()

    def stop(self) -> None:
        if self._thread is None:
            return
        if self._loop is not None and self._stop is not None:
            self._loop.call_soon_threadsafe(self._stop.set)
        self._thread.join(timeout=30.0)
        self._thread = None

    def __enter__(self) -> Tuple[str, int]:
        return self.start()

    def __exit__(self, *exc) -> None:
        self.stop()
