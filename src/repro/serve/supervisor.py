"""Worker fleet: the ``workers`` > 1 backend of :class:`OracleServer`.

One accepting process runs the :class:`~repro.serve.server.OracleServer`
front end (listener, request envelope, drain); :class:`Supervisor`
forks N single-worker servers behind it and answers ``register`` /
``describe`` / ``query`` by forwarding each to the worker that *owns*
the named circuit — the SHA-256 content ID modulo N
(:func:`owner_index`).  A circuit's compiled instance, LRU slot, and
query-budget ledger therefore live in exactly one worker, with no
cache-coherence protocol.  The front end answers ``unknown-circuit``
itself for an ID no ``register`` has named, so every ID it routes is a
hex content ID.

Data plane.  Per worker the supervisor keeps one multiplexed **data
connection**: requests from every client funnel into it (the worker's
pipelined connection handler keeps them concurrently in flight, so
cross-client batching still happens) and responses come back strictly
in request order, which lets the supervisor match them FIFO against its
in-flight queue — no request IDs on the wire.  The hot path decodes a
client request once (for routing) and forwards the *original body
bytes*; responses pass through without any JSON round trip.

Supervision.  Each worker also gets a lockstep **control connection**
for liveness pings, stats and ``obs`` polls, so health checks never
queue behind a batching window.  A worker is declared dead on
data-channel EOF, a dead process, or ``HEARTBEAT_MISSES`` consecutive
ping timeouts; the supervisor then respawns it, replays every
registration it owns (ratcheting the query count it had observed, so
budget enforcement survives the crash without ever refunding spent
queries), transparently re-sends in-flight retryable requests, and
fails the rest with the typed, retryable ``worker-crashed`` error.
Per-worker in-flight lanes are bounded by an :class:`AdmissionController`
ledger of ``admission.max_pending``; the drain lets every in-flight
request settle, then terminates the fleet.

Bootstrap.  A worker is started with a one-way
:class:`multiprocessing.connection.Connection`; it binds an ephemeral
loopback port, reports ``(host, port)`` through the pipe, and serves
until killed.  Everything after the handshake is the normal wire
protocol, so a worker is directly debuggable with any client pointed
at its port.  The entrypoint and its arguments are picklable, so any
start method works; ``fork`` (the default where available) lets
workers inherit the loaded interpreter.

The supervision timings are module constants; tests monkeypatch them.
"""

from __future__ import annotations

import asyncio
import dataclasses
import json
import os
import signal
import time
from collections import deque
from typing import Any, Deque, Dict, List, Mapping, Optional, Tuple, Union

from ..obs import metrics as _metrics
from ..obs.propagate import child_context
from .admission import AdmissionController
from .protocol import (
    ProtocolError,
    ServeError,
    ShuttingDownError,
    UnknownCircuitError,
    WorkerCrashedError,
    decode_body,
    decode_count,
    encode_raw_frame,
    read_raw_frame_async,
    write_frame_async,
)
from .registry import circuit_content_id
from .server import OracleServer, ServerConfig, registration_view

__all__ = ["Supervisor", "WorkerHandle", "owner_index", "spawn_worker",
           "worker_main"]

#: seconds between liveness pings of each worker
HEARTBEAT_S = 0.5
#: consecutive missed pings before a worker is declared dead
HEARTBEAT_MISSES = 4
#: transparent resends of one in-flight request across crashes
RETRY_LIMIT = 2
#: respawns allowed per worker before it is abandoned for good
MAX_RESPAWNS = 8
#: seconds a fresh worker gets to report its address
SPAWN_TIMEOUT_S = 30.0
#: multiprocessing start method (None = fork where available, else spawn)
START_METHOD: Optional[str] = None
#: seconds between a worker's checks that its front end is still alive
ORPHAN_POLL_S = 0.5
#: seconds between polls of every worker's ``obs`` op (metric samples
#: plus buffered spans); 0 disables the loop, and the fleet view then
#: refreshes only when a client asks
OBS_INTERVAL_S = 1.0

#: ops a worker answers; the front end answers the rest itself
_FORWARDED_OPS = frozenset({"register", "describe", "query"})


def owner_index(circuit_id: str, workers: int) -> int:
    """The worker owning *circuit_id*, a hex SHA-256 content ID.

    Deterministic across processes and platforms, so the front end, a
    test, and a client-side planner all compute the same owner.
    """
    return int(circuit_id, 16) % workers


# ----------------------------------------------------------------------
# Worker process
# ----------------------------------------------------------------------

def worker_main(index: int, config: ServerConfig, bootstrap,
                front_pid: int) -> None:
    """Process entrypoint: serve until the supervisor kills us, or
    until the front end (process *front_pid*) is gone.

    *bootstrap* is the supervisor's pipe; the bound address goes out
    through it (or, if binding fails, an error string — the supervisor
    turns that into a spawn failure instead of a timeout).
    """
    # A forked worker inherits the front end's loop signal handlers and
    # their wakeup fd.  It leaves a terminal's SIGINT to the front end,
    # which drains the fleet, and dies on a plain SIGTERM.
    signal.set_wakeup_fd(-1)
    signal.signal(signal.SIGINT, signal.SIG_IGN)
    signal.signal(signal.SIGTERM, signal.SIG_DFL)

    async def main() -> None:
        # Never inherit the front end's observability session across a
        # fork: its sinks hold file descriptors (a --trace JSONL file)
        # that two processes must not interleave writes into.  Clear
        # the flag without close() — the parent still owns the streams.
        from ..obs import context as _obs

        _obs.ACTIVE = None
        if config.trace:
            from ..obs.context import enable
            from ..obs.sinks import SpanBuffer

            # Spans buffer locally; the supervisor (or any client's
            # ``obs`` request) drains them over the control channel.
            enable(SpanBuffer())
        server = OracleServer(config=config)
        try:
            host, port = await server.start()
        except BaseException as exc:  # bind failure, bad config, ...
            bootstrap.send(("error", f"{type(exc).__name__}: {exc}"))
            bootstrap.close()
            return
        bootstrap.send(("ok", (host, port)))
        bootstrap.close()
        serving = asyncio.get_running_loop().create_task(
            server.serve_forever())
        # A front end killed outright (SIGKILL) drains nobody: its
        # re-parented workers would keep their ports and the server's
        # stdout/stderr open for good.  Exit once the parent changes.
        while not serving.done() and os.getppid() == front_pid:
            await asyncio.sleep(ORPHAN_POLL_S)
        serving.cancel()

    asyncio.run(main())


def spawn_worker(index: int, config: ServerConfig):
    """Start one worker process; returns ``(process, (host, port))``.

    Synchronous (the supervisor calls it through an executor): blocks
    until the worker reports its address or ``SPAWN_TIMEOUT_S`` passes.
    """
    import multiprocessing

    start_method = START_METHOD
    if start_method is None:
        methods = multiprocessing.get_all_start_methods()
        start_method = "fork" if "fork" in methods else "spawn"
    context = multiprocessing.get_context(start_method)
    parent, child = context.Pipe(duplex=False)
    process = context.Process(
        target=worker_main,
        args=(index, config, child, os.getpid()),
        name=f"repro-serve-worker-{index}",
        daemon=True,
    )
    process.start()
    child.close()  # the worker's end lives in the worker now
    try:
        if not parent.poll(SPAWN_TIMEOUT_S):
            raise RuntimeError(
                f"worker {index} did not report an address within "
                f"{SPAWN_TIMEOUT_S}s"
            )
        status, payload = parent.recv()
    except (EOFError, RuntimeError):
        process.terminate()
        process.join(timeout=5.0)
        raise RuntimeError(
            f"worker {index} died during bootstrap"
        ) from None
    finally:
        parent.close()
    if status != "ok":
        process.terminate()
        process.join(timeout=5.0)
        raise RuntimeError(f"worker {index} failed to start: {payload}")
    host, port = payload
    return process, (str(host), int(port))


# ----------------------------------------------------------------------
# Supervisor-side bookkeeping
# ----------------------------------------------------------------------

class _ConnectionLost(Exception):
    """Internal marker: the worker connection died mid-recovery."""


class _Forwarded:
    """One request in flight to a worker (the retry unit)."""

    __slots__ = ("body", "future", "lanes", "op", "no_retry", "retries")

    def __init__(self, body: bytes, future: "asyncio.Future", lanes: int,
                 op: str, no_retry: bool) -> None:
        self.body = body
        self.future = future
        self.lanes = lanes
        self.op = op
        self.no_retry = no_retry
        self.retries = 0


class _Registration:
    """What the supervisor must remember to resurrect a circuit."""

    __slots__ = ("circuit_id", "netlist", "name", "budget",
                 "observed_count")

    def __init__(self, circuit_id: str, netlist: str, name: str,
                 budget: Optional[int]) -> None:
        self.circuit_id = circuit_id
        self.netlist = netlist
        self.name = name
        self.budget = budget
        #: highest cumulative query count the supervisor has seen the
        #: worker report — the ratchet floor replayed after a respawn
        self.observed_count = 0

    def observe(self, response_body: bytes) -> None:
        """Ratchet from the ``query_count`` a worker response carries.

        Exact (the worker's own cumulative count), and naturally skips
        error responses, which carry no count — so a refused query can
        never inflate the floor and over-charge the restored budget.
        """
        count = _extract_query_count(response_body)
        if count is not None and count > self.observed_count:
            self.observed_count = count

    def tighten(self, budget: Optional[int]) -> None:
        """Mirror the registry's only-tighten budget semantics."""
        if budget is None:
            return
        self.budget = budget if self.budget is None else min(self.budget,
                                                             budget)

    def replay_request(self) -> Dict[str, Any]:
        request: Dict[str, Any] = {
            "op": "register",
            "netlist": self.netlist,
            "name": self.name,
            "min_query_count": self.observed_count,
        }
        if self.budget is not None:
            request["budget"] = self.budget
        return request


def _extract_query_count(body: bytes) -> Optional[int]:
    """Pull ``"query_count": N`` out of a success response body.

    The hot path forwards response bytes without a JSON parse; this
    keeps crash-restore accounting exact anyway by scanning for the
    one field it needs.  Gated on the ``{"ok":true`` prefix our own
    compact serialization always produces, so an error message that
    happened to mention the key cannot be misread.
    """
    if not body.startswith(b'{"ok":true'):
        return None
    index = body.rfind(b'"query_count":')
    if index < 0:
        return None
    index += len(b'"query_count":')
    end = index
    while end < len(body) and body[end:end + 1].isdigit():
        end += 1
    if end == index:
        return None
    return int(body[index:end])


class WorkerHandle:
    """Supervisor-side state of one worker process."""

    def __init__(self, index: int, config: ServerConfig) -> None:
        self.index = index
        self.server_config = dataclasses.replace(
            config,
            host="127.0.0.1",
            port=0,
            workers=1,
            # Per-process log files: concurrent appends from N workers
            # into one file would interleave mid-line.
            slow_log_path=(None if config.slow_log_path is None
                           else f"{config.slow_log_path}.w{index}"),
        )
        self.process = None
        self.address: Optional[Tuple[str, int]] = None
        self.data_reader = self.data_writer = None
        self.control_reader = self.control_writer = None
        self.control_lock = asyncio.Lock()
        self.inflight: Deque[_Forwarded] = deque()
        # Bounded in-flight ledger: the same admission machinery the
        # worker applies to its own queue, reused supervisor-side.
        self.ledger = AdmissionController(config.admission)
        #: cleared while the worker is being (re)spawned; sends park here
        self.ready = asyncio.Event()
        self.generation = 0
        self.respawns = 0
        self.abandoned = False
        self.recovering = False
        self.missed_heartbeats = 0
        self.retried_requests = 0
        self.crash_failures = 0
        self._reader_task: Optional["asyncio.Task"] = None
        self._on_crash = None  # set by the supervisor

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------

    async def start(self) -> None:
        """Spawn the process and open data + control connections."""
        loop = asyncio.get_running_loop()
        self.generation += 1
        self.process, self.address = await loop.run_in_executor(
            None, spawn_worker, self.index, self.server_config)
        host, port = self.address
        self.data_reader, self.data_writer = await asyncio.open_connection(
            host, port)
        self.control_reader, self.control_writer = (
            await asyncio.open_connection(host, port))
        self.missed_heartbeats = 0
        self._reader_task = loop.create_task(
            self._read_responses(self.generation))
        self.ready.set()

    def teardown(self) -> None:
        """Close connections and kill the process, synchronously."""
        self.ready.clear()
        if self._reader_task is not None and not self._reader_task.done():
            self._reader_task.cancel()
        self._reader_task = None
        for writer in (self.data_writer, self.control_writer):
            if writer is not None:
                try:
                    writer.close()
                except (ConnectionError, RuntimeError):
                    pass
        self.data_reader = self.data_writer = None
        self.control_reader = self.control_writer = None
        if self.process is not None and self.process.is_alive():
            self.process.kill()

    def join_process(self, timeout_s: float = 5.0) -> None:
        if self.process is not None:
            self.process.join(timeout=timeout_s)

    @property
    def alive(self) -> bool:
        return (not self.abandoned and self.process is not None
                and self.process.is_alive())

    @property
    def pid(self) -> Optional[int]:
        return None if self.process is None else self.process.pid

    # ------------------------------------------------------------------
    # Data plane
    # ------------------------------------------------------------------

    async def send(self, fwd: _Forwarded) -> bytes:
        """Forward one request; resolves with the raw response body."""
        while True:
            # Park while a respawn is in progress.  Re-check after the
            # wait resolves: Event.wait() can report a set that was
            # cleared again before this sender resumed (the recovery
            # opens the connection, then parks senders once more until
            # registration replay has finished).
            await self.ready.wait()
            if self.abandoned:
                raise WorkerCrashedError(
                    f"worker {self.index} exceeded its respawn budget"
                )
            if self.ready.is_set():
                break
        self.ledger.admit(fwd.lanes)
        try:
            self.transmit(fwd)
            return await fwd.future
        finally:
            self.ledger.release(fwd.lanes)

    def transmit(self, fwd: _Forwarded) -> None:
        """Enqueue + write in one non-awaiting step (keeps FIFO exact)."""
        self.inflight.append(fwd)
        try:
            self.data_writer.write(encode_raw_frame(fwd.body))
        except Exception:
            # The reader's EOF (or the crash handler) will collect this
            # request from the in-flight queue; nothing more to do here.
            self._crashed()

    async def _read_responses(self, generation: int) -> None:
        """Match worker responses FIFO against the in-flight queue."""
        reader = self.data_reader
        try:
            while True:
                body = await read_raw_frame_async(reader)
                if body is None:
                    break
                if self.inflight:
                    fwd = self.inflight.popleft()
                    if not fwd.future.done():
                        fwd.future.set_result(body)
        except (ConnectionError, ProtocolError):
            pass
        if self.generation != generation:
            return  # a stale reader outlived its connection
        self._crashed()

    def _crashed(self) -> None:
        """Funnel every crash signal into the supervisor's recovery."""
        if self.recovering:
            # Mid-recovery failure: fail the recovery's own in-flight
            # (replay) requests so the attempt loop notices and retries.
            self.fail_inflight(_ConnectionLost("worker connection lost"))
            return
        if self._on_crash is not None and not self.abandoned:
            self._on_crash(self)

    def fail_inflight(self, exc: Exception) -> None:
        while self.inflight:
            fwd = self.inflight.popleft()
            if not fwd.future.done():
                fwd.future.set_exception(exc)

    # ------------------------------------------------------------------
    # Control plane
    # ------------------------------------------------------------------

    async def control_request(self, request: Mapping[str, Any],
                              timeout_s: float) -> Dict[str, Any]:
        """Lockstep request on the control connection (ping/stats/obs)."""
        async with self.control_lock:
            if self.control_writer is None:
                raise ConnectionError(f"worker {self.index} has no "
                                      f"control channel")
            await write_frame_async(self.control_writer, dict(request))
            try:
                body = await asyncio.wait_for(
                    read_raw_frame_async(self.control_reader), timeout_s)
            except asyncio.TimeoutError:
                # The response is still in flight; on a lockstep channel
                # its late arrival would be mis-matched to the NEXT
                # request, desyncing every control exchange from then
                # on.  Drop the connection and dial a fresh one — the
                # worker process itself is untouched.
                await self._reset_control()
                raise
        if body is None:
            raise ConnectionError(f"worker {self.index} closed its "
                                  f"control channel")
        return decode_body(body)

    async def _reset_control(self) -> None:
        """Replace the control connection (caller holds control_lock)."""
        writer = self.control_writer
        self.control_reader = self.control_writer = None
        if writer is not None:
            try:
                writer.close()
            except (ConnectionError, RuntimeError):
                pass
        if self.address is None:
            return
        try:
            self.control_reader, self.control_writer = (
                await asyncio.open_connection(*self.address))
        except OSError:
            # Worker unreachable: leave the channel down; heartbeats
            # will raise ConnectionError and recovery takes over.
            self.control_reader = self.control_writer = None

    def describe(self) -> Dict[str, Any]:
        """Supervisor-side view of this worker (no I/O)."""
        return {
            "worker": self.index,
            "pid": self.pid,
            "alive": self.alive,
            "abandoned": self.abandoned,
            "address": list(self.address) if self.address else None,
            "generation": self.generation,
            "respawns": self.respawns,
            "inflight_lanes": self.ledger.pending,
            "peak_inflight_lanes": self.ledger.peak_pending,
            "forwarded_lanes": self.ledger.admitted,
            "retried_requests": self.retried_requests,
            "crash_failures": self.crash_failures,
            "rejected_overload": self.ledger.rejected_overload,
        }


# ----------------------------------------------------------------------
# The backend
# ----------------------------------------------------------------------

class Supervisor:
    """Routes a front end's circuit ops to the owning forked worker."""

    def __init__(self, server: OracleServer) -> None:
        self.server = server
        self.config = server.config
        self.workers: List[WorkerHandle] = [
            WorkerHandle(index, self.config)
            for index in range(self.config.workers)
        ]
        for worker in self.workers:
            worker._on_crash = self._schedule_recovery
        self._catalog: Dict[str, _Registration] = {}
        self.respawned_total = 0
        self._worker_spans: List[dict] = []
        self._worker_spans_cap = 1024
        self._worker_spans_dropped = 0
        self._heartbeat_task: Optional["asyncio.Task"] = None
        self._obs_task: Optional["asyncio.Task"] = None
        self._recovery_tasks: List["asyncio.Task"] = []

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------

    async def start(self) -> None:
        """Spawn the fleet and start the supervision loops."""
        # Sequential on purpose: forking concurrently from several
        # executor threads is exactly the multi-threaded-fork hazard
        # CPython warns about (a child can inherit a lock another
        # thread held mid-fork).  One fork at a time costs a few tens
        # of milliseconds per worker, once.
        for worker in self.workers:
            await worker.start()
        loop = asyncio.get_running_loop()
        self._heartbeat_task = loop.create_task(self._heartbeat_loop())
        if OBS_INTERVAL_S > 0:
            self._obs_task = loop.create_task(self._obs_loop())

    async def drain(self, timeout_s: float) -> bool:
        """Let in-flight requests settle, then stop the fleet."""
        deadline = time.monotonic() + timeout_s
        settled = True
        for worker in self.workers:
            remaining = max(0.0, deadline - time.monotonic())
            settled = await worker.ledger.wait_idle(remaining) and settled
        for task in [self._heartbeat_task, self._obs_task,
                     *self._recovery_tasks]:
            if task is not None and not task.done():
                task.cancel()
        self._heartbeat_task = self._obs_task = None
        self._recovery_tasks.clear()
        loop = asyncio.get_running_loop()
        for worker in self.workers:
            worker.teardown()
        await asyncio.gather(*(
            loop.run_in_executor(None, worker.join_process)
            for worker in self.workers if worker.process is not None
        ))
        return settled

    # ------------------------------------------------------------------
    # Routing
    # ------------------------------------------------------------------

    def owner_index(self, circuit_id: str) -> int:
        """Which worker owns *circuit_id* (the ownership invariant)."""
        return owner_index(circuit_id, len(self.workers))

    async def route(
        self, request: Mapping[str, Any], body: Optional[bytes], op: Any,
        span: Any,
    ) -> Union[bytes, Dict[str, Any]]:
        """Answer one request; returns raw worker bytes or a local dict.

        *span* is the front end's open ``serve.shard.route`` span.
        With observability enabled, a *fresh* child context replaces
        the client's ``ctx`` on forwarded requests, so the worker-side
        request span stitches under this hop (client → route → worker)
        instead of skipping it.  Rewriting the context invalidates the
        original body bytes; the untraced hot path keeps forwarding
        them untouched.
        """
        if op == "ping":
            return {"ok": True, "pong": True,
                    "workers": sum(w.alive for w in self.workers)}
        if op == "stats":
            return await self._op_stats()
        if op == "obs":
            return await self._op_obs(request)
        if op not in _FORWARDED_OPS:
            raise ProtocolError(f"unknown op {op!r}")
        if self.server.admission.draining:
            raise ShuttingDownError(
                "supervisor is draining; retry elsewhere")
        new_ctx = child_context(span)
        if new_ctx is not None:
            request = dict(request, ctx=new_ctx.to_wire())
            body = None  # force a re-encode in _forward
        if op == "register":
            return await self._forward_register(request, body)
        circuit_id = request.get("circuit")
        if not isinstance(circuit_id, str):
            raise ProtocolError(f"{op} needs a 'circuit' field")
        registration = self._catalog.get(circuit_id)
        if registration is None:
            raise UnknownCircuitError(
                f"no circuit registered under {circuit_id[:16]}..."
                if len(circuit_id) > 16
                else f"no circuit registered under {circuit_id!r}"
            )
        lanes = 1
        if op == "query":
            lanes = decode_count(request.get("count"))
        raw = await self._forward(request, body, circuit_id, lanes)
        if op == "query":
            # Ratchet from *answered* responses only: a request lost to
            # a crash reports nothing, so its retry is not
            # double-counted by the restore floor.
            registration.observe(raw)
        return raw

    async def _forward(self, request: Mapping[str, Any],
                       body: Optional[bytes], circuit_id: str,
                       lanes: int) -> bytes:
        worker = self.workers[self.owner_index(circuit_id)]
        if body is None:
            body = json.dumps(request, separators=(",", ":")).encode("utf-8")
        fwd = _Forwarded(
            body,
            asyncio.get_running_loop().create_future(),
            lanes,
            str(request.get("op")),
            bool(request.get("no_retry")),
        )
        _metrics.inc("serve.shard.forwarded", lanes)
        return await worker.send(fwd)

    async def _forward_register(
        self, request: Mapping[str, Any], body: Optional[bytes],
    ) -> bytes:
        # Run the worker's exact validate/normalize pipeline on the
        # exact bytes the worker will see: `.bench` serialization is not
        # a re-parse fixed point, so hashing a re-serialization here
        # could disagree with the ID the worker derives.
        circuit, budget = registration_view(
            request, self.config.default_budget)
        circuit_id = circuit_content_id(circuit)
        registration = self._catalog.get(circuit_id)
        if registration is None:
            self._catalog[circuit_id] = registration = _Registration(
                circuit_id,
                str(request.get("netlist")),
                str(request.get("name", "served")),
                budget,
            )
        else:
            registration.tighten(budget)
        raw = await self._forward(request, body, circuit_id, lanes=1)
        registration.observe(raw)
        return raw

    # ------------------------------------------------------------------
    # Supervision: heartbeats, recovery, replay
    # ------------------------------------------------------------------

    async def _heartbeat_loop(self) -> None:
        while True:
            interval = HEARTBEAT_S
            await asyncio.sleep(interval)
            for worker in self.workers:
                if worker.abandoned or worker.recovering:
                    continue
                if worker.process is not None and not worker.process.is_alive():
                    self._schedule_recovery(worker)
                    continue
                try:
                    await worker.control_request({"op": "ping"},
                                                 max(interval, 0.05))
                except (asyncio.TimeoutError, ConnectionError, OSError,
                        ProtocolError):
                    worker.missed_heartbeats += 1
                    if worker.missed_heartbeats >= HEARTBEAT_MISSES:
                        self._schedule_recovery(worker)
                else:
                    worker.missed_heartbeats = 0

    def _schedule_recovery(self, worker: WorkerHandle) -> None:
        if worker.recovering or worker.abandoned:
            return
        worker.recovering = True
        task = asyncio.get_running_loop().create_task(self._recover(worker))
        self._recovery_tasks.append(task)
        self._recovery_tasks = [t for t in self._recovery_tasks
                                if not t.done()]

    async def _recover(self, worker: WorkerHandle) -> None:
        """Respawn a dead worker, replay its circuits, retry its work."""
        _metrics.inc("serve.shard.crashes")
        # The respawned worker restarts its cumulative counters from
        # zero; a stale fleet sample would make the next QPS delta
        # negative, so the worker re-enters the fleet view fresh.
        self.server.fleet.discard(str(worker.index))
        pending = list(worker.inflight)
        worker.inflight.clear()
        try:
            while True:
                worker.teardown()
                if worker.respawns >= MAX_RESPAWNS:
                    worker.abandoned = True
                    break
                worker.respawns += 1
                self.respawned_total += 1
                try:
                    await worker.start()
                    worker.ready.clear()  # not serving clients yet
                    await self._replay_registrations(worker)
                except (ConnectionError, OSError, RuntimeError,
                        asyncio.TimeoutError, _ConnectionLost, ServeError):
                    continue  # the fresh worker died too; spawn another
                break
        finally:
            worker.recovering = False
            worker.ready.set()  # unblock senders even on abandonment
        if worker.abandoned:
            for fwd in pending:
                worker.crash_failures += 1
                if not fwd.future.done():
                    fwd.future.set_exception(WorkerCrashedError(
                        f"worker {worker.index} exceeded its respawn "
                        f"budget with this request in flight"
                    ))
            return
        for fwd in pending:
            if fwd.future.done():
                continue  # client already gave up
            if fwd.no_retry or fwd.retries >= RETRY_LIMIT:
                worker.crash_failures += 1
                fwd.future.set_exception(WorkerCrashedError(
                    f"worker {worker.index} crashed with this "
                    f"{fwd.op} in flight"
                    + (" (no_retry)" if fwd.no_retry else
                       f" (retried {fwd.retries}x)")
                ))
                continue
            fwd.retries += 1
            worker.retried_requests += 1
            _metrics.inc("serve.shard.retried")
            worker.transmit(fwd)

    async def _replay_registrations(self, worker: WorkerHandle) -> None:
        """Re-register every circuit *worker* owns.

        Sent on the (fresh) data channel and awaited before any retried
        request goes out, so a retried query can never race ahead of
        the registration that makes its circuit exist.
        """
        owned = [registration for registration in self._catalog.values()
                 if self.owner_index(registration.circuit_id)
                 == worker.index]
        if not owned:
            return
        loop = asyncio.get_running_loop()
        replays: List[_Forwarded] = []
        for registration in owned:
            body = json.dumps(registration.replay_request(),
                              separators=(",", ":")).encode("utf-8")
            replay = _Forwarded(body, loop.create_future(), 1,
                                "register", True)
            replays.append(replay)
            worker.transmit(replay)
        responses = await asyncio.wait_for(
            asyncio.gather(*(replay.future for replay in replays)),
            SPAWN_TIMEOUT_S,
        )
        for registration, body in zip(owned, responses):
            response = decode_body(body)
            if not response.get("ok"):
                raise ServeError(
                    f"replaying {registration.circuit_id[:12]}... failed: "
                    f"{response.get('error')}"
                )

    # ------------------------------------------------------------------
    # Stats rollup and fleet observability
    # ------------------------------------------------------------------

    def _fleet_state(self) -> Dict[str, Any]:
        inflight = sum(worker.ledger.pending for worker in self.workers)
        alive = sum(worker.alive for worker in self.workers)
        return {
            "workers": len(self.workers),
            "workers_alive": alive,
            "inflight_lanes": inflight,
            "respawned_total": self.respawned_total,
            "registered_circuits": len(self._catalog),
            "draining": self.server.admission.draining,
        }

    async def _op_stats(self) -> Dict[str, Any]:
        """Aggregate front-end + per-worker stats into one response."""
        per_worker: List[Dict[str, Any]] = []
        rollup = {
            "requests": 0, "errors": 0, "batches": 0, "lanes_total": 0,
            "registry_size": 0, "query_counts": {},
        }
        for worker in self.workers:
            entry = worker.describe()
            if worker.alive and not worker.recovering:
                try:
                    stats = await worker.control_request(
                        {"op": "stats"}, HEARTBEAT_S * 2)
                    entry["server"] = stats
                    rollup["requests"] += stats.get("requests", 0)
                    rollup["errors"] += stats.get("errors", 0)
                    batcher = stats.get("batcher", {})
                    rollup["batches"] += batcher.get("batches", 0)
                    rollup["lanes_total"] += batcher.get("lanes_total", 0)
                    registry = stats.get("registry", {})
                    rollup["registry_size"] += registry.get("size", 0)
                    # Ownership is disjoint, so a plain merge is exact.
                    rollup["query_counts"].update(
                        registry.get("query_counts", {}))
                except (asyncio.TimeoutError, ConnectionError, OSError,
                        ProtocolError):
                    entry["server"] = None
            per_worker.append(entry)
        state = self._fleet_state()
        _metrics.set_gauge("serve.shard.workers_alive", state["workers_alive"])
        _metrics.set_gauge("serve.shard.inflight", state["inflight_lanes"])
        _metrics.set_gauge("serve.shard.respawns", self.respawned_total)
        response = self.server.front_stats()
        response.update(sharded=True, supervisor=state, workers=per_worker,
                        rollup=rollup)
        return response

    async def _obs_loop(self) -> None:
        """Periodic fleet refresh: metric samples plus buffered spans."""
        while True:
            await asyncio.sleep(OBS_INTERVAL_S)
            await self._poll_fleet_obs()

    async def _poll_fleet_obs(self) -> None:
        """Sample every reachable worker's ``obs`` op into the fleet.

        Unreachable workers are skipped, not failed: their last sample
        stays in the aggregator until recovery discards it, so a
        mid-poll crash degrades the fleet view instead of erroring it.
        """
        timeout = max(HEARTBEAT_S * 2, 1.0)
        request: Dict[str, Any] = {"op": "obs"}
        if self.config.trace:
            request["spans"] = True
        for worker in self.workers:
            if not worker.alive or worker.recovering:
                continue
            try:
                response = await worker.control_request(request, timeout)
            except (asyncio.TimeoutError, ConnectionError, OSError,
                    ProtocolError):
                continue
            if not response.get("ok"):
                continue
            self.server.fleet.update(
                str(worker.index),
                response.get("stats") or {},
                latency=response.get("latency_hist"),
                metrics=response.get("metrics"),
            )
            spans = response.get("spans")
            if spans:
                self._buffer_worker_spans(spans)

    def _buffer_worker_spans(self, trees: List[dict]) -> None:
        """Park worker span trees until a client's ``obs`` collects them."""
        self._worker_spans.extend(trees)
        overflow = len(self._worker_spans) - self._worker_spans_cap
        if overflow > 0:
            del self._worker_spans[:overflow]
            self._worker_spans_dropped += overflow

    async def _op_obs(self, request: Mapping[str, Any]) -> Dict[str, Any]:
        """Fleet-wide snapshot: merged worker samples + front-end state.

        Polls the fleet on demand so the answer is current even with
        the periodic loop disabled.  ``"spans": true`` additionally
        hands over every buffered span tree — the workers' (collected
        by the polling loop) and the front end's own, from the active
        session's span buffers — destructively, exactly once, so a
        client can stitch one cross-process trace.
        """
        await self._poll_fleet_obs()
        state = {"requests": self.server.requests,
                 "errors": self.server.errors}
        state.update(self._fleet_state())
        response: Dict[str, Any] = {
            "ok": True,
            "sharded": True,
            "uptime_s": self.server.front_stats()["uptime_s"],
            "supervisor": state,
            "metrics": _metrics.snapshot(),
            "fleet": self.server.fleet.snapshot(),
        }
        if request.get("spans"):
            trees = self._worker_spans
            self._worker_spans = []
            trees.extend(self.server.drain_spans())
            response["spans"] = trees
            response["spans_dropped"] = self._worker_spans_dropped
        return response
