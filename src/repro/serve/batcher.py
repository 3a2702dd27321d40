"""Dynamic batcher: coalesce concurrent oracle queries into one wide pass.

The compiled IR evaluates a batch of patterns in one pass for roughly
the price of one (:mod:`repro.netlist.compiled`), but a *served* oracle
sees that parallelism shredded: every client sends one pattern at a
time, exactly like the SAT attack's DIP loop.  The batcher reassembles
it — queries against the same circuit arriving within one **batching
window** are coalesced into a single ``CompiledCircuit.query_outputs``
pass.

Requests arrive as bit planes (a
:class:`~repro.netlist.compiled.PlaneBatch` per request, decoded from
the wire by the server), so co-batching is arithmetic on plane words:
each request's planes are shifted to the lane offset the requests
before it fill (``PlaneBatch.concat``), the combined batch is
evaluated in one pass as wide as its pattern count, and the output
planes are cut back at the same offsets (``PlaneBatch.split``).  No
per-pattern object is built between the socket and the evaluator.

A batch flushes when either trigger fires, whichever comes first:

* **width** — the pending lane count reaches ``max_batch`` (default
  64), or
* **deadline** — ``window_s`` elapsed since the batch's first request
  (bounded added latency for a lone client).

Requests against *different* circuits are never co-batched (separate
pending queues per circuit ID), a multi-pattern request occupies as
many lanes as it has patterns, and each batch holds a strong reference
to its :class:`~repro.serve.registry.RegisteredCircuit` so an LRU
eviction between enqueue and flush cannot orphan it.

At flush time, requests whose admission deadline has already expired
are rejected with the typed
:class:`~repro.serve.protocol.DeadlineExceededError` (no evaluation is
wasted on them), budgets are charged per request in arrival order, and
the surviving requests run in one pass.  If anything in the flush
raises, every request still waiting fails with that error: no future
is ever left pending.

The evaluation itself runs synchronously on the event loop: a 64-lane
pass over the biggest benchmark is ~1 ms (and a pass grows far slower
than linearly with its width), well under the batching window, and
keeping it on-loop makes result delivery deterministic — no executor
handoff, no cross-thread wakeups.
"""

from __future__ import annotations

import asyncio
from dataclasses import dataclass
from typing import Any, Dict, List, Optional

from ..netlist.compiled import PlaneBatch
from ..obs import metrics as _metrics
from ..obs.metrics import Histogram
from ..obs.spans import trace_span
from .admission import AdmissionController
from .protocol import DeadlineExceededError, ServeError
from .registry import CircuitRegistry, RegisteredCircuit

__all__ = ["BatchConfig", "DynamicBatcher", "OCCUPANCY_BUCKETS"]

#: occupancy histogram boundaries (lanes per flushed batch); extends
#: past 64 so servers with a wider ``max_batch`` still resolve their
#: flush sizes
OCCUPANCY_BUCKETS = (1.0, 2.0, 4.0, 8.0, 16.0, 32.0, 48.0, 64.0,
                     128.0, 256.0, 512.0, 1024.0, 2048.0, 4096.0)


@dataclass(frozen=True)
class BatchConfig:
    """Batching policy knobs."""

    #: lanes per flush; 1 disables coalescing (the "batching off" mode)
    max_batch: int = 64
    #: max seconds a lone request waits before its batch flushes anyway
    window_s: float = 0.002

    def __post_init__(self) -> None:
        if self.max_batch < 1:
            raise ValueError("max_batch must be >= 1")
        if self.window_s < 0:
            raise ValueError("window_s must be >= 0")


class _Request:
    __slots__ = ("batch", "future", "deadline")

    def __init__(self, batch: PlaneBatch, future: "asyncio.Future",
                 deadline: Optional[float]) -> None:
        self.batch = batch
        self.future = future
        self.deadline = deadline


class _PendingBatch:
    __slots__ = ("entry", "requests", "lanes", "timer")

    def __init__(self, entry: RegisteredCircuit) -> None:
        self.entry = entry
        self.requests: List[_Request] = []
        self.lanes = 0
        self.timer: Optional[asyncio.TimerHandle] = None


class DynamicBatcher:
    """Per-circuit request coalescing in front of the compiled evaluator."""

    def __init__(
        self,
        registry: CircuitRegistry,
        admission: AdmissionController,
        config: Optional[BatchConfig] = None,
        slow_log=None,
    ) -> None:
        self.registry = registry
        self.admission = admission
        self.config = config or BatchConfig()
        self.max_batch = self.config.max_batch
        #: optional :class:`~repro.obs.sinks.SlowRequestLog`; deadline
        #: expiries are logged here at flush time with their lateness,
        #: which the request-level log upstream cannot know
        self.slow_log = slow_log
        self._pending: Dict[str, _PendingBatch] = {}
        # Local instruments: always-on (obs-independent), cheap, and the
        # source for the ``stats`` op; mirrored into the active obs
        # session when one exists.
        self.occupancy = Histogram("serve.batch.occupancy",
                                   OCCUPANCY_BUCKETS)
        self.batches = 0
        self.full_batches = 0
        self.window_batches = 0
        self.lanes_total = 0
        self.rejected_expired = 0

    # ------------------------------------------------------------------

    async def submit(
        self,
        circuit_id: str,
        batch: PlaneBatch,
        deadline_ms: Optional[float] = None,
    ) -> PlaneBatch:
        """Queue *batch* (planes over the circuit's inputs) for
        *circuit_id*; resolves with its output planes.

        Raises the serving layer's typed errors: unknown circuit,
        overload, deadline expiry, budget exhaustion.
        """
        entry = self.registry.get(circuit_id)  # UnknownCircuitError first
        lanes = len(batch)
        if lanes == 0:
            return entry.compiled.query_outputs(batch)
        self.admission.admit(lanes)  # OverloadedError / ShuttingDownError
        try:
            loop = asyncio.get_running_loop()
            request = _Request(
                batch, loop.create_future(),
                self.admission.deadline_for(deadline_ms),
            )
            pending = self._pending.get(circuit_id)
            if pending is None:
                pending = _PendingBatch(entry)
                self._pending[circuit_id] = pending
            pending.requests.append(request)
            pending.lanes += lanes
            if pending.lanes >= self.max_batch:
                self._flush(circuit_id, full=True)
            elif pending.timer is None:
                pending.timer = loop.call_later(
                    self.config.window_s, self._flush, circuit_id
                )
            return await request.future
        finally:
            self.admission.release(lanes)

    # ------------------------------------------------------------------

    def _flush(self, circuit_id: str, full: bool = False) -> None:
        """Evaluate one circuit's pending batch and deliver results."""
        pending = self._pending.pop(circuit_id, None)
        if pending is None:
            return
        if pending.timer is not None:
            pending.timer.cancel()
        try:
            self._evaluate(circuit_id, pending, full)
        except Exception as exc:
            # Runs from a loop callback, where a raise would only be
            # logged: fail whatever is still waiting instead.
            for request in pending.requests:
                if not request.future.done():
                    request.future.set_exception(exc)

    def _evaluate(self, circuit_id: str, pending: _PendingBatch,
                  full: bool) -> None:
        self.batches += 1
        if full:
            self.full_batches += 1
        else:
            self.window_batches += 1

        now = self.admission.clock()
        live: List[_Request] = []
        for request in pending.requests:
            if request.future.done():
                continue  # client gave up (connection dropped)
            lanes = len(request.batch)
            if request.deadline is not None and now > request.deadline:
                self.admission.note_expired(lanes)
                self.rejected_expired += 1
                late_ms = (now - request.deadline) * 1e3
                if self.slow_log is not None:
                    self.slow_log.log(
                        "deadline-expired", circuit=circuit_id[:16],
                        late_ms=round(late_ms, 3), lanes=lanes,
                    )
                request.future.set_exception(DeadlineExceededError(
                    f"request expired {late_ms:.1f}ms "
                    f"before its batch flushed"
                ))
                continue
            try:
                self.registry.charge(circuit_id, lanes)
            except ServeError as exc:  # budget exhausted
                request.future.set_exception(exc)
                continue
            live.append(request)
        if not live:
            return

        sizes = [len(request.batch) for request in live]
        lanes = sum(sizes)
        self.occupancy.observe(lanes)
        self.lanes_total += lanes
        _metrics.observe("serve.batch.occupancy", lanes, OCCUPANCY_BUCKETS)
        _metrics.inc("serve.batch.flushes")
        with trace_span("serve.batch.flush", circuit=circuit_id[:12],
                        lanes=lanes, requests=len(live)):
            outputs = pending.entry.compiled.query_outputs(
                PlaneBatch.concat([request.batch for request in live]))
            parts = outputs.split(sizes)
        for request, part in zip(live, parts):
            if not request.future.done():
                request.future.set_result(part)

    def flush_all(self) -> None:
        """Force every pending batch out (drain step one)."""
        for circuit_id in list(self._pending):
            self._flush(circuit_id)

    async def drain(self, timeout_s: float = 5.0) -> bool:
        """Flush pending work and wait until every request completed.

        Returns True when the admission ledger reached idle within
        *timeout_s* (it always should: flushing resolves every future,
        and the awaiting coroutines release their slots on wakeup).
        The wait is event-based — the ledger's release path wakes us —
        so drain latency is scheduling latency, not a polling interval.
        """
        self.flush_all()
        return await self.admission.wait_idle(timeout_s)

    # ------------------------------------------------------------------

    @property
    def pending_lanes(self) -> int:
        return sum(p.lanes for p in self._pending.values())

    def stats(self) -> Dict[str, Any]:
        mean = self.occupancy.mean
        return {
            "batches": self.batches,
            "full_batches": self.full_batches,
            "window_batches": self.window_batches,
            "lanes_total": self.lanes_total,
            "rejected_expired": self.rejected_expired,
            "pending_lanes": self.pending_lanes,
            "occupancy_mean": round(mean, 2) if mean is not None else None,
            "occupancy_max": self.occupancy.max,
            "occupancy_p50": self.occupancy.quantile(0.5),
            "occupancy_p99": self.occupancy.quantile(0.99),
            "max_batch": self.max_batch,
            "window_ms": self.config.window_s * 1000.0,
        }
