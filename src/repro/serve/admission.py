"""Admission control: bounded queueing, deadlines, graceful drain.

The batcher's pending queue must stay bounded under overload — an
oracle server facing an attacker fleet (or a misbehaving client) should
shed load with a typed, retryable error instead of growing its queue
until latency (and memory) diverge.  :class:`AdmissionController`
implements the three policies the server composes:

* **backpressure** — at most ``max_pending`` patterns may be admitted
  and not yet completed; request ``N`` more and the whole request is
  refused with :class:`~repro.serve.protocol.OverloadedError` (never a
  partial admit, so a client's batch is answered all-or-nothing);
* **deadlines** — every admitted request carries an absolute expiry
  (client-supplied ``deadline_ms`` capped by the server's
  ``max_deadline_s``); the batcher rejects expired requests at flush
  time with :class:`~repro.serve.protocol.DeadlineExceededError`
  instead of wasting an evaluation on an answer nobody is waiting for;
* **drain** — :meth:`begin_drain` flips the controller into
  shutting-down mode: new work is refused with
  :class:`~repro.serve.protocol.ShuttingDownError` while everything
  already admitted runs to completion (the server awaits
  :meth:`drained`).

Depth and high-water marks are mirrored to :mod:`repro.obs` gauges
(``serve.queue.depth`` / ``serve.queue.peak``) whenever a session is
active.
"""

from __future__ import annotations

import asyncio
import time
from dataclasses import dataclass
from typing import Any, Dict, List, Optional

from ..obs import metrics as _metrics
from .protocol import OverloadedError, ShuttingDownError

__all__ = ["AdmissionConfig", "AdmissionController"]


@dataclass(frozen=True)
class AdmissionConfig:
    """Server-side admission policy knobs."""

    #: patterns admitted-but-not-completed before refusing new work
    max_pending: int = 1024
    #: patterns one request may carry (a frame-level sanity bound)
    max_patterns_per_request: int = 4096
    #: deadline applied when the client sends none (None = no deadline)
    default_deadline_s: Optional[float] = None
    #: ceiling on client-requested deadlines (None = uncapped)
    max_deadline_s: Optional[float] = 60.0


class AdmissionController:
    """Pattern-granular admission ledger; see the module docs."""

    def __init__(self, config: Optional[AdmissionConfig] = None,
                 clock=time.monotonic) -> None:
        self.config = config or AdmissionConfig()
        self.clock = clock
        self.pending = 0
        self.peak_pending = 0
        self.admitted = 0
        self.completed = 0
        self.rejected_overload = 0
        self.rejected_draining = 0
        self.expired = 0
        self.draining = False
        # Futures resolved the moment the ledger reaches idle — the
        # event-based alternative to polling `idle` in a sleep loop.
        self._idle_waiters: List["asyncio.Future"] = []

    # ------------------------------------------------------------------

    def deadline_for(self, deadline_ms: Optional[float]) -> Optional[float]:
        """Absolute expiry (controller-clock seconds) for a request."""
        cfg = self.config
        if deadline_ms is None:
            if cfg.default_deadline_s is None:
                return None
            seconds = cfg.default_deadline_s
        else:
            seconds = max(0.0, float(deadline_ms) / 1000.0)
            if cfg.max_deadline_s is not None:
                seconds = min(seconds, cfg.max_deadline_s)
        return self.clock() + seconds

    def check_size(self, patterns: int) -> None:
        """Refuse one request of more than ``max_patterns_per_request``.

        The server calls this on a query's ``count`` before decoding
        its planes, whose words that count sizes.
        """
        limit = self.config.max_patterns_per_request
        if patterns > limit:
            self.rejected_overload += 1
            raise OverloadedError(
                f"request carries {patterns} patterns (limit {limit})"
            )

    def admit(self, patterns: int) -> None:
        """Reserve *patterns* slots or raise a typed, retryable error."""
        if self.draining:
            self.rejected_draining += 1
            raise ShuttingDownError("server is draining; retry elsewhere")
        self.check_size(patterns)
        cfg = self.config
        if self.pending + patterns > cfg.max_pending:
            self.rejected_overload += 1
            _metrics.inc("serve.admission.rejected")
            raise OverloadedError(
                f"queue full: {self.pending} pending + {patterns} "
                f"requested > {cfg.max_pending}"
            )
        self.pending += patterns
        self.admitted += patterns
        if self.pending > self.peak_pending:
            self.peak_pending = self.pending
        _metrics.set_gauge("serve.queue.depth", self.pending)

    def release(self, patterns: int) -> None:
        """Return *patterns* slots (request answered or rejected)."""
        self.pending -= patterns
        self.completed += patterns
        assert self.pending >= 0, "admission ledger went negative"
        _metrics.set_gauge("serve.queue.depth", self.pending)
        if self.pending == 0 and self._idle_waiters:
            waiters, self._idle_waiters = self._idle_waiters, []
            for waiter in waiters:
                if not waiter.done():
                    waiter.set_result(True)

    async def wait_idle(self, timeout_s: Optional[float] = None) -> bool:
        """Resolve when every admitted pattern has been released.

        Event-based: :meth:`release` wakes the waiter the instant the
        ledger hits zero — no sleep-loop polling, no wall-clock
        coupling.  Returns False only if *timeout_s* elapsed first.
        """
        if self.idle:
            return True
        waiter = asyncio.get_running_loop().create_future()
        self._idle_waiters.append(waiter)
        try:
            await asyncio.wait_for(waiter, timeout_s)
        except asyncio.TimeoutError:
            return False
        return True

    def note_expired(self, patterns: int) -> None:
        self.expired += patterns

    # ------------------------------------------------------------------

    def begin_drain(self) -> None:
        self.draining = True

    @property
    def idle(self) -> bool:
        return self.pending == 0

    def stats(self) -> Dict[str, Any]:
        return {
            "pending": self.pending,
            "peak_pending": self.peak_pending,
            "max_pending": self.config.max_pending,
            "admitted": self.admitted,
            "completed": self.completed,
            "rejected_overload": self.rejected_overload,
            "rejected_draining": self.rejected_draining,
            "expired": self.expired,
            "draining": self.draining,
        }
