"""Where spans and metric snapshots go.

Three sinks cover the repo's needs:

* :class:`InMemorySink` — lists, for tests and for the CLI's
  ``--profile`` summary;
* :class:`JsonlSink` — one JSON object per line (spans as they close,
  metric snapshots on publish), the ``--trace FILE`` format;
* :class:`TreeSink` — streams a human-readable span tree to a text
  stream as each *root* span completes.

Rendering helpers (:func:`render_span_tree`,
:func:`render_metrics_table`) are plain functions so any sink — or the
CLI — can format the same data.
"""

from __future__ import annotations

import json
import threading
import time
from collections import deque
from typing import Any, Deque, Dict, IO, List, Optional

from .spans import Span

__all__ = ["Sink", "InMemorySink", "JsonlSink", "TreeSink",
           "SpanBuffer", "SlowRequestLog",
           "render_span_tree", "render_metrics_table"]


class Sink:
    """Observer interface; subclasses override what they care about."""

    def on_span(self, span: Span) -> None:  # every span, as it closes
        pass

    def on_metrics(self, snapshot: dict) -> None:  # on publish
        pass

    def close(self) -> None:
        pass


class InMemorySink(Sink):
    """Accumulates everything; inspection-friendly."""

    def __init__(self) -> None:
        self.spans: List[Span] = []       # every closed span
        self.roots: List[Span] = []       # top-level spans only
        self.snapshots: List[dict] = []
        self.session = None  # set by context.capture()

    def on_span(self, span: Span) -> None:
        self.spans.append(span)
        if span.parent is None:
            self.roots.append(span)

    def on_metrics(self, snapshot: dict) -> None:
        self.snapshots.append(snapshot)

    # ------------------------------------------------------------------

    def spans_named(self, name: str) -> List[Span]:
        return [s for s in self.spans if s.name == name]

    @property
    def last_snapshot(self) -> Optional[dict]:
        return self.snapshots[-1] if self.snapshots else None

    def metric_value(self, name: str) -> Any:
        """Value of a counter/gauge in the most recent snapshot."""
        snap = self.last_snapshot
        if snap is None and self.session is not None:
            snap = self.session.registry.snapshot()
        if snap is None or name not in snap:
            raise KeyError(f"metric {name!r} not in snapshot")
        return snap[name].get("value", snap[name])


class JsonlSink(Sink):
    """Writes newline-delimited JSON records to *stream* (owns it if
    constructed from a path)."""

    def __init__(self, stream_or_path) -> None:
        if isinstance(stream_or_path, str):
            self._stream: IO[str] = open(stream_or_path, "w")
            self._owned = True
        else:
            self._stream = stream_or_path
            self._owned = False

    def on_span(self, span: Span) -> None:
        self._stream.write(json.dumps(span.to_dict(), default=str) + "\n")

    def on_metrics(self, snapshot: dict) -> None:
        self._stream.write(
            json.dumps({"type": "metrics", "metrics": snapshot}) + "\n"
        )

    def close(self) -> None:
        self._stream.flush()
        if self._owned:
            self._stream.close()


class TreeSink(Sink):
    """Prints each completed root span's tree to *stream* immediately."""

    def __init__(self, stream: IO[str]) -> None:
        self._stream = stream

    def on_span(self, span: Span) -> None:
        if span.parent is None:
            self._stream.write(render_span_tree([span]) + "\n")

    def on_metrics(self, snapshot: dict) -> None:
        self._stream.write(render_metrics_table(snapshot) + "\n")


class SpanBuffer(Sink):
    """Buffers completed *root* trees, serialized, for another process.

    The shipping half of distributed tracing: ``repro serve
    --fleet-trace`` attaches one to its session, and a client's ``obs``
    request (``"spans": true``) drains the trees of its own trace, the
    roots that carry its trace id (:func:`~repro.obs.propagate.remote_span`
    stamps it); trees of other traces stay.  Roots without a trace id,
    such as the server's startup registrations and untraced clients'
    requests, are never buffered: no drain could return them.  Trees
    are serialized eagerly at close time so draining is a cheap list
    handoff and later span mutation cannot race the reader.  Bounded:
    past *capacity* roots the oldest are dropped and counted, so trees
    nobody fetches cannot leak memory.  Thread-safe (spans close on the
    event loop, drains may arrive from another thread).
    """

    def __init__(self, capacity: int = 512) -> None:
        if capacity < 1:
            raise ValueError("SpanBuffer capacity must be >= 1")
        self.capacity = capacity
        self.dropped = 0
        self._lock = threading.Lock()
        self._roots: Deque[dict] = deque()

    def on_span(self, span: Span) -> None:
        if span.parent is not None or "trace_id" not in span.attrs:
            return
        from .snapshots import span_tree_to_dict  # local: import cycle

        tree = span_tree_to_dict(span)
        with self._lock:
            self._roots.append(tree)
            while len(self._roots) > self.capacity:
                self._roots.popleft()
                self.dropped += 1

    def drain(self, trace_id: str) -> List[dict]:
        """Hand over (and forget) every buffered tree of *trace_id*."""
        with self._lock:
            mine = [tree for tree in self._roots
                    if tree["attrs"].get("trace_id") == trace_id]
            if mine:
                self._roots = deque(
                    tree for tree in self._roots
                    if tree["attrs"].get("trace_id") != trace_id)
        return mine

    def __len__(self) -> int:
        with self._lock:
            return len(self._roots)


class SlowRequestLog:
    """Always-on, threshold-gated JSONL log of slow and failed requests.

    Deliberately *not* a :class:`Sink`: it works with observability
    disabled (the always-on part) and never touches the span machinery.
    One JSON object per line, flushed per line so the file is tail-able
    while serving; ``log`` is thread-safe.  The serve layer writes two
    event families: ``slow`` / ``reject`` per request (gated on
    *threshold_s*, errors always logged) and ``deadline-expired`` from
    the batcher when a queued request dies before its batch flushes.
    """

    def __init__(self, stream_or_path, threshold_s: float = 1.0) -> None:
        if isinstance(stream_or_path, str):
            self._stream: IO[str] = open(stream_or_path, "a")
            self._owned = True
        else:
            self._stream = stream_or_path
            self._owned = False
        self.threshold_s = float(threshold_s)
        self.logged = 0
        self._lock = threading.Lock()

    def should_log(self, took_s: float, error: Optional[str] = None) -> bool:
        return error is not None or took_s >= self.threshold_s

    def log(self, event: str, **fields: Any) -> None:
        record = {"ts": round(time.time(), 6), "event": event}
        record.update(
            (k, v) for k, v in fields.items() if v is not None
        )
        line = json.dumps(record, default=str, sort_keys=True)
        with self._lock:
            self._stream.write(line + "\n")
            self._stream.flush()
            self.logged += 1

    def request(self, op: str, took_s: float,
                error: Optional[str] = None, **fields: Any) -> bool:
        """Log one finished request if it qualifies; True when logged."""
        if not self.should_log(took_s, error):
            return False
        self.log("reject" if error is not None else "slow",
                 op=op, took_ms=round(took_s * 1e3, 3), error=error,
                 **fields)
        return True

    def close(self) -> None:
        with self._lock:
            self._stream.flush()
            if self._owned:
                self._stream.close()


# ----------------------------------------------------------------------
# Rendering
# ----------------------------------------------------------------------

def _format_attrs(attrs: Dict[str, Any]) -> str:
    if not attrs:
        return ""
    parts = []
    for key in sorted(attrs):
        value = attrs[key]
        if isinstance(value, float):
            value = f"{value:.4g}"
        parts.append(f"{key}={value}")
    return "  [" + " ".join(parts) + "]"


def _format_seconds(seconds: Optional[float]) -> str:
    if seconds is None:
        return "     open"
    if seconds >= 1.0:
        return f"{seconds:8.2f}s"
    return f"{seconds * 1e3:7.2f}ms"


def render_span_tree(roots: List[Span]) -> str:
    """ASCII tree of *roots* and their descendants with durations.

    ::

        profile.run                                    1.23s
        ├─ sta.analyze                               102.10ms  [design=s1238]
        └─ flow.lock                                   1.01s
           ├─ flow.insert                            400.00ms  [attempts=5]
           ...
    """
    lines: List[str] = []

    def walk(span: Span, prefix: str, child_prefix: str) -> None:
        label = prefix + span.name
        pad = max(1, 46 - len(label))
        lines.append(
            label + " " * pad + _format_seconds(span.duration)
            + _format_attrs(span.attrs)
        )
        for i, child in enumerate(span.children):
            last = i == len(span.children) - 1
            walk(child,
                 child_prefix + ("└─ " if last else "├─ "),
                 child_prefix + ("   " if last else "│  "))

    for root in roots:
        walk(root, "", "")
    return "\n".join(lines)


def render_metrics_table(snapshot: dict) -> str:
    """Fixed-width table of every instrument in *snapshot*."""
    if not snapshot:
        return "(no metrics recorded)"
    width = max(len(name) for name in snapshot)
    width = max(width, len("metric"))
    lines = [f"{'metric':<{width}}  {'kind':<9}  value",
             "-" * (width + 2 + 9 + 2 + 28)]
    for name in sorted(snapshot):
        entry = snapshot[name]
        kind = entry["kind"]
        if kind == "histogram":
            mean = entry["sum"] / entry["count"] if entry["count"] else 0.0
            value = (f"n={entry['count']} sum={entry['sum']:.4g} "
                     f"mean={mean:.4g} max={entry['max']:.4g}"
                     if entry["count"] else "n=0")
        else:
            value = f"{entry['value']:g}" \
                if isinstance(entry["value"], float) else str(entry["value"])
        lines.append(f"{name:<{width}}  {kind:<9}  {value}")
    return "\n".join(lines)
