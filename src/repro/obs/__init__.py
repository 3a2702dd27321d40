"""repro.obs — structured tracing, metrics, and profiling.

Zero-dependency observability for every hot path in the repo: nested
wall/monotonic-time spans (:func:`trace_span`), a metrics registry
(counters / gauges / fixed-bucket histograms), pluggable sinks
(in-memory, JSONL file, human-readable tree, and the buffer a served
oracle ships each traced client's span trees from), a whole-pipeline
profile harness (:func:`run_profile`, surfaced as ``repro profile``),
and the text views of one oracle server's ``obs`` response: the
Prometheus dump (:func:`render_exposition`) and ``repro top``
(:func:`render_top`).

Everything is off by default and *cheap* when off: instrumented call
sites check one module attribute (``context.ACTIVE is None``) before
doing any work, so the solver's DIP loop and the event simulator carry
their instrumentation permanently.  Enable per-process with
:func:`enable` (CLI: ``--trace FILE`` / ``--profile``) or per-block in
tests with :func:`capture`::

    from repro import obs

    with obs.capture() as sink:
        sat_attack(locked, oracle)
    print(obs.render_span_tree(sink.roots))
    print(sink.metric_value("attack.sat.oracle_queries"))
"""

from .context import ObsSession, capture, current, disable, enable, is_enabled
from .metrics import (
    DEFAULT_TIME_BUCKETS,
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    inc,
    observe,
    set_gauge,
    snapshot,
)
from .sinks import (
    InMemorySink,
    JsonlSink,
    Sink,
    SlowRequestLog,
    SpanBuffer,
    TreeSink,
    render_metrics_table,
    render_span_tree,
)
from .spans import Span, annotate, current_span, trace_span
from .instrument import ProfileReport, run_profile, traced
from .snapshots import (
    MetricMergeError,
    adopt_payload,
    capture_payload,
    merge_metrics,
    span_tree_from_dict,
    span_tree_to_dict,
)
from .propagate import (
    TraceContext,
    attach_context,
    context_from_request,
    current_context,
    remote_span,
)
from .export import render_exposition, render_prometheus, render_top

__all__ = [
    "ObsSession", "capture", "current", "disable", "enable", "is_enabled",
    "Counter", "Gauge", "Histogram", "MetricsRegistry",
    "DEFAULT_TIME_BUCKETS", "inc", "observe", "set_gauge", "snapshot",
    "Sink", "InMemorySink", "JsonlSink", "TreeSink",
    "SpanBuffer", "SlowRequestLog",
    "render_span_tree", "render_metrics_table",
    "Span", "annotate", "current_span", "trace_span",
    "ProfileReport", "run_profile", "traced",
    "MetricMergeError", "adopt_payload", "capture_payload", "merge_metrics",
    "span_tree_from_dict", "span_tree_to_dict",
    "TraceContext", "attach_context",
    "context_from_request", "current_context", "remote_span",
    "render_exposition", "render_prometheus", "render_top",
]
