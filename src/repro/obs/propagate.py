"""Cross-process trace propagation: one query, one tree.

A query that flows client -> server -> batcher touches two processes,
each with its own :class:`~repro.obs.context.ObsSession`.  This module
carries the *identity* of the client's trace across that hop so the
two per-process span forests can be stitched back into a single tree:

* :class:`TraceContext` is the compact wire form — trace id, parent
  span token, sampling flag — attached to protocol frames under the
  optional ``"ctx"`` key and to campaign job dispatches as a separate
  argument (never inside job params, which would perturb job ids and
  cache keys).
* :func:`attach_context` injects the current context into an outgoing
  request.  With observability disabled it is a no-op that returns the
  *same* dict untouched, so non-tracing clients produce byte-identical
  frames and old servers never see the field.
* :func:`remote_span` opens a server-side span re-parented under the
  caller's context: a true child when the parent span lives in this
  very session (a server thread in the client's process, a
  same-session test client), or an annotated root
  (``trace_id``/``trace_parent`` attrs) that
  :func:`~repro.obs.snapshots.adopt_payload` stitches under the
  submitting span once the tree ships home.

Decoding is strictly tolerant: a frame with no context, or junk where
the context should be, yields ``None`` — an old client talking to a new
server costs nothing and breaks nothing.
"""

from __future__ import annotations

from typing import Any, Dict, Mapping, MutableMapping, Optional

from . import context as _obs
from .spans import _NULL, _SpanContext, Span, current_span, trace_span

__all__ = [
    "TraceContext", "current_context", "attach_context",
    "context_from_request", "remote_span",
]

#: hard cap on id/token string lengths accepted off the wire
_MAX_ID_CHARS = 64


class TraceContext:
    """Compact, immutable trace coordinates for one hop.

    Wire form (all fields optional except the trace id)::

        {"t": "<trace_id>", "p": "<parent span token>", "s": 0}

    ``p`` is omitted when the sender had no open span; ``s`` is omitted
    when sampled (the default), ``0`` means the receiver should record
    nothing for this request.
    """

    __slots__ = ("trace_id", "parent", "sampled")

    def __init__(self, trace_id: str, parent: Optional[str] = None,
                 sampled: bool = True) -> None:
        self.trace_id = trace_id
        self.parent = parent
        self.sampled = sampled

    def to_wire(self) -> Dict[str, Any]:
        wire: Dict[str, Any] = {"t": self.trace_id}
        if self.parent is not None:
            wire["p"] = self.parent
        if not self.sampled:
            wire["s"] = 0
        return wire

    @classmethod
    def from_wire(cls, obj: Any) -> Optional["TraceContext"]:
        """Decode tolerantly; ``None`` on anything malformed or absent."""
        if not isinstance(obj, Mapping):
            return None
        trace_id = obj.get("t")
        if (not isinstance(trace_id, str) or not trace_id
                or len(trace_id) > _MAX_ID_CHARS):
            return None
        parent = obj.get("p")
        if parent is not None and (
                not isinstance(parent, str) or not parent
                or len(parent) > _MAX_ID_CHARS):
            return None
        return cls(trace_id, parent, bool(obj.get("s", 1)))

    # ------------------------------------------------------------------

    def __eq__(self, other: Any) -> bool:
        if not isinstance(other, TraceContext):
            return NotImplemented
        return (self.trace_id == other.trace_id
                and self.parent == other.parent
                and self.sampled == other.sampled)

    def __hash__(self) -> int:
        return hash((self.trace_id, self.parent, self.sampled))

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"TraceContext({self.trace_id!r}, parent={self.parent!r}, "
                f"sampled={self.sampled})")


def current_context() -> Optional[TraceContext]:
    """The context an outgoing request should carry right now.

    ``None`` when observability is disabled.  When a span is open in
    this execution context it becomes the parent (and is exported so a
    returning child tree can find it); otherwise the context carries
    only the session's trace id.
    """
    session = _obs.ACTIVE
    if session is None:
        return None
    span = current_span()
    parent = session.export_span(span) if span is not None else None
    return TraceContext(session.trace_id, parent)


def attach_context(request: MutableMapping[str, Any]) -> MutableMapping[str, Any]:
    """Inject the active trace context into *request*, in place.

    Free when observability is disabled — one attribute load and an
    ``is None`` test, the same dict object returned unmodified — so
    non-tracing clients emit byte-identical frames.  A context already
    present (set by the caller) is left alone.
    """
    if _obs.ACTIVE is None or "ctx" in request:
        return request
    ctx = current_context()
    if ctx is not None:
        request["ctx"] = ctx.to_wire()
    return request


def context_from_request(request: Mapping[str, Any]) -> Optional[TraceContext]:
    """Decode a request frame's optional ``ctx`` field (tolerant)."""
    return TraceContext.from_wire(request.get("ctx"))


def remote_span(name: str, ctx: Optional[TraceContext], **attrs: Any):
    """Open a span re-parented under a remote caller's *ctx*.

    * observability disabled -> the shared null span;
    * *ctx* is None -> behaves exactly like :func:`trace_span`;
    * *ctx* is unsampled -> the null span (the caller opted out);
    * *ctx*'s parent token resolves to a span this session knows
      (a server thread in the client's process) -> a true child of
      that live span;
    * otherwise -> a root annotated with ``trace_id``/``trace_parent``
      so adoption can stitch it under the submitting span later.
    """
    session = _obs.ACTIVE
    if session is None:
        return _NULL
    if ctx is None:
        return trace_span(name, **attrs)
    if not ctx.sampled:
        return _NULL
    attrs.setdefault("trace_id", ctx.trace_id)
    parent: Optional[Span] = None
    if ctx.parent is not None:
        attrs.setdefault("trace_parent", ctx.parent)
        parent = session.exported.get(ctx.parent)
    # export=True: the span joins a distributed trace, so mint its
    # token now — shipped copies are then deduplicated on adoption.
    return _SpanContext(session, name, attrs, parent=parent, export=True)
