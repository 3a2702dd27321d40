"""Trace-context propagation: wire round-trips, attach, re-parenting.

The wire form rides inside protocol frames, so the round-trip tests go
through the real ``encode_frame``/``decode_body`` serialization — what
a context survives is exactly what a request survives.
"""

from hypothesis import given, settings, strategies as st

from repro import obs
from repro.obs.propagate import (
    TraceContext,
    attach_context,
    context_from_request,
    current_context,
    remote_span,
)
from repro.obs.sinks import InMemorySink
from repro.obs.spans import _NULL, Span
from repro.serve.protocol import decode_body, encode_frame


def _frame_round_trip(request):
    """Encode as a protocol frame, decode the body back (strip the
    4-byte length prefix encode_frame prepends)."""
    frame = encode_frame(dict(request))
    return decode_body(frame[4:])


_ids = st.text(
    alphabet="0123456789abcdef-", min_size=1, max_size=32
)


class TestWireRoundTrip:
    @given(trace_id=_ids, parent=st.none() | _ids, sampled=st.booleans())
    @settings(max_examples=60, deadline=None)
    def test_context_survives_a_protocol_frame(self, trace_id, parent,
                                               sampled):
        ctx = TraceContext(trace_id, parent, sampled)
        request = {"op": "query", "circuit": "abc",
                   "ctx": ctx.to_wire()}
        decoded = context_from_request(_frame_round_trip(request))
        assert decoded == ctx

    def test_absent_context_decodes_to_none(self):
        assert context_from_request({"op": "query"}) is None
        assert context_from_request(_frame_round_trip({"op": "ping"})) is None

    @given(junk=st.one_of(
        st.none(), st.integers(), st.text(max_size=8), st.booleans(),
        st.lists(st.integers(), max_size=3),
        st.dictionaries(st.text(max_size=3), st.integers(), max_size=3),
        st.just({"t": ""}), st.just({"t": 42}), st.just({"t": "x" * 65}),
        st.just({"t": "ok", "p": ""}), st.just({"t": "ok", "p": 7}),
        st.just({"t": "ok", "p": "y" * 65}),
    ))
    @settings(max_examples=60, deadline=None)
    def test_junk_context_decodes_to_none_or_valid(self, junk):
        decoded = TraceContext.from_wire(junk)
        # Tolerance contract: never raises; junk yields None.
        if decoded is not None:
            assert isinstance(decoded.trace_id, str) and decoded.trace_id

    def test_default_sampled_omitted_from_wire(self):
        assert TraceContext("t").to_wire() == {"t": "t"}
        assert TraceContext("t", "p", False).to_wire() == {
            "t": "t", "p": "p", "s": 0}


class TestAttachContext:
    def test_disabled_is_identity_same_object(self):
        assert not obs.is_enabled()
        request = {"op": "query", "circuit": "abc"}
        before = dict(request)
        assert attach_context(request) is request
        assert request == before  # not even a "ctx" key added

    def test_enabled_attaches_current_span_as_parent(self):
        session = obs.enable(InMemorySink())
        try:
            with obs.trace_span("outer") as span:
                request = attach_context({"op": "query"})
                ctx = context_from_request(request)
                assert ctx is not None
                assert ctx.trace_id == session.trace_id
                assert session.exported[ctx.parent] is span
        finally:
            obs.disable()

    def test_existing_context_is_left_alone(self):
        obs.enable(InMemorySink())
        try:
            request = {"op": "query", "ctx": {"t": "upstream"}}
            attach_context(request)
            assert request["ctx"] == {"t": "upstream"}
        finally:
            obs.disable()

    def test_disabled_current_context_is_none(self):
        assert current_context() is None


class TestRemoteSpan:
    def test_disabled_returns_null(self):
        assert remote_span("x", TraceContext("t")) is _NULL

    def test_unsampled_returns_null(self):
        obs.enable(InMemorySink())
        try:
            assert remote_span("x", TraceContext("t", sampled=False)) \
                is _NULL
        finally:
            obs.disable()

    def test_none_context_is_plain_trace_span(self):
        session = obs.enable(InMemorySink())
        try:
            with remote_span("x", None) as span:
                assert isinstance(span, Span)
            assert session.roots[0].name == "x"
            assert "trace_id" not in session.roots[0].attrs
        finally:
            obs.disable()

    def test_live_parent_attaches_as_true_child(self):
        session = obs.enable(InMemorySink())
        try:
            with obs.trace_span("parent") as parent:
                ctx = current_context()
                with remote_span("child", ctx) as child:
                    assert child.parent is parent
            assert len(session.roots) == 1
            assert session.roots[0].children[0].name == "child"
        finally:
            obs.disable()

    def test_foreign_parent_becomes_annotated_root(self):
        session = obs.enable(InMemorySink())
        try:
            ctx = TraceContext("far-away", parent="other-node-1")
            with remote_span("handler", ctx):
                pass
            (root,) = session.roots
            assert root.attrs["trace_id"] == "far-away"
            assert root.attrs["trace_parent"] == "other-node-1"
            assert root.attrs["trace_token"]  # exported for dedupe
        finally:
            obs.disable()
