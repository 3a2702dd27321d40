"""Framing and typed-error round-trips of the wire protocol."""

import asyncio
import socket
import struct
import sys

import pytest
from hypothesis import given, settings, strategies as st

from repro.serve import OracleServer, ServeConnection, ThreadedServer
from repro.serve.protocol import (
    MAX_FRAME_BYTES,
    DeadlineExceededError,
    OverloadedError,
    ProtocolError,
    QueryBudgetExceededError,
    ServeError,
    ShuttingDownError,
    UnknownCircuitError,
    decode_planes,
    encode_frame,
    encode_planes,
    error_from_payload,
    error_to_payload,
    read_frame_async,
    recv_frame,
    send_frame,
)

ERROR_CLASSES = [
    ServeError,
    ProtocolError,
    OverloadedError,
    ShuttingDownError,
    DeadlineExceededError,
    UnknownCircuitError,
    QueryBudgetExceededError,
]


class TestFraming:
    def test_blocking_roundtrip_over_socketpair(self):
        a, b = socket.socketpair()
        try:
            message = {"op": "query", "count": 2,
                       "planes": [["1", "3"], ["0", "0"]]}
            send_frame(a, message)
            assert recv_frame(b) == message
        finally:
            a.close()
            b.close()

    def test_clean_eof_is_none(self):
        a, b = socket.socketpair()
        a.close()
        try:
            assert recv_frame(b) is None
        finally:
            b.close()

    def test_torn_frame_raises(self):
        a, b = socket.socketpair()
        try:
            # Announce 100 bytes, deliver 3, hang up.
            a.sendall(struct.pack(">I", 100) + b"abc")
            a.close()
            with pytest.raises(ProtocolError, match="mid-frame"):
                recv_frame(b)
        finally:
            b.close()

    def test_announced_length_beyond_limit_rejected(self):
        a, b = socket.socketpair()
        try:
            a.sendall(struct.pack(">I", MAX_FRAME_BYTES + 1))
            with pytest.raises(ProtocolError, match="limit"):
                recv_frame(b)
        finally:
            a.close()
            b.close()

    def test_non_object_body_rejected(self):
        a, b = socket.socketpair()
        try:
            body = b"[1, 2, 3]"
            a.sendall(struct.pack(">I", len(body)) + body)
            with pytest.raises(ProtocolError, match="JSON object"):
                recv_frame(b)
        finally:
            a.close()
            b.close()

    def test_undecodable_body_rejected(self):
        a, b = socket.socketpair()
        try:
            body = b"{not json"
            a.sendall(struct.pack(">I", len(body)) + body)
            with pytest.raises(ProtocolError, match="undecodable"):
                recv_frame(b)
        finally:
            a.close()
            b.close()

    @pytest.mark.skipif(not hasattr(sys, "set_int_max_str_digits"),
                        reason="no integer string conversion limit")
    def test_overlong_integer_literal_rejected(self):
        a, b = socket.socketpair()
        try:
            body = b'{"op": "ping", "x": ' + b"7" * 5000 + b"}"
            a.sendall(struct.pack(">I", len(body)) + body)
            with pytest.raises(ProtocolError, match="undecodable"):
                recv_frame(b)
        finally:
            a.close()
            b.close()

    def test_async_reader_roundtrip_and_eof(self):
        async def scenario():
            reader = asyncio.StreamReader()
            reader.feed_data(encode_frame({"op": "ping"}))
            reader.feed_data(encode_frame({"op": "stats"}))
            reader.feed_eof()
            first = await read_frame_async(reader)
            second = await read_frame_async(reader)
            third = await read_frame_async(reader)
            return first, second, third

        first, second, third = asyncio.run(scenario())
        assert first == {"op": "ping"}
        assert second == {"op": "stats"}
        assert third is None

    def test_async_reader_torn_frame(self):
        async def scenario():
            reader = asyncio.StreamReader()
            reader.feed_data(struct.pack(">I", 64) + b"partial")
            reader.feed_eof()
            with pytest.raises(ProtocolError, match="mid-frame"):
                await read_frame_async(reader)

        asyncio.run(scenario())


class TestTypedErrors:
    @pytest.mark.parametrize("cls", ERROR_CLASSES)
    def test_payload_roundtrip_preserves_class(self, cls):
        payload = error_to_payload(cls("boom"))
        rebuilt = error_from_payload(payload)
        assert type(rebuilt) is cls
        assert str(rebuilt) == "boom"
        assert payload["retryable"] == cls.retryable

    def test_codes_are_unique(self):
        codes = [cls.code for cls in ERROR_CLASSES]
        assert len(set(codes)) == len(codes)

    def test_backpressure_errors_are_retryable(self):
        for cls in (OverloadedError, ShuttingDownError, DeadlineExceededError):
            assert cls.retryable
        for cls in (ProtocolError, UnknownCircuitError,
                    QueryBudgetExceededError):
            assert not cls.retryable

    def test_unknown_code_degrades_to_base(self):
        rebuilt = error_from_payload({"code": "martian", "message": "m"})
        assert type(rebuilt) is ServeError

    def test_malformed_payload_degrades_to_base(self):
        assert isinstance(error_from_payload(None), ServeError)

    def test_oversized_frame_refused_at_encode(self):
        with pytest.raises(ProtocolError, match="exceeds"):
            encode_frame({"blob": "x" * (MAX_FRAME_BYTES + 1)})


# ----------------------------------------------------------------------
# Bit planes
# ----------------------------------------------------------------------

@pytest.mark.parametrize("count", [1, 2, 3, 4, 5, 8, 64, 65])
def test_planes_round_trip_as_plain_hex(count):
    """Every count encodes to the same bare hex words and decodes back,
    whichever way the words are rendered and parsed."""
    import random

    from repro.netlist.compiled import PlaneBatch

    rng = random.Random(count)
    nets = [f"n{i}" for i in range(9)]
    batch = PlaneBatch.pack(nets, [
        {net: rng.choice((0, 1, None)) for net in nets}
        for _ in range(count)
    ])
    planes = encode_planes(batch)
    assert planes == [["%x" % v, "%x" % k]
                      for v, k in zip(batch.value, batch.known)]
    assert decode_planes(nets, count, planes) == batch
    # Leading zeros within the count's width are still plain hex.
    padded = [[v.zfill((count + 3) // 4), k] for v, k in planes]
    assert decode_planes(nets, count, padded) == batch


# ----------------------------------------------------------------------
# Malformed planes
# ----------------------------------------------------------------------

#: JSON values of every shape, a few levels deep
_JSON = st.recursive(
    st.none() | st.booleans() | st.integers(-2 ** 70, 2 ** 70)
    | st.floats(allow_nan=False) | st.text(max_size=8),
    lambda inner: st.lists(inner, max_size=4)
    | st.dictionaries(st.text(max_size=4), inner, max_size=3),
    max_leaves=12,
)
#: near misses: hex-like text with signs, prefixes, spaces, separators
_HEXISH = st.one_of(
    st.sampled_from(["0", "1", "3", "f", "10", "ff"]),
    st.text(alphabet="0123456789abcdefABx+-_ \n", max_size=6),
)
#: a plane word, or anything else JSON can carry in its place
_WORD = st.one_of(_HEXISH, _JSON)
_PLANES = st.one_of(
    _JSON,
    st.lists(st.lists(_WORD, max_size=3), max_size=3),
    # the served chain's shape, one [value, known] pair, any words
    st.tuples(_WORD, _WORD).map(lambda pair: [list(pair)]),
)
_COUNT = st.one_of(st.integers(1, 8), st.integers(-2, 70), _JSON,
                   st.integers(-3, 10 ** 12))


@pytest.fixture(scope="module")
def served_chain():
    """A one-input inverter chain behind a live server."""
    from tests.serve.conftest import bench_text, build_chain

    with ThreadedServer(OracleServer()) as address:
        with ServeConnection(address) as connection:
            circuit = build_chain()
            cid = connection.request({
                "op": "register", "netlist": bench_text(circuit),
                "name": circuit.name,
            })["circuit"]
            yield connection, cid


@given(count=_COUNT, planes=_PLANES)
@settings(max_examples=200, deadline=None)
def test_junk_planes_get_a_typed_error(served_chain, count, planes):
    """Whatever stands in ``count``/``planes``, the answer is either a
    valid one or a typed error (never the untyped ``serve-error`` of an
    exception that escaped decoding), and the connection stays usable."""
    connection, cid = served_chain
    try:
        response = connection.request({"op": "query", "circuit": cid,
                                       "count": count, "planes": planes})
    except ServeError as exc:
        assert type(exc) is not ServeError, exc
        assert isinstance(exc, (ProtocolError, OverloadedError)), exc
    else:
        assert response["count"] == count
        assert len(response["planes"]) == 1
    assert connection.ping()
