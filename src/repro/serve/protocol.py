"""Wire protocol of the oracle-serving subsystem.

One frame = a 4-byte big-endian length prefix + a UTF-8 JSON object.
Requests carry an ``op`` field (``ping`` / ``register`` / ``describe``
/ ``query`` / ``stats``); responses carry ``ok: true`` plus op-specific
payload, or ``ok: false`` plus a typed error record::

    {"ok": false, "error": {"code": "overloaded", "message": "..."}}

The ``code`` strings are stable — they are the contract that lets a
client re-raise the *same* exception class the server raised (see
:func:`error_to_payload` / :func:`error_from_payload`), so callers can
catch :class:`OverloadedError` for backpressure retry loops without
string-matching messages.

A ``query`` carries its patterns as bit planes, the evaluator's own
form (:class:`~repro.netlist.compiled.PlaneBatch`): a pattern
``count`` plus one ``[value, known]`` pair of lowercase hex strings
per circuit input, in the order ``describe`` lists the inputs.  Bit
*i* of a net's pair is pattern *i*; a clear known bit is X, and no bit
is set at or past ``count``.  The answer carries one pair per output
the same way::

    {"op": "query", "circuit": "<id>", "count": 64,
     "planes": [["9f03...", "ffff..."], ...]}
    {"ok": true, "count": 64, "planes": [[...], ...], "query_count": 128}

A 64-pattern query on s1238 is about 1.4 KB in and 2.6 KB out, where
one JSON object per pattern took 18.5 KB and 38.1 KB.
:func:`encode_planes` and :func:`decode_planes` convert; the decode
refuses anything malformed with a :class:`ProtocolError` before a bit
of it reaches the batcher.

Both transports share these helpers: the asyncio server reads frames
with :func:`read_frame_async`, the blocking client with
:func:`recv_frame`.
"""

from __future__ import annotations

import asyncio
import json
import re
import socket
import struct
from itertools import repeat
from operator import and_, invert
from typing import Any, Dict, List, Optional, Sequence

from ..netlist.compiled import PlaneBatch

__all__ = [
    "MAX_FRAME_BYTES",
    "ServeError",
    "ProtocolError",
    "OverloadedError",
    "ShuttingDownError",
    "DeadlineExceededError",
    "UnknownCircuitError",
    "QueryBudgetExceededError",
    "error_to_payload",
    "error_from_payload",
    "encode_frame",
    "decode_body",
    "encode_planes",
    "decode_count",
    "decode_planes",
    "read_frame_async",
    "write_frame_async",
    "send_frame",
    "recv_frame",
]

#: Hard ceiling on one frame's JSON body.  Generous enough for any
#: benchmark netlist registration; small enough that a corrupt length
#: prefix cannot make the server buffer gigabytes.
MAX_FRAME_BYTES = 64 * 1024 * 1024

_LEN = struct.Struct(">I")


# ----------------------------------------------------------------------
# Typed errors
# ----------------------------------------------------------------------

class ServeError(Exception):
    """Base of every serving-layer failure; ``code`` is the wire name."""

    code = "serve-error"
    #: whether a client may retry the identical request later
    retryable = False


class ProtocolError(ServeError):
    """Malformed frame, unknown op, or missing/invalid fields."""

    code = "protocol-error"


class OverloadedError(ServeError):
    """Admission control rejected the request: the queue is full."""

    code = "overloaded"
    retryable = True


class ShuttingDownError(ServeError):
    """The server is draining and accepts no new work."""

    code = "shutting-down"
    retryable = True


class DeadlineExceededError(ServeError):
    """The request's deadline expired before its batch was evaluated."""

    code = "deadline-exceeded"
    retryable = True


class UnknownCircuitError(ServeError):
    """No registered circuit under this ID (never registered/evicted)."""

    code = "unknown-circuit"


class QueryBudgetExceededError(ServeError):
    """The circuit's query budget is spent; further queries are refused."""

    code = "budget-exhausted"


_ERROR_TYPES = {
    cls.code: cls
    for cls in (
        ServeError, ProtocolError, OverloadedError, ShuttingDownError,
        DeadlineExceededError, UnknownCircuitError,
        QueryBudgetExceededError,
    )
}


def error_to_payload(exc: BaseException) -> Dict[str, Any]:
    """The ``error`` object of a failure response."""
    code = getattr(exc, "code", "serve-error")
    retryable = bool(getattr(exc, "retryable", False))
    return {"code": code, "message": str(exc), "retryable": retryable}


def error_from_payload(payload: Dict[str, Any]) -> ServeError:
    """Reconstruct the typed exception a failure response describes."""
    if not isinstance(payload, dict):
        return ServeError("malformed error payload")
    cls = _ERROR_TYPES.get(payload.get("code"), ServeError)
    return cls(payload.get("message", "unknown server error"))


# ----------------------------------------------------------------------
# Bit planes
# ----------------------------------------------------------------------

def encode_planes(batch: PlaneBatch) -> List[List[str]]:
    """One ``[value, known]`` hex pair per net of *batch*."""
    if batch.count <= 4:
        # One digit per word: two hex() calls render every net.
        return list(map(list, zip(bytes(batch.value).hex()[1::2],
                                  bytes(batch.known).hex()[1::2])))
    return [["%x" % v, "%x" % k] for v, k in zip(batch.value, batch.known)]


def decode_count(count: Any) -> int:
    """A frame's pattern ``count``: a positive int (a bool is not)."""
    if type(count) is not int or count < 1:
        raise ProtocolError(
            f"'count' must be a positive integer, got {count!r}")
    return count


def decode_planes(nets: Sequence[str], count: Any,
                  planes: Any) -> PlaneBatch:
    """A frame's ``count`` and ``planes`` -> a batch over *nets*.

    Every malformed field is a :class:`ProtocolError`: a ``count`` that
    is not a positive int, a pair count other than ``len(nets)``, text
    that is not bare lowercase hex, a bit at or past ``count``, or a
    value bit outside its known plane.  Callers bound ``count`` first:
    it sizes the words this builds.
    """
    count = decode_count(count)
    if type(planes) is not list or len(planes) != len(nets):
        got = len(planes) if type(planes) is list else type(
            planes).__name__
        raise ProtocolError(
            f"'planes' must hold {len(nets)} [value, known] pairs, "
            f"got {got}")
    if not nets:
        return PlaneBatch(nets, [], [], count)
    # Checked for the whole frame at once, not pair by pair: this runs
    # on every query, and per-pair Python checks cost more than the
    # evaluation of a small request.
    digits = (count + 3) // 4
    texts = [text for pair in planes if type(pair) is list
             and len(pair) == 2 for text in pair]
    try:
        joined = " ".join(texts)
    except TypeError:
        joined = ""
    # Space-separated words of 1..digits lowercase hex digits; one
    # space fewer than words, so no word held a space of its own.
    word = f"[0-9a-f]{{1,{digits}}}"
    if (len(texts) != 2 * len(nets)
            or not re.fullmatch(f"{word}(?: {word})*", joined)
            or joined.count(" ") != len(texts) - 1):
        raise ProtocolError(
            f"'planes' must be [value, known] pairs of lowercase hex "
            f"strings of at most {digits} digits")
    if digits == 1:
        # Up to four patterns (the one-pattern DIP loop's shape): every
        # word is one digit, so one fromhex call parses them all.
        words = list(bytes.fromhex("0" + joined.replace(" ", " 0")))
    else:
        words = list(map(int, texts, repeat(16)))
    value, known = words[0::2], words[1::2]
    if max(known) >> count:
        net = next(n for n, k in zip(nets, known) if k >> count)
        raise ProtocolError(
            f"net {net!r}: bits set at or past count {count}")
    if any(map(and_, value, map(invert, known))):
        net = next(n for n, v, k in zip(nets, value, known) if v & ~k)
        raise ProtocolError(
            f"net {net!r}: value bits outside the known plane")
    return PlaneBatch(nets, value, known, count)


# ----------------------------------------------------------------------
# Framing
# ----------------------------------------------------------------------

def encode_frame(obj: Dict[str, Any]) -> bytes:
    """Length-prefixed JSON encoding of one message."""
    body = json.dumps(obj, separators=(",", ":")).encode("utf-8")
    if len(body) > MAX_FRAME_BYTES:
        raise ProtocolError(
            f"frame of {len(body)} bytes exceeds the "
            f"{MAX_FRAME_BYTES}-byte limit"
        )
    return _LEN.pack(len(body)) + body


def decode_body(body: bytes) -> Dict[str, Any]:
    """JSON body bytes -> request/response object; typed error on junk."""
    try:
        obj = json.loads(body.decode("utf-8"))
    except ValueError as exc:
        # Bad UTF-8, bad JSON, and also an integer literal longer than
        # the interpreter converts (sys.set_int_max_str_digits).
        raise ProtocolError(f"undecodable frame body: {exc}") from None
    if not isinstance(obj, dict):
        raise ProtocolError("frame body must be a JSON object")
    return obj


def _check_length(length: int) -> None:
    if length > MAX_FRAME_BYTES:
        raise ProtocolError(
            f"peer announced a {length}-byte frame "
            f"(limit {MAX_FRAME_BYTES})"
        )


async def read_frame_async(reader) -> Optional[Dict[str, Any]]:
    """Next message from an asyncio stream; None on clean EOF."""
    try:
        prefix = await reader.readexactly(_LEN.size)
    except (asyncio.IncompleteReadError, ConnectionError):
        return None
    (length,) = _LEN.unpack(prefix)
    _check_length(length)
    try:
        body = await reader.readexactly(length)
    except asyncio.IncompleteReadError:
        raise ProtocolError("connection closed mid-frame") from None
    return decode_body(body)


async def write_frame_async(writer, obj: Dict[str, Any]) -> None:
    writer.write(encode_frame(obj))
    await writer.drain()


def send_frame(sock: socket.socket, obj: Dict[str, Any]) -> None:
    """Blocking transport (the synchronous client)."""
    sock.sendall(encode_frame(obj))


def _recv_exactly(sock: socket.socket, n: int) -> Optional[bytes]:
    chunks = []
    remaining = n
    while remaining:
        chunk = sock.recv(remaining)
        if not chunk:
            return None
        chunks.append(chunk)
        remaining -= len(chunk)
    return b"".join(chunks)


def recv_frame(sock: socket.socket) -> Optional[Dict[str, Any]]:
    """Next message from a blocking socket; None on clean EOF."""
    prefix = _recv_exactly(sock, _LEN.size)
    if prefix is None:
        return None
    (length,) = _LEN.unpack(prefix)
    _check_length(length)
    body = _recv_exactly(sock, length)
    if body is None:
        raise ProtocolError("connection closed mid-frame")
    return decode_body(body)
