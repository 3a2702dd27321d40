"""Clients: a blocking protocol connection and the ``RemoteOracle``.

:class:`RemoteOracle` is a drop-in substitute for
:class:`~repro.attacks.oracle.CombinationalOracle` — it satisfies
:class:`~repro.attacks.oracle.OracleProtocol` (``inputs`` / ``outputs``
/ ``query`` / ``query_batch`` / ``query_count``), so the SAT attack,
AppSAT, and key verification run against a served chip unchanged.  The
transport is deliberately *synchronous* (plain blocking socket, one
request in flight): the attacks are sequential query loops, and a
blocking client keeps them byte-for-byte deterministic against the
in-process oracle.

Pattern dicts exist only at this edge: :func:`query_request` packs
them into one value/known plane pair per circuit input, and
:func:`query_answer` unpacks the answer's output planes back into one
dict per pattern (the wire format is in :mod:`repro.serve.protocol`).
Names and values are checked while packing, with the errors the
in-process oracle raises, before anything is sent.

``query_count`` mirrors the in-process semantics exactly: one count per
pattern, counted locally, so an attack's reported query totals are
identical whether the oracle is local or served.  The *server's*
cumulative count for the circuit (which also feeds budget enforcement,
and aggregates across every client) rides along on each response as
:attr:`RemoteOracle.server_query_count`.

Typed server errors are re-raised client-side as the same
:mod:`repro.serve.protocol` exception classes, so backpressure handling
(``except OverloadedError: retry``) is transport-agnostic.
"""

from __future__ import annotations

import io
import socket
from typing import Any, Dict, List, Mapping, Optional, Sequence, Tuple, Union

from ..netlist.bench_io import write_bench
from ..netlist.circuit import Circuit
from ..netlist.compiled import PlaneBatch
from ..netlist.transform import combinational_circuit
from ..obs.propagate import attach_context
from ..obs.snapshots import adopt_payload
from ..obs.spans import trace_span
from .protocol import (
    ProtocolError,
    decode_planes,
    encode_planes,
    error_from_payload,
    recv_frame,
    send_frame,
)

__all__ = ["ServeConnection", "RemoteOracle", "parse_address",
           "adopt_remote_trace", "register_request", "query_request",
           "query_answer"]

Address = Union[str, Tuple[str, int]]


def register_request(circuit: Circuit,
                     budget: Optional[int] = None) -> Dict[str, Any]:
    """The ``register`` request hosting *circuit*'s oracle view.

    The combinational core is extracted client-side — the same
    normalization :class:`~repro.attacks.oracle.CombinationalOracle`
    applies.  Serializing the sequential shell instead would let the
    server's re-parse regenerate FF gate names and reorder the
    pseudo-PO list, breaking the positional output mapping the SAT
    attack builds against its own extraction of the locked netlist.
    Every caller building the request here gets the same content ID
    for the same netlist.
    """
    circuit = combinational_circuit(circuit)
    text = io.StringIO()
    write_bench(circuit, text)
    return {
        "op": "register",
        "netlist": text.getvalue(),
        "name": circuit.name,
        "budget": budget,
    }


def query_request(circuit_id: str, inputs: Sequence[str],
                  assignments: Sequence[Mapping[str, Any]],
                  deadline_ms: Optional[float] = None) -> Dict[str, Any]:
    """The ``query`` request for *assignments*, pattern dicts naming
    exactly *inputs* (the order ``describe`` lists them in).

    A missing or unknown net raises
    :class:`~repro.netlist.circuit.NetlistError` and a value other than
    0/1/None ``ValueError``, before anything is sent.
    """
    batch = PlaneBatch.pack(inputs, assignments)
    request: Dict[str, Any] = {
        "op": "query",
        "circuit": circuit_id,
        "count": batch.count,
        "planes": encode_planes(batch),
    }
    if deadline_ms is not None:
        request["deadline_ms"] = deadline_ms
    return request


def query_answer(response: Mapping[str, Any],
                 outputs: Sequence[str]) -> List[Dict[str, Any]]:
    """One ``{output: 0/1/None}`` dict per pattern of a ``query``
    answer; *outputs* in the order ``describe`` lists them in."""
    return decode_planes(outputs, response.get("count"),
                         response.get("planes")).unpack()


def parse_address(address: Address) -> Tuple[str, int]:
    """``"host:port"`` or ``(host, port)`` -> ``(host, port)``."""
    if isinstance(address, tuple):
        host, port = address
        return str(host), int(port)
    host, sep, port_text = address.rpartition(":")
    if not sep or not host:
        raise ValueError(f"address {address!r} is not host:port")
    return host, int(port_text)


class ServeConnection:
    """One blocking protocol connection (request/response in lockstep)."""

    def __init__(self, address: Address, timeout_s: float = 30.0) -> None:
        self.address = parse_address(address)
        self.timeout_s = timeout_s
        self._sock: Optional[socket.socket] = None

    # ------------------------------------------------------------------

    def _socket(self) -> socket.socket:
        if self._sock is None:
            sock = socket.create_connection(
                self.address, timeout=self.timeout_s
            )
            sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
            self._sock = sock
        return self._sock

    def request(self, obj: Mapping[str, Any]) -> Dict[str, Any]:
        """Send one request; return the success payload or raise typed.

        With observability enabled, the current trace context rides
        along as the optional ``ctx`` frame field, so server-side spans
        re-parent under this client's innermost open span.  Disabled,
        :func:`attach_context` is an identity and the frame is
        byte-identical to an untraced client's.
        """
        sock = self._socket()
        try:
            send_frame(sock, attach_context(dict(obj)))
            response = recv_frame(sock)
        except (OSError, socket.timeout):
            self.close()
            raise
        if response is None:
            self.close()
            raise ProtocolError("server closed the connection mid-request")
        if not response.get("ok"):
            raise error_from_payload(response.get("error", {}))
        return response

    def ping(self) -> bool:
        return bool(self.request({"op": "ping"}).get("pong"))

    def stats(self) -> Dict[str, Any]:
        return self.request({"op": "stats"})

    def fetch_obs(self, spans: bool = False) -> Dict[str, Any]:
        """The server's observability state (``obs`` op).

        ``spans=True`` also drains the server's buffered span trees of
        this session's trace (the ``ctx`` the request carries names
        it) — destructive server-side, so each tree is fetched once.
        """
        request: Dict[str, Any] = {"op": "obs"}
        if spans:
            request["spans"] = True
        return self.request(request)

    def close(self) -> None:
        if self._sock is not None:
            try:
                self._sock.close()
            finally:
                self._sock = None

    def __enter__(self) -> "ServeConnection":
        self._socket()
        return self

    def __exit__(self, *exc) -> None:
        self.close()


class RemoteOracle:
    """A served activated chip, with the in-process oracle's interface.

    Construct from either a :class:`Circuit` (registered with the
    server, content-addressed and idempotent) or the ``circuit_id`` of
    an already-hosted design::

        oracle = RemoteOracle(("127.0.0.1", 9007), circuit=original)
        result = sat_attack(locked, oracle)          # unchanged
    """

    def __init__(
        self,
        address: Address,
        circuit: Optional[Circuit] = None,
        circuit_id: Optional[str] = None,
        *,
        budget: Optional[int] = None,
        deadline_ms: Optional[float] = None,
        timeout_s: float = 30.0,
    ) -> None:
        if (circuit is None) == (circuit_id is None):
            raise ValueError("pass exactly one of circuit / circuit_id")
        self.connection = ServeConnection(address, timeout_s)
        self.deadline_ms = deadline_ms
        if circuit is not None:
            info = self.connection.request(register_request(circuit, budget))
        else:
            info = self.connection.request(
                {"op": "describe", "circuit": circuit_id}
            )
        self.circuit_id: str = info["circuit"]
        self.inputs: List[str] = list(info["inputs"])
        self.outputs: List[str] = list(info["outputs"])
        self.budget: Optional[int] = info.get("budget")
        #: local per-pattern count — CombinationalOracle semantics
        self.query_count = 0
        #: the server's cumulative count for this circuit (all clients)
        self.server_query_count: int = int(info.get("query_count", 0))

    # ------------------------------------------------------------------

    def query(self, assignment: Mapping[str, Any]) -> Dict[str, Any]:
        """Outputs of the served chip for one input pattern."""
        return self.query_batch([assignment])[0]

    def query_batch(
        self, assignments: Sequence[Mapping[str, Any]]
    ) -> List[Dict[str, Any]]:
        """Outputs for many patterns in one request (one server batch)."""
        if not assignments:
            return []
        request = query_request(self.circuit_id, self.inputs, assignments,
                                self.deadline_ms)
        with trace_span("serve.client.query", patterns=len(assignments)):
            response = self.connection.request(request)
        self.query_count += len(assignments)
        self.server_query_count = int(
            response.get("query_count", self.server_query_count)
        )
        return query_answer(response, self.outputs)

    # ------------------------------------------------------------------

    def stats(self) -> Dict[str, Any]:
        return self.connection.stats()

    def close(self) -> None:
        self.connection.close()

    def __enter__(self) -> "RemoteOracle":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        host, port = self.connection.address
        return (f"RemoteOracle({host}:{port}, "
                f"circuit={self.circuit_id[:12]}..., "
                f"queries={self.query_count})")


def adopt_remote_trace(connection: ServeConnection) -> int:
    """Pull this session's span trees from the server into it.

    Fetches ``obs`` with ``spans=True``, which hands over only the
    buffered trees of this session's trace: the server's answers to
    the requests this session sent (each carried its ``ctx``).  Each
    tree is adopted: one whose recorded parent token names a span this
    session exported stitches under that span, producing one
    contiguous cross-process trace; one whose parent is not known here
    becomes a top-level root.  Returns the number of trees adopted;
    0 — never an error — when observability is disabled, the server
    predates the ``obs`` op, or the fetch fails.
    """
    from ..obs import context as _obs

    session = _obs.ACTIVE
    if session is None:
        return 0
    try:
        response = connection.fetch_obs(spans=True)
    except Exception:  # noqa: BLE001 - old server / dead connection
        return 0
    trees = response.get("spans")
    if not trees:
        return 0
    return adopt_payload(session, {"spans": trees})
