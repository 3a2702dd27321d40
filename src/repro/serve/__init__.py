"""repro.serve — async oracle serving with dynamic lane-wide batching.

The paper's threat model is an attacker querying an *activated chip* as
a black box; at system scale that chip is a service under heavy query
pressure from many concurrent clients.  This package hosts circuits
behind an asyncio server and serves oracle queries over a
length-prefixed JSON protocol whose queries carry bit planes (one
value/known word pair per net, :mod:`repro.serve.protocol`), with:

* a **dynamic batcher** coalescing concurrent single-pattern queries
  into lane-wide bit-parallel evaluations (:mod:`repro.serve.batcher`);
* a content-addressed **circuit registry** with an LRU of compiled
  instances, shared with the in-process oracles
  (:mod:`repro.serve.registry`);
* **admission control** — bounded queueing, per-request deadlines,
  typed backpressure errors, graceful drain
  (:mod:`repro.serve.admission`);
* a synchronous :class:`RemoteOracle` client that drops in wherever a
  :class:`~repro.attacks.oracle.CombinationalOracle` goes
  (:mod:`repro.serve.client`);
* one server process, :class:`OracleServer`, answering each connection
  in lockstep on one event-loop thread (:mod:`repro.serve.server`).

Quick taste::

    from repro.serve import OracleServer, RemoteOracle, ThreadedServer

    with ThreadedServer(OracleServer()) as (host, port):
        oracle = RemoteOracle((host, port), circuit=original)
        result = sat_attack(locked, oracle)   # identical key + counts
"""

from .admission import AdmissionConfig, AdmissionController
from .batcher import BatchConfig, DynamicBatcher
from .client import (
    RemoteOracle,
    ServeConnection,
    adopt_remote_trace,
    parse_address,
)
from .protocol import (
    DeadlineExceededError,
    OverloadedError,
    ProtocolError,
    QueryBudgetExceededError,
    ServeError,
    ShuttingDownError,
    UnknownCircuitError,
)
from .registry import (
    CircuitRegistry,
    RegisteredCircuit,
    circuit_content_id,
    default_registry,
)
from .server import (
    OracleServer,
    ServerConfig,
    ThreadedServer,
    registration_view,
)

__all__ = [
    "AdmissionConfig", "AdmissionController",
    "BatchConfig", "DynamicBatcher",
    "RemoteOracle", "ServeConnection", "parse_address",
    "adopt_remote_trace",
    "ServeError", "ProtocolError", "OverloadedError", "ShuttingDownError",
    "DeadlineExceededError", "UnknownCircuitError",
    "QueryBudgetExceededError",
    "CircuitRegistry", "RegisteredCircuit", "circuit_content_id",
    "default_registry",
    "OracleServer", "ServerConfig", "ThreadedServer", "registration_view",
]
