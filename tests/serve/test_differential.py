"""Property-based differential suite: every transport, one truth.

The serving stack may batch and widen its lanes — but a served oracle
must stay *observationally identical* to the in-process
:class:`CombinationalOracle` it wraps: bit-identical outputs for every
pattern, and identical query accounting (one count per pattern,
regardless of transport or batching).  These tests generate random
circuits and random patterns (seeded; hypothesis examples are
reproducible) and assert that equivalence across both transports:

* **in-process** — the dispatcher driven directly, no sockets;
* **threaded**  — the asyncio TCP server on its own thread.

A final differential pins the combinational serving view against the
:class:`TimingOracle` (event-driven simulation of the locked design
under the correct key): for a combinational design the settled at-speed
capture must equal the served zero-delay answer.
"""

import asyncio
import random

import pytest
from hypothesis import given, settings, strategies as st

from repro.attacks.oracle import CombinationalOracle, TimingOracle
from repro.bench import GeneratorSpec, random_sequential_circuit
from repro.locking import XorLock
from repro.serve import (
    BatchConfig,
    OracleServer,
    RemoteOracle,
    ServerConfig,
    ThreadedServer,
)
from repro.serve.client import query_answer, query_request

from tests.serve.conftest import bench_text


def generated_circuit(seed: int, num_flip_flops: int = 0):
    """A small random circuit, fully determined by *seed*."""
    spec = GeneratorSpec(
        name=f"diff{seed}ff{num_flip_flops}",
        num_inputs=3 + seed % 5,
        num_outputs=2 + seed % 3,
        num_flip_flops=num_flip_flops,
        num_combinational=20 + (seed * 7) % 40,
        seed=seed,
    )
    return random_sequential_circuit(spec)


def patterns_for(oracle, seed: int, count: int):
    rng = random.Random(seed)
    return [
        {net: rng.randint(0, 1) for net in oracle.inputs}
        for _ in range(count)
    ]


class InProcessOracle:
    """RemoteOracle's accounting over the socketless transport.

    Drives :meth:`OracleServer.handle` directly — the full protocol
    semantics (registration normalization, batching, budgets) minus
    TCP, which makes it the reference point between the local oracle
    and the socketed transport.
    """

    def __init__(self, server: OracleServer, circuit,
                 budget=None) -> None:
        self.server = server
        info = self._request({
            "op": "register",
            "netlist": bench_text(circuit),
            "name": circuit.name,
            "budget": budget,
        })
        self.circuit_id = info["circuit"]
        self.inputs = list(info["inputs"])
        self.outputs = list(info["outputs"])
        self.query_count = 0
        self.server_query_count = int(info.get("query_count", 0))

    def _request(self, request):
        response = asyncio.run(self.server.handle(request))
        if not response.get("ok"):
            from repro.serve.protocol import error_from_payload

            raise error_from_payload(response.get("error", {}))
        return response

    def query_batch(self, assignments):
        response = self._request(
            query_request(self.circuit_id, self.inputs, assignments))
        self.query_count += len(assignments)
        self.server_query_count = int(response["query_count"])
        return query_answer(response, self.outputs)

    def query(self, assignment):
        return self.query_batch([assignment])[0]


@pytest.fixture(scope="module")
def threaded_address():
    with ThreadedServer(OracleServer()) as address:
        yield address


@pytest.fixture(scope="module")
def inprocess_server():
    return OracleServer()


class TestTransportsAgree:
    @given(circuit_seed=st.integers(0, 10_000),
           pattern_seed=st.integers(0, 10_000))
    @settings(max_examples=12, deadline=None)
    def test_outputs_bit_identical_across_transports(
            self, threaded_address, inprocess_server, circuit_seed,
            pattern_seed):
        """Same circuit, same patterns -> byte-equal outputs and equal
        local accounting on every transport."""
        circuit = generated_circuit(circuit_seed)
        local = CombinationalOracle(circuit)
        oracles = [
            InProcessOracle(inprocess_server, circuit),
            RemoteOracle(threaded_address, circuit=circuit),
        ]
        patterns = patterns_for(local, pattern_seed, count=9)
        want = local.query_batch(patterns)
        for oracle in oracles:
            # Mixed call shapes: per-pattern and batched must agree.
            got = [oracle.query(patterns[0])]
            got += oracle.query_batch(patterns[1:])
            assert got == want, f"transport diverged: {oracle!r}"
            assert oracle.query_count == local.query_count
        # Content addressing is transport-independent too.
        assert len({o.circuit_id for o in oracles}) == 1

    @given(circuit_seed=st.integers(0, 10_000))
    @settings(max_examples=8, deadline=None)
    def test_sequential_designs_get_the_same_oracle_view(
            self, threaded_address, inprocess_server, circuit_seed):
        """Registration normalizes a sequential netlist to the same
        combinational core CombinationalOracle extracts: identical
        interface (pseudo-PIs/POs included) on every transport."""
        circuit = generated_circuit(circuit_seed, num_flip_flops=4)
        local = CombinationalOracle(circuit)
        for remote in (InProcessOracle(inprocess_server, circuit),
                       RemoteOracle(threaded_address, circuit=circuit)):
            assert remote.inputs == local.inputs
            assert remote.outputs == local.outputs
            pattern = patterns_for(local, circuit_seed, count=1)[0]
            assert remote.query(pattern) == local.query(pattern)

    @given(seed=st.integers(0, 10_000))
    @settings(max_examples=6, deadline=None)
    def test_server_side_accounting_matches_local(
            self, threaded_address, inprocess_server, seed):
        """The server's cumulative per-circuit count (the ledger budget
        enforcement reads) equals the local oracle's pattern count."""
        circuit = generated_circuit(seed)
        local = CombinationalOracle(circuit)
        for remote in (InProcessOracle(inprocess_server, circuit),
                       RemoteOracle(threaded_address, circuit=circuit)):
            base = remote.server_query_count  # earlier examples may share
            patterns = patterns_for(local, seed + 1, count=7)
            remote.query_batch(patterns[:3])
            remote.query(patterns[3])
            remote.query_batch(patterns[4:])
            assert remote.query_count == len(patterns)
            assert remote.server_query_count == base + len(patterns)

    def test_budget_refusal_is_transport_identical(self):
        """Both transports refuse at exactly the same query index with
        the same typed error."""
        from repro.serve import QueryBudgetExceededError

        circuit = generated_circuit(4242)
        local = CombinationalOracle(circuit)
        patterns = patterns_for(local, 11, count=4)
        outcomes = []
        with ThreadedServer(OracleServer()) as address:
            for remote in (
                InProcessOracle(OracleServer(), circuit, budget=3),
                RemoteOracle(address, circuit=circuit, budget=3),
            ):
                answered = []
                refused_at = None
                for index, pattern in enumerate(patterns):
                    try:
                        answered.append(remote.query(pattern))
                    except QueryBudgetExceededError:
                        refused_at = index
                        break
                outcomes.append((answered, refused_at,
                                 remote.server_query_count))
        assert outcomes[0] == outcomes[1]
        assert outcomes[0][1] == 3  # refused exactly at the budget


class TestWideFlush:
    """Servers flushing more than 64 patterns at once (``max_batch`` >
    64, each flush one pass that wide) must stay observationally
    identical to the local oracle's 64-pattern passes — outputs
    bit-identical, accounting per pattern."""

    def test_wide_flush_agrees_across_transports(self):
        circuit = generated_circuit(777)
        local = CombinationalOracle(circuit)
        patterns = patterns_for(local, 13, count=65)
        want = local.query_batch(patterns)

        # In-process: the 65-pattern request rides one flush.
        wide = ServerConfig(batch=BatchConfig(max_batch=128))
        server = OracleServer(config=wide)
        assert server.batcher.max_batch == 128
        inproc = InProcessOracle(server, circuit)
        assert inproc.query_batch(patterns) == want
        assert inproc.server_query_count == len(patterns)
        assert server.batcher.occupancy.max == 65

        # Threaded: same config behind real sockets.
        with ThreadedServer(OracleServer(config=wide)) as address:
            remote = RemoteOracle(address, circuit=circuit)
            assert remote.query_batch(patterns) == want
            assert remote.server_query_count == len(patterns)
            assert remote.query(patterns[0]) == want[0]


class TestTimingOracleDifferential:
    @pytest.mark.parametrize("seed", [1, 7, 23])
    def test_served_outputs_match_at_speed_capture(self, seed):
        """For a combinational design locked under the correct key, the
        at-speed settled capture (TimingOracle, glitches and all) must
        equal the served zero-delay oracle answer pattern-for-pattern —
        the activated chip is one function however you observe it."""
        circuit = generated_circuit(seed)
        locked = XorLock().lock(circuit, 2, random.Random(seed))
        timing = TimingOracle(locked, clock_period=10.0)
        with ThreadedServer(OracleServer()) as address:
            remote = RemoteOracle(address, circuit=circuit)
            sequence = patterns_for(remote, seed + 100, count=4)
            trace = timing.run(sequence)
            for cycle, pattern in enumerate(sequence):
                served = remote.query(pattern)
                settled = {po: trace.outputs[cycle][po]
                           for po in remote.outputs}
                assert settled == served
        assert timing.run_count == 1
        assert remote.query_count == len(sequence)
