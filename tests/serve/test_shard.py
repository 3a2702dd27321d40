"""Sharded serving: ownership, e2e routing, crash supervision.

The fault-injection tests SIGKILL a live worker process mid-request and
assert the supervision contract: **zero lost responses** — every
retryable request is transparently re-sent to the respawned worker
(with its registrations replayed and its budget floor ratcheted), and a
request marked ``no_retry`` surfaces the typed, retryable
``worker-crashed`` wire error instead of hanging.

Synchronization is event-based throughout: cross-process conditions are
awaited with ``eventually`` (bounded condition polling — latency-only
sensitivity), never fixed sleeps.
"""

import asyncio
import hashlib
import os
import signal
import threading

import pytest

from repro.attacks.oracle import CombinationalOracle
from repro.serve import (
    BatchConfig,
    OracleServer,
    QueryBudgetExceededError,
    RemoteOracle,
    ServerConfig,
    ThreadedServer,
    WorkerCrashedError,
    circuit_content_id,
    owner_index,
    registration_view,
)
from repro.serve import supervisor as supervisor_module
from repro.serve.client import query_answer, query_request

from tests.serve.conftest import bench_text, build_chain, eventually


@pytest.fixture(autouse=True)
def fast_heartbeats(monkeypatch):
    monkeypatch.setattr(supervisor_module, "HEARTBEAT_S", 0.1)


# ----------------------------------------------------------------------
# Ownership units
# ----------------------------------------------------------------------

def _content_ids(count):
    return [hashlib.sha256(f"key-{i}".encode()).hexdigest()
            for i in range(count)]


class TestHashRing:
    """Ownership: a circuit's content ID modulo the worker count."""

    def test_deterministic_across_instances(self):
        first = OracleServer(config=ServerConfig(workers=4)).supervisor
        second = OracleServer(config=ServerConfig(workers=4)).supervisor
        keys = _content_ids(200)
        assert [first.owner_index(k) for k in keys] == \
            [second.owner_index(k) for k in keys] == \
            [owner_index(k, 4) for k in keys]

    def test_owners_in_range_and_all_workers_used(self):
        owners = {owner_index(k, 8) for k in _content_ids(2000)}
        assert owners == set(range(8))

    def test_single_worker_owns_everything(self):
        assert {owner_index(k, 1) for k in _content_ids(50)} == {0}

    def test_validation(self):
        """An ID no ``register`` named is refused by the front end
        itself, hex or not: no worker could hold it."""
        server = OracleServer(config=ServerConfig(workers=2))
        for circuit_id in ("nope", "ab" * 32):
            response = asyncio.run(server.handle(
                query_request(circuit_id, ["a"], [{"a": 0}])))
            assert response["error"]["code"] == "unknown-circuit"
        assert all(worker.process is None
                   for worker in server.supervisor.workers)


# ----------------------------------------------------------------------
# Shared helpers
# ----------------------------------------------------------------------

def served_cid(circuit) -> str:
    """The content ID the server will assign this circuit when a client
    registers it — the supervisor's routing pipeline, run locally."""
    view, _ = registration_view(
        {"netlist": bench_text(circuit), "name": circuit.name}
    )
    return circuit_content_id(view)


def chains_covering_workers(workers: int, per_worker: int = 1):
    """Deterministic circuits whose owners cover every worker.

    Ownership is deterministic, so this scan always picks the same
    chain lengths — no flaky dependence on which worker random
    circuits happen to land on.
    """
    found = {w: [] for w in range(workers)}
    for length in range(1, 400):
        circuit = build_chain(f"cov{length}", length)
        owner = owner_index(served_cid(circuit), workers)
        if len(found[owner]) < per_worker:
            found[owner].append(circuit)
        if all(len(group) >= per_worker for group in found.values()):
            return found
    raise AssertionError(f"could not cover {workers} workers")  # pragma: no cover


def sharded_server(**overrides) -> OracleServer:
    defaults = dict(workers=2)
    defaults.update(overrides)
    return OracleServer(config=ServerConfig(**defaults))


# ----------------------------------------------------------------------
# End-to-end routing
# ----------------------------------------------------------------------

class TestShardedServing:
    def test_roundtrip_covers_every_worker(self):
        """Circuits owned by different workers all answer correctly
        through the one supervisor endpoint."""
        coverage = chains_covering_workers(workers=2)
        server = sharded_server()
        supervisor = server.supervisor
        with ThreadedServer(server) as address:
            for owner, circuits in coverage.items():
                for circuit in circuits:
                    local = CombinationalOracle(circuit)
                    remote = RemoteOracle(address, circuit=circuit)
                    assert supervisor.owner_index(remote.circuit_id) == owner
                    for value in (0, 1):
                        assert (remote.query({"a": value})
                                == local.query({"a": value}))
                    assert remote.query_count == local.query_count == 2
                    assert remote.server_query_count == 2

    def test_ownership_is_exclusive(self):
        """The invariant itself: a circuit's registry entry exists in
        exactly the owning worker's process (the others never saw it)."""
        coverage = chains_covering_workers(workers=2)
        server = sharded_server()
        with ThreadedServer(server) as address:
            circuit = coverage[0][0]
            remote = RemoteOracle(address, circuit=circuit)
            remote.query({"a": 1})
            stats = remote.stats()
            sizes = [entry["server"]["registry"]["size"]
                     for entry in stats["workers"]]
            assert sizes == [1, 0]  # owner holds it; its peer never saw it
            assert stats["rollup"]["registry_size"] == 1
            assert stats["rollup"]["query_counts"] == {remote.circuit_id: 1}

    def test_stats_rollup_aggregates_workers(self):
        coverage = chains_covering_workers(workers=2)
        server = sharded_server()
        with ThreadedServer(server) as address:
            oracles = [RemoteOracle(address, circuit=group[0])
                       for group in coverage.values()]
            for oracle in oracles:
                oracle.query_batch([{"a": 0}, {"a": 1}, {"a": 0}])
            stats = oracles[0].stats()
            assert stats["sharded"] is True
            assert stats["supervisor"]["workers"] == 2
            assert stats["supervisor"]["workers_alive"] == 2
            assert stats["supervisor"]["registered_circuits"] == 2
            assert len(stats["workers"]) == 2
            assert stats["rollup"]["lanes_total"] == 6
            counts = stats["rollup"]["query_counts"]
            assert counts == {o.circuit_id: 3 for o in oracles}

    def test_budget_enforced_through_the_shard(self):
        """Worker-side budget refusal crosses the supervisor verbatim
        as the same typed error a single-process server raises."""
        circuit = build_chain("budgeted", 4)
        server = sharded_server()
        with ThreadedServer(server) as address:
            remote = RemoteOracle(address, circuit=circuit, budget=2)
            remote.query({"a": 0})
            remote.query({"a": 1})
            with pytest.raises(QueryBudgetExceededError):
                remote.query({"a": 0})
            assert remote.server_query_count == 2

    def test_unknown_op_and_describe_routing(self):
        circuit = build_chain("desc", 5)
        server = sharded_server()
        with ThreadedServer(server) as address:
            first = RemoteOracle(address, circuit=circuit)
            # describe-by-id routes to the same owner (second client
            # attaching to an already-hosted circuit).
            second = RemoteOracle(address, circuit_id=first.circuit_id)
            assert second.inputs == first.inputs
            assert second.connection.ping()

    def test_drain_terminates_the_fleet(self):
        server = sharded_server()
        threaded = ThreadedServer(server)
        threaded.start()
        processes = [worker.process for worker in server.supervisor.workers]
        assert all(p.is_alive() for p in processes)
        threaded.stop()
        assert all(not p.is_alive() for p in processes)


# ----------------------------------------------------------------------
# Fault injection: SIGKILL mid-batch
# ----------------------------------------------------------------------

class TestWorkerSupervision:
    def _kill_owner_mid_flight(self, no_retry: bool):
        """Park a query in the owner worker's batching window, SIGKILL
        the worker while it is in flight, and return what the client
        got back.  Deterministic: the 2s window guarantees the request
        is still unanswered when the kill lands (`eventually` confirms
        it reached the worker first)."""
        circuit = build_chain("victim", 6)
        local = CombinationalOracle(circuit)
        server = sharded_server(
            workers=2,
            batch=BatchConfig(max_batch=64, window_s=2.0),
        )
        supervisor = server.supervisor
        outcome = {}
        with ThreadedServer(server) as address:
            remote = RemoteOracle(address, circuit=circuit, timeout_s=60.0)
            owner = supervisor.owner_index(remote.circuit_id)
            handle = supervisor.workers[owner]
            victim_pid = handle.pid

            def client():
                request = query_request(remote.circuit_id, remote.inputs,
                                        [{"a": 1}])
                if no_retry:
                    request["no_retry"] = True
                try:
                    outcome["response"] = remote.connection.request(request)
                except Exception as exc:  # noqa: BLE001 - recorded for asserts
                    outcome["error"] = exc

            thread = threading.Thread(target=client)
            thread.start()

            async def kill_when_inflight():
                # The request is observably in flight to the owner...
                await eventually(lambda: handle.inflight, timeout_s=10.0)
                # ...and still unanswered (2s window).  Pull the trigger.
                os.kill(victim_pid, signal.SIGKILL)
                # Supervision must notice, respawn, and settle the fate
                # of the in-flight request either way.
                await eventually(
                    lambda: supervisor.respawned_total >= 1, timeout_s=10.0
                )

            asyncio.run_coroutine_threadsafe(
                kill_when_inflight(), supervisor_loop(supervisor)
            ).result(timeout=30.0)
            thread.join(timeout=30.0)
            assert not thread.is_alive(), "client never got an answer"
            outcome["respawned_pid"] = supervisor.workers[owner].pid
            outcome["victim_pid"] = victim_pid
            outcome["handle"] = handle
            outcome["expected"] = local.query({"a": 1})
            outcome["outputs"] = remote.outputs
        return outcome

    def test_sigkill_mid_batch_retries_transparently(self):
        """Retryable request: the client blocks through the crash and
        receives the correct answer from the respawned worker — zero
        lost responses, no typed error, counts intact."""
        outcome = self._kill_owner_mid_flight(no_retry=False)
        assert "error" not in outcome, outcome.get("error")
        response = outcome["response"]
        assert response["ok"] is True
        assert query_answer(response, outcome["outputs"])[0] == \
            outcome["expected"]
        # Replayed registration + retried query: charged exactly once.
        assert response["query_count"] == 1
        assert outcome["respawned_pid"] != outcome["victim_pid"]
        assert outcome["handle"].retried_requests == 1

    def test_sigkill_with_no_retry_surfaces_typed_error(self):
        """Non-retryable request: the typed ``worker-crashed`` wire
        error crosses to the client as WorkerCrashedError (retryable
        flag set), never a hang or a silent drop."""
        outcome = self._kill_owner_mid_flight(no_retry=True)
        assert "response" not in outcome
        error = outcome["error"]
        assert isinstance(error, WorkerCrashedError)
        assert error.retryable is True
        assert outcome["handle"].crash_failures == 1
        # The worker was still respawned for future traffic.
        assert outcome["respawned_pid"] != outcome["victim_pid"]

    def test_kill_under_concurrent_load_loses_nothing(self):
        """Several clients streaming queries while the owner dies:
        every single response arrives and is bit-correct."""
        circuit = build_chain("loaded", 7)
        local = CombinationalOracle(circuit)
        server = sharded_server(workers=2)
        supervisor = server.supervisor
        clients, per_client = 3, 15
        results = {}
        with ThreadedServer(server) as address:
            seed_oracle = RemoteOracle(address, circuit=circuit,
                                       timeout_s=60.0)
            owner = supervisor.owner_index(seed_oracle.circuit_id)
            victim_pid = supervisor.workers[owner].pid
            started = threading.Barrier(clients + 1)

            def client(index):
                oracle = RemoteOracle(address,
                                      circuit_id=seed_oracle.circuit_id,
                                      timeout_s=60.0)
                started.wait()
                answers = []
                for i in range(per_client):
                    pattern = {"a": (index + i) % 2}
                    answers.append((pattern, oracle.query(pattern)))
                results[index] = answers

            threads = [threading.Thread(target=client, args=(i,))
                       for i in range(clients)]
            for thread in threads:
                thread.start()
            started.wait()  # all clients streaming now
            os.kill(victim_pid, signal.SIGKILL)
            for thread in threads:
                thread.join(timeout=60.0)
                assert not thread.is_alive(), "a client lost its response"
            assert supervisor.respawned_total >= 1
        assert len(results) == clients
        for answers in results.values():
            assert len(answers) == per_client  # zero lost responses
            for pattern, answer in answers:
                assert answer == local.query(pattern)

    def test_budget_floor_survives_the_crash(self):
        """Budget enforcement cannot be reset by crashing the worker:
        the replayed registration ratchets the observed count, so a
        post-crash client still hits the budget wall."""
        circuit = build_chain("ratchet", 8)
        server = sharded_server(workers=2)
        supervisor = server.supervisor
        with ThreadedServer(server) as address:
            remote = RemoteOracle(address, circuit=circuit, budget=3,
                                  timeout_s=60.0)
            remote.query({"a": 0})
            remote.query({"a": 1})  # 2 of 3 spent
            owner = supervisor.owner_index(remote.circuit_id)
            victim_pid = supervisor.workers[owner].pid
            os.kill(victim_pid, signal.SIGKILL)
            # The next query rides through recovery; the restored ledger
            # must still remember the 2 spent queries.
            assert remote.query({"a": 0}) is not None  # 3 of 3
            with pytest.raises(QueryBudgetExceededError):
                remote.query({"a": 1})
            assert remote.server_query_count == 3


def supervisor_loop(supervisor):
    """The event loop the supervisor's heartbeat task runs on."""
    return supervisor._heartbeat_task.get_loop()
