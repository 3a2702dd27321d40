"""Batcher stress: concurrent expiry, mid-flush disconnects, soak.

The invariant under attack in every test: **no lost and no
double-charged lanes**.  Whatever mixture of deadline expiry, client
cancellation, and budget refusal a flush hits, every admitted lane must
be released exactly once (the admission ledger returns to idle) and the
registry must be charged exactly once per *evaluated* lane — never for
an expired, cancelled, or refused one.

All timing is driven by an injected :class:`FakeClock` and explicit
flushes, and all synchronization is event-based (`wait_idle`,
`gather`), so the suite is deterministic under arbitrary scheduler
load.
"""

import asyncio
import random

from repro.serve import QueryBudgetExceededError

from tests.serve.conftest import FakeClock, build_chain, make_batcher, submit


def test_concurrent_deadline_expiry_exact_accounting(registry):
    """Many requests, mixed deadlines, one flush: lane-exact accounting."""
    entry = registry.register(build_chain())
    clock = FakeClock()
    batcher, admission = make_batcher(
        registry, max_batch=10_000, window_s=60.0, clock=clock,
        max_pending=10_000,
    )
    rng = random.Random(2024)

    async def scenario():
        tasks, expired_lanes, live_lanes = [], 0, 0
        for _ in range(200):
            lanes = rng.randint(1, 3)
            patterns = [{"a": rng.randint(0, 1)} for _ in range(lanes)]
            # 10ms deadlines will expire below; 10s ones will not.
            if rng.random() < 0.5:
                deadline_ms, expired = 10, True
                expired_lanes += lanes
            else:
                deadline_ms, expired = 10_000, False
                live_lanes += lanes
            tasks.append((expired, lanes, asyncio.create_task(
                submit(batcher, entry, patterns, deadline_ms)
            )))
        await asyncio.sleep(0)  # let every submit enqueue
        assert batcher.pending_lanes == expired_lanes + live_lanes
        clock.advance(1.0)  # every 10ms deadline lapses, no 10s one does
        batcher.flush_all()
        settled = await admission.wait_idle(timeout_s=10.0)
        assert settled is True
        for expired, lanes, task in tasks:
            if expired:
                assert task.exception() is not None
            else:
                assert len(task.result()) == lanes
        return expired_lanes, live_lanes

    expired_lanes, live_lanes = asyncio.run(scenario())
    total = expired_lanes + live_lanes
    assert admission.admitted == total
    assert admission.completed == total        # every lane released once
    assert admission.expired == expired_lanes  # and counted once
    assert admission.idle
    assert batcher.lanes_total == live_lanes   # expired lanes cost nothing
    assert batcher.pending_lanes == 0
    # ...and the budget ledger was charged only for evaluated lanes.
    assert registry.query_count(entry.circuit_id) == live_lanes


def test_client_disconnect_mid_flush_no_lost_or_double_charged(registry):
    """Cancelled clients neither stall the batch nor distort accounting.

    A dropped connection cancels the dispatch task, which cancels the
    request future the batcher holds; the flush must skip those lanes
    (no evaluation charge) while still answering every survivor.
    """
    entry = registry.register(build_chain())
    batcher, admission = make_batcher(
        registry, max_batch=10_000, window_s=60.0, max_pending=10_000,
    )
    rng = random.Random(7)

    async def scenario():
        tasks = []
        for i in range(120):
            patterns = [{"a": (i + j) % 2} for j in range(rng.randint(1, 2))]
            tasks.append(asyncio.create_task(
                submit(batcher, entry, patterns)
            ))
        await asyncio.sleep(0)  # everything parked in one pending batch
        dropped = [t for t in tasks if rng.random() < 0.4]
        for task in dropped:
            task.cancel()  # the client hung up mid-window
        await asyncio.sleep(0)  # let cancellations land before the flush
        batcher.flush_all()
        settled = await admission.wait_idle(timeout_s=10.0)
        assert settled is True
        results = await asyncio.gather(*tasks, return_exceptions=True)
        survivors = 0
        for task, result in zip(tasks, results):
            if task in set(dropped):
                assert isinstance(result, asyncio.CancelledError)
            else:
                assert isinstance(result, list) and result
                survivors += len(result)
        return survivors

    survivors = asyncio.run(scenario())
    assert survivors > 0
    assert admission.admitted == admission.completed  # released exactly once
    assert admission.idle
    assert batcher.lanes_total == survivors
    # Cancelled lanes were never evaluated, so never budget-charged.
    assert registry.query_count(entry.circuit_id) == survivors


def test_soak_mixed_failure_modes_converge_to_idle(registry):
    """Rounds of expiry + disconnect + budget refusal, seeded; the
    ledger must return to idle after every round and the registry's
    charge must equal exactly the delivered lanes."""
    budget = 150
    entry = registry.register(build_chain(), budget=budget)
    clock = FakeClock()
    batcher, admission = make_batcher(
        registry, max_batch=10_000, window_s=60.0, clock=clock,
        max_pending=10_000,
    )
    rng = random.Random(99)

    async def scenario():
        delivered = 0
        for _ in range(30):
            tasks = []
            for _ in range(20):
                patterns = [{"a": rng.randint(0, 1)}
                            for _ in range(rng.randint(1, 3))]
                deadline_ms = 10 if rng.random() < 0.3 else None
                tasks.append(asyncio.create_task(
                    submit(batcher, entry, patterns, deadline_ms)
                ))
            await asyncio.sleep(0)
            for task in tasks:
                if rng.random() < 0.2:
                    task.cancel()
            await asyncio.sleep(0)
            clock.advance(1.0)  # expire this round's short deadlines
            batcher.flush_all()
            assert await admission.wait_idle(timeout_s=10.0)
            assert admission.idle  # per-round convergence, not just final
            for result in await asyncio.gather(*tasks,
                                               return_exceptions=True):
                if isinstance(result, list):
                    delivered += len(result)
        return delivered

    delivered = asyncio.run(scenario())
    assert delivered > 0
    assert admission.admitted == admission.completed
    assert batcher.pending_lanes == 0
    # Budget-refused requests (QueryBudgetExceededError, once the 150
    # charge cap is hit) must not have been charged either: the charge
    # equals delivered lanes exactly, and never exceeds the budget.
    assert registry.query_count(entry.circuit_id) == delivered
    assert delivered <= budget


def test_budget_exhaustion_mid_batch_is_not_double_charged(registry):
    """The request straddling the budget is refused atomically."""
    entry = registry.register(build_chain(), budget=3)
    batcher, admission = make_batcher(registry, max_batch=10_000,
                                      window_s=60.0, max_pending=10_000)

    async def scenario():
        tasks = [
            asyncio.create_task(
                submit(batcher, entry, [{"a": 1}, {"a": 0}])
            )
            for _ in range(3)  # 6 lanes against a budget of 3
        ]
        await asyncio.sleep(0)
        batcher.flush_all()
        assert await admission.wait_idle(timeout_s=10.0)
        return await asyncio.gather(*tasks, return_exceptions=True)

    results = asyncio.run(scenario())
    # Arrival order: first fits (2), second would cross 3 -> refused,
    # third would too.  No partial charge from a refused request.
    assert isinstance(results[0], list)
    assert isinstance(results[1], QueryBudgetExceededError)
    assert isinstance(results[2], QueryBudgetExceededError)
    assert registry.query_count(entry.circuit_id) == 2
    assert admission.idle
