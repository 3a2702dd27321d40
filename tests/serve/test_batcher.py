"""Dynamic batching edge cases: windows, width splits, deadlines, drain.

Each test drives the batcher directly over the in-process registry —
no sockets — inside its own ``asyncio.run`` event loop.
"""

import asyncio

import pytest

from repro.netlist.compiled import PlaneBatch
from repro.serve import (
    DeadlineExceededError,
    OverloadedError,
    QueryBudgetExceededError,
    UnknownCircuitError,
)

from tests.serve.conftest import FakeClock, build_chain, make_batcher, submit


def expected_outputs(entry, patterns):
    """Reference answers straight from the compiled evaluator."""
    return entry.compiled.query_outputs(patterns)


def test_single_request_flushes_at_window_deadline(registry):
    """A lone request must not wait for a full batch: the window flushes it."""
    entry = registry.register(build_chain())
    batcher, _ = make_batcher(registry, max_batch=64, window_s=0.01)

    async def scenario():
        return await submit(batcher, entry, [{"a": 1}])

    outputs = asyncio.run(scenario())
    assert outputs == expected_outputs(entry, [{"a": 1}])
    assert batcher.batches == 1
    assert batcher.window_batches == 1
    assert batcher.full_batches == 0


def test_65_concurrent_requests_split_64_plus_1(registry):
    """Width trigger: lane 65 starts a second batch, flushed by its window."""
    entry = registry.register(build_chain())
    batcher, admission = make_batcher(registry, max_batch=64, window_s=0.02)
    patterns = [{"a": i % 2} for i in range(65)]

    async def scenario():
        tasks = [
            asyncio.create_task(submit(batcher, entry, [p]))
            for p in patterns
        ]
        return await asyncio.gather(*tasks)

    results = asyncio.run(scenario())
    flat = [r for result in results for r in result]
    assert flat == expected_outputs(entry, patterns)
    assert batcher.batches == 2
    assert batcher.full_batches == 1
    assert batcher.window_batches == 1
    assert batcher.occupancy.max == 64
    assert batcher.lanes_total == 65
    assert admission.idle


def test_65_patterns_at_width_64_vs_128_identical_accounting(
        registry, pass_masks):
    """The off-by-width regression pair: the same 65 single-pattern
    requests take **two flushes at max_batch 64** (width trigger at lane
    64, window for the straggler) but **one flush at max_batch 128**
    (window only), which is one 65-lane pass — and every observable
    except the flush split is identical: same answers, same
    lanes_total, same cumulative query count.
    """
    from repro.serve import CircuitRegistry

    patterns = [{"a": i % 2} for i in range(65)]

    async def drive(batcher, entry):
        tasks = [
            asyncio.create_task(submit(batcher, entry, [p]))
            for p in patterns
        ]
        return [r for result in await asyncio.gather(*tasks) for r in result]

    # Width 64: the default (also pinned by the split-64-plus-1 test
    # above).
    entry64 = registry.register(build_chain())
    narrow, _ = make_batcher(registry, max_batch=64, window_s=0.02)
    narrow_results = asyncio.run(drive(narrow, entry64))
    assert narrow.batches == 2
    assert narrow.lanes_total == 65

    # Width 128: same request stream through a second registry at
    # max_batch=128 — a single window flush, evaluated in one pass.
    wide_registry = CircuitRegistry()
    entry128 = wide_registry.register(build_chain())
    wide, _ = make_batcher(wide_registry, max_batch=128, window_s=0.02)
    del pass_masks[:]
    wide_results = asyncio.run(drive(wide, entry128))
    assert pass_masks == [(1 << 65) - 1]
    assert wide.batches == 1
    assert wide.full_batches == 0
    assert wide.window_batches == 1
    assert wide.occupancy.max == 65
    assert wide.lanes_total == 65

    # Identical accounting and identical answers, flush split aside.
    assert wide_results == narrow_results == expected_outputs(
        entry64, patterns)
    assert registry.query_count(entry64.circuit_id) == 65
    assert wide_registry.query_count(entry128.circuit_id) == 65


def test_max_batch_defaults_to_64(registry):
    """With no ``max_batch`` a flush fills one 64-lane pass: the width a
    64-pattern query fills alone."""
    from repro.serve import AdmissionController, BatchConfig, DynamicBatcher

    batcher = DynamicBatcher(registry, AdmissionController())
    assert BatchConfig().max_batch == batcher.max_batch == 64
    assert batcher.stats()["max_batch"] == 64


@pytest.mark.parametrize("config", [{"max_batch": 0},
                                    {"window_s": -0.001}],
                         ids=["max-batch-0", "negative-window"])
def test_batch_config_refuses_out_of_range_values(config):
    from repro.serve import BatchConfig

    with pytest.raises(ValueError):
        BatchConfig(**config)


def test_mixed_circuits_are_never_cobatched(registry):
    """Queries against different circuits keep separate pending queues."""
    first = registry.register(build_chain("first", 2))
    second = registry.register(build_chain("second", 3))
    assert first.circuit_id != second.circuit_id
    batcher, _ = make_batcher(registry, max_batch=64, window_s=0.01)

    async def scenario():
        tasks = []
        for i in range(3):  # interleave the two circuits
            tasks.append(asyncio.create_task(
                submit(batcher, first, [{"a": i % 2}])))
            tasks.append(asyncio.create_task(
                submit(batcher, second, [{"a": i % 2}])))
        return await asyncio.gather(*tasks)

    results = asyncio.run(scenario())
    # chain(2) buffers, chain(3) inverts: co-batching would corrupt one.
    for i in range(3):
        assert results[2 * i][0]["y"] == i % 2
        assert results[2 * i + 1][0]["y"] == 1 - i % 2
    assert batcher.batches == 2  # one flush per circuit, never merged
    assert batcher.occupancy.max == 3


def test_expired_request_rejected_with_typed_error(registry):
    """A deadline that lapses before the flush costs no evaluation.

    Driven by an injected fake clock: the deadline "passes" because the
    test advances the controller's clock, not because the test slept —
    deterministic regardless of scheduler load.
    """
    entry = registry.register(build_chain())
    clock = FakeClock()
    # Window long enough that only the explicit flush below can fire.
    batcher, admission = make_batcher(registry, max_batch=64, window_s=60.0,
                                      clock=clock)

    async def scenario():
        task = asyncio.create_task(
            submit(batcher, entry, [{"a": 0}], deadline_ms=10)
        )
        await asyncio.sleep(0)  # let the submit enqueue
        assert batcher.pending_lanes == 1
        clock.advance(0.5)  # sail past the 10ms deadline instantly
        batcher.flush_all()
        with pytest.raises(DeadlineExceededError):
            await task

    asyncio.run(scenario())
    assert batcher.rejected_expired == 1
    assert batcher.lanes_total == 0  # nothing was evaluated
    assert admission.expired == 1
    assert admission.idle  # the slot was released despite the rejection


def test_drain_completes_inflight_requests(registry):
    """Shutdown flushes pending batches instead of abandoning them."""
    entry = registry.register(build_chain())
    # A window long enough that only drain() can flush these.
    batcher, admission = make_batcher(registry, max_batch=64, window_s=30.0)

    async def scenario():
        tasks = [
            asyncio.create_task(submit(batcher, entry, [{"a": v}]))
            for v in (0, 1, 0)
        ]
        await asyncio.sleep(0)  # let every submit enqueue
        assert batcher.pending_lanes == 3
        settled = await batcher.drain(timeout_s=5.0)
        return settled, await asyncio.gather(*tasks)

    settled, results = asyncio.run(scenario())
    assert settled is True
    flat = [r for result in results for r in result]
    assert flat == expected_outputs(entry, [{"a": 0}, {"a": 1}, {"a": 0}])
    assert admission.idle
    assert batcher.pending_lanes == 0


def test_budget_charged_in_arrival_order(registry):
    """The request that crosses the budget is refused; earlier ones answer."""
    entry = registry.register(build_chain(), budget=2)
    batcher, _ = make_batcher(registry, max_batch=64, window_s=0.01)

    async def scenario():
        tasks = [
            asyncio.create_task(submit(batcher, entry, [{"a": 1}]))
            for _ in range(3)
        ]
        return await asyncio.gather(*tasks, return_exceptions=True)

    results = asyncio.run(scenario())
    assert isinstance(results[0], list) and isinstance(results[1], list)
    assert isinstance(results[2], QueryBudgetExceededError)
    assert registry.query_count(entry.circuit_id) == 2


def test_multi_pattern_request_fills_lanes(registry):
    """A request's lane footprint is its pattern count, not one."""
    entry = registry.register(build_chain())
    batcher, _ = make_batcher(registry, max_batch=4, window_s=5.0)

    async def scenario():
        first = asyncio.create_task(
            submit(batcher, entry, [{"a": 0}, {"a": 1}]))
        second = asyncio.create_task(
            submit(batcher, entry, [{"a": 1}, {"a": 0}]))
        return await asyncio.gather(first, second)

    results = asyncio.run(scenario())
    assert batcher.batches == 1  # 2 + 2 lanes hit max_batch=4: width flush
    assert batcher.full_batches == 1
    assert [r["y"] for r in results[0]] == [1, 0]
    assert [r["y"] for r in results[1]] == [0, 1]


def test_failed_flush_fails_every_live_request(registry, monkeypatch):
    """A raise after budget charging (here in the concat) reaches every
    co-batched request; none is left waiting on its future."""
    entry = registry.register(build_chain())
    batcher, admission = make_batcher(registry, max_batch=64, window_s=0.01)

    def broken(batches):
        raise RuntimeError("concat failed")

    monkeypatch.setattr(PlaneBatch, "concat", broken)

    async def scenario():
        tasks = [asyncio.create_task(submit(batcher, entry, [{"a": v}]))
                 for v in (0, 1)]
        return await asyncio.wait_for(
            asyncio.gather(*tasks, return_exceptions=True), timeout=10.0)

    results = asyncio.run(scenario())
    assert [str(r) for r in results] == ["concat failed"] * 2
    assert all(isinstance(r, RuntimeError) for r in results)
    assert admission.idle
    assert batcher.pending_lanes == 0


def test_unknown_circuit_fails_before_admission(registry):
    batcher, admission = make_batcher(registry)

    async def scenario():
        with pytest.raises(UnknownCircuitError):
            await batcher.submit("no-such-circuit",
                                 PlaneBatch.pack(["a"], [{"a": 0}]))

    asyncio.run(scenario())
    assert admission.admitted == 0


def test_overload_rejects_before_enqueue(registry):
    entry = registry.register(build_chain())
    batcher, admission = make_batcher(registry, max_pending=2)

    async def scenario():
        with pytest.raises(OverloadedError):
            await submit(batcher, entry, [{"a": 0}] * 3)

    asyncio.run(scenario())
    assert batcher.pending_lanes == 0
    assert admission.rejected_overload == 1


def test_empty_request_is_a_noop(registry):
    entry = registry.register(build_chain())
    batcher, admission = make_batcher(registry)

    async def scenario():
        return await submit(batcher, entry, [])

    assert asyncio.run(scenario()) == []
    assert admission.admitted == 0
    assert batcher.batches == 0


def test_stats_shape(registry):
    entry = registry.register(build_chain())
    batcher, _ = make_batcher(registry, max_batch=8, window_s=0.005)

    async def scenario():
        await submit(batcher, entry, [{"a": 1}])

    asyncio.run(scenario())
    stats = batcher.stats()
    assert stats["batches"] == 1
    assert stats["lanes_total"] == 1
    assert stats["occupancy_mean"] == 1.0
    assert stats["occupancy_p50"] == 1.0
    assert stats["max_batch"] == 8
    assert stats["window_ms"] == pytest.approx(5.0)
