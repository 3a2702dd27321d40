"""Shared helpers for the serving-subsystem tests."""

import asyncio
import io

import pytest

from repro.netlist import Builder
from repro.netlist.bench_io import write_bench
from repro.netlist.compiled import PlaneBatch
from repro.serve import (
    AdmissionConfig,
    AdmissionController,
    BatchConfig,
    CircuitRegistry,
    DynamicBatcher,
)


def build_chain(name="chain", length=3):
    """An inverter chain — cheap, and ``length`` makes circuits distinct."""
    b = Builder(name)
    (net,) = b.inputs("a")
    for _ in range(length):
        net = b.inv(net)
    b.po(net, "y")
    b.circuit.validate()
    return b.circuit


def bench_text(circuit) -> str:
    """Serialize a circuit the way clients do for ``register``."""
    stream = io.StringIO()
    write_bench(circuit, stream)
    return stream.getvalue()


class FakeClock:
    """Injectable monotonic clock for deterministic deadline tests.

    Drop-in for ``time.monotonic`` on :class:`AdmissionController`:
    deadlines are computed and checked against *this* clock, so a test
    expires requests by calling :meth:`advance` — no wall-clock sleeps,
    no flakiness under load.
    """

    def __init__(self, start: float = 1000.0) -> None:
        self.now = start

    def __call__(self) -> float:
        return self.now

    def advance(self, seconds: float) -> None:
        assert seconds >= 0
        self.now += seconds


async def eventually(condition, timeout_s=10.0, interval_s=0.001):
    """Await *condition()* turning truthy; fail fast on timeout.

    For conditions that have no future/event to await (e.g. another
    process's side effects).  Unlike a fixed ``sleep(N)``, timing
    variance only shifts latency — the assertion itself cannot flake
    unless the condition genuinely never holds within *timeout_s*.
    """
    loop = asyncio.get_running_loop()
    deadline = loop.time() + timeout_s
    while True:
        value = condition()
        if value:
            return value
        if loop.time() > deadline:
            raise AssertionError(
                f"condition {condition!r} not met within {timeout_s}s"
            )
        await asyncio.sleep(interval_s)


@pytest.fixture
def registry():
    return CircuitRegistry()


async def submit(batcher, entry, patterns, deadline_ms=None):
    """``batcher.submit`` for pattern dicts: planes in, dicts out."""
    batch = PlaneBatch.pack(entry.compiled.inputs, patterns)
    outputs = await batcher.submit(entry.circuit_id, batch, deadline_ms)
    return outputs.unpack()


def make_batcher(registry, max_batch=64, window_s=0.01, clock=None,
                 **admission_kwargs):
    """A batcher over *registry* with its own admission controller."""
    kwargs = {} if clock is None else {"clock": clock}
    admission = AdmissionController(AdmissionConfig(**admission_kwargs),
                                    **kwargs)
    batcher = DynamicBatcher(
        registry, admission, BatchConfig(max_batch=max_batch, window_s=window_s)
    )
    return batcher, admission
