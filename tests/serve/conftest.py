"""Shared helpers for the serving-subsystem tests."""

import contextlib
import io
import os
import re
import subprocess
import sys
import time

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


@contextlib.contextmanager
def serve_process(netlist, directory, *flags, **popen):
    """``python -m repro serve NETLIST --port 0 FLAGS`` in a child
    process, its output in *directory*'s ``serve.out`` and
    ``serve.err``.

    Yields the process and the ``(host, port)`` it prints once it
    serves; fails if it never does, and kills it on the way out if it
    is still running.
    """
    src = os.path.join(os.path.dirname(__file__), os.pardir, os.pardir,
                       "src")
    env = dict(os.environ, PYTHONPATH=os.path.abspath(src),
               PYTHONUNBUFFERED="1")
    out_path = directory / "serve.out"
    with open(out_path, "w") as out, \
            open(directory / "serve.err", "w") as err:
        server = subprocess.Popen(
            [sys.executable, "-m", "repro", "serve", str(netlist),
             "--port", "0", *flags],
            stdout=out, stderr=err, env=env, **popen,
        )
    try:
        deadline = time.monotonic() + 60.0
        while True:
            match = re.search(r"serving \d+ circuit\(s\) on (\S+):(\d+) ",
                              out_path.read_text())
            if match:
                break
            assert server.poll() is None, "server exited before serving"
            assert time.monotonic() < deadline, "server never served"
            time.sleep(0.05)
        yield server, (match.group(1), int(match.group(2)))
    finally:
        if server.poll() is None:
            server.kill()
            server.wait()


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
