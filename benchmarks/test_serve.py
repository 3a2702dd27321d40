"""Throughput of the oracle-serving stack: dynamic batching on vs off.

The scenario the batcher exists for: 64 concurrent clients, each
looping single-pattern queries against the same served circuit — the
shape of a distributed SAT attack's DIP loop.  Both regimes run the
*full* dispatch path (``OracleServer.handle``: plane decode and
validation, admission, budget charge, batcher, compiled evaluation):

* ``batching_on`` — ``max_batch=64``: concurrent queries coalesce into
  64-lane :meth:`CompiledCircuit.query_outputs` passes,
* ``batching_off`` — ``max_batch=1``: every query flushes alone, the
  pre-batcher behaviour.

The circuit is a deep generated oracle (``reduce_dangling`` keeps the
interface at 48 in / 33 out over ~4.6k gates), the regime batching is
built for: per-pattern cost dominated by logic evaluation rather than
by interface marshalling.  A paper benchmark (s1238's combinational
core) rides along as an uasserted secondary datapoint — its shallow,
interface-heavy shape bounds the gain lower.

A second benchmark records the flush-width curve: the deep oracle
served at ``max_batch`` 64 and 256 under one concurrent multi-pattern
load (each flush is one pass as wide as the patterns it holds).

Results land in ``benchmarks/BENCH_serve.json`` (one section per
benchmark, merged).  Guard: on the deep oracle, batching must deliver
at least 8x the unbatched throughput.  Both regimes run on one machine
back to back, so the guards are ratios and machine-independent.
"""

import asyncio
import json
import os
import random
import time

import pytest

from repro.netlist.transform import extract_combinational
from repro.serve.admission import AdmissionConfig
from repro.serve.batcher import BatchConfig
from repro.serve.client import query_request
from repro.serve.server import OracleServer, ServerConfig

_DUMP = os.path.join(os.path.dirname(__file__), "BENCH_serve.json")


def _merge_dump(section, payload):
    """Update one section of BENCH_serve.json, keeping the others."""
    data = {}
    if os.path.exists(_DUMP):
        with open(_DUMP) as stream:
            data = json.load(stream)
        if "circuits" in data:  # pre-sectioned flat layout
            data = {"batching": data}
    data[section] = payload
    with open(_DUMP, "w") as stream:
        json.dump(data, stream, indent=2, sort_keys=True)
        stream.write("\n")

MIN_BATCHING_SPEEDUP = 8.0
CLIENTS = 64
ROUNDS = 8


def _throughput(circuit, max_batch):
    """Patterns/second for 64 concurrent single-pattern clients."""

    async def scenario():
        server = OracleServer(config=ServerConfig(
            batch=BatchConfig(max_batch=max_batch, window_s=0.05),
            admission=AdmissionConfig(max_pending=8192),
        ))
        entry = server.registry.register(circuit)
        rng = random.Random(0x5E4E)
        requests = [
            query_request(entry.circuit_id, entry.compiled.inputs, [
                {net: rng.randint(0, 1) for net in entry.compiled.inputs}
            ])
            for _ in range(CLIENTS)
        ]
        async def client(index, rounds):
            for _ in range(rounds):
                response = await server.handle(requests[index])
                assert response["ok"], response

        # Warm pass off the clock: compiled-IR caches, dict shapes.
        await asyncio.gather(*(client(i, 1) for i in range(CLIENTS)))
        start = time.perf_counter()
        await asyncio.gather(*(client(i, ROUNDS) for i in range(CLIENTS)))
        elapsed = time.perf_counter() - start
        return CLIENTS * ROUNDS / elapsed, server.batcher.stats()

    return asyncio.run(scenario())


@pytest.mark.no_obs
def test_serve_batching_throughput(s1238, deep4k, bench_record):
    deep = deep4k
    shallow = extract_combinational(s1238.circuit).circuit

    results = bench_record(
        {"clients": CLIENTS, "rounds": ROUNDS, "circuits": {}}
    )
    ratios = {}
    for label, circuit in (("deep4k", deep), ("s1238_comb", shallow)):
        on_pps, on_stats = _throughput(circuit, max_batch=64)
        off_pps, off_stats = _throughput(circuit, max_batch=1)
        ratios[label] = on_pps / off_pps
        results["circuits"][label] = {
            "gates": len(circuit.gates),
            "inputs": len(circuit.inputs),
            "outputs": len(circuit.outputs),
            "patterns_per_second": {
                "batching_on": round(on_pps, 1),
                "batching_off": round(off_pps, 1),
            },
            "speedup": round(on_pps / off_pps, 2),
            "batches_on": on_stats["batches"],
            "batches_off": off_stats["batches"],
            "occupancy_mean_on": on_stats["occupancy_mean"],
        }

    _merge_dump("batching", results)
    print(f"\nBENCH_serve: {json.dumps({k: round(v, 1) for k, v in ratios.items()})}")

    assert ratios["deep4k"] >= MIN_BATCHING_SPEEDUP, (
        f"batching delivers only {ratios['deep4k']:.1f}x on the deep "
        f"oracle (need {MIN_BATCHING_SPEEDUP:.0f}x)"
    )


# ----------------------------------------------------------------------
# Serve-level flush width curve
# ----------------------------------------------------------------------

FLUSH_WIDTHS = (64, 256)
WIDE_CLIENTS = 64
WIDE_PATTERNS = 4           # 64 clients x 4 patterns = 256 lanes in flight
WIDE_ROUNDS = 6


def _flush_throughput(circuit, max_batch):
    """Patterns/second through the full dispatch path at one flush
    width: the configuration ``repro serve --max-batch`` produces."""

    async def scenario():
        server = OracleServer(config=ServerConfig(
            batch=BatchConfig(max_batch=max_batch, window_s=0.05),
            admission=AdmissionConfig(max_pending=8192),
        ))
        entry = server.registry.register(circuit)
        rng = random.Random(0x1A4E5)
        requests = [
            query_request(entry.circuit_id, entry.compiled.inputs, [
                {net: rng.randint(0, 1) for net in entry.compiled.inputs}
                for _ in range(WIDE_PATTERNS)
            ])
            for _ in range(WIDE_CLIENTS)
        ]
        async def client(index, rounds):
            for _ in range(rounds):
                response = await server.handle(requests[index])
                assert response["ok"], response

        await asyncio.gather(*(client(i, 1) for i in range(WIDE_CLIENTS)))
        start = time.perf_counter()
        await asyncio.gather(
            *(client(i, WIDE_ROUNDS) for i in range(WIDE_CLIENTS))
        )
        elapsed = time.perf_counter() - start
        pps = WIDE_CLIENTS * WIDE_ROUNDS * WIDE_PATTERNS / elapsed
        return pps, server.batcher.stats()

    return asyncio.run(scenario())


@pytest.mark.no_obs
def test_serve_flush_width_curve(deep4k, bench_record):
    """End-to-end flush-width-vs-throughput: the deep oracle served at
    ``max_batch`` 64 and 256 under the same concurrent multi-pattern
    workload.  A wider flush is one wider pass, which amortizes the
    schedule walk over more patterns; the gain is recorded, and wide
    serving must at least hold the line (the compiled-IR curve in
    BENCH_compiled.json carries the asserted 2x — this one includes
    protocol framing, which widening cannot shrink)."""
    curve = {}
    stats = {}
    for width in FLUSH_WIDTHS:
        curve[width], stats[width] = _flush_throughput(deep4k, width)

    results = bench_record({
        "circuit": "deep4k",
        "clients": WIDE_CLIENTS,
        "rounds": WIDE_ROUNDS,
        "patterns_per_request": WIDE_PATTERNS,
        "patterns_per_second": {
            str(w): round(pps, 1) for w, pps in curve.items()
        },
        "speedup_vs_64": {
            str(w): round(curve[w] / curve[64], 2) for w in FLUSH_WIDTHS
        },
        "occupancy_mean": {
            str(w): stats[w]["occupancy_mean"] for w in FLUSH_WIDTHS
        },
    })
    _merge_dump("max_batch", results)
    print(f"\nBENCH_serve flush curve: "
          f"{json.dumps(results['patterns_per_second'])}")

    assert curve[256] >= 0.9 * curve[64], (
        f"serving at max_batch 256 dropped throughput to "
        f"{curve[256] / curve[64]:.2f}x of max_batch 64"
    )
