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

A second benchmark records the lane-width curve: the deep oracle
served at 64 and 256 lanes under one concurrent multi-pattern load.

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
# Serve-level lane width curve
# ----------------------------------------------------------------------

LANE_WIDTHS = (64, 256)
LANE_CLIENTS = 64
LANE_PATTERNS = 4           # 64 clients x 4 patterns = 256 lanes in flight
LANE_ROUNDS = 6


def _lane_throughput(circuit, lanes):
    """Patterns/second through the full dispatch path at one width.

    ``max_batch=None`` resolves against the registry's lane width, so
    the flush trigger follows ``lanes`` with no separate knob — the
    exact configuration ``repro serve --lanes`` produces.
    """

    async def scenario():
        server = OracleServer(config=ServerConfig(
            lanes=lanes,
            batch=BatchConfig(max_batch=None, window_s=0.05),
            admission=AdmissionConfig(max_pending=8192),
        ))
        assert server.batcher.max_batch == lanes
        entry = server.registry.register(circuit)
        assert entry.compiled.lanes == lanes
        rng = random.Random(0x1A4E5)
        requests = [
            query_request(entry.circuit_id, entry.compiled.inputs, [
                {net: rng.randint(0, 1) for net in entry.compiled.inputs}
                for _ in range(LANE_PATTERNS)
            ])
            for _ in range(LANE_CLIENTS)
        ]
        async def client(index, rounds):
            for _ in range(rounds):
                response = await server.handle(requests[index])
                assert response["ok"], response

        await asyncio.gather(*(client(i, 1) for i in range(LANE_CLIENTS)))
        start = time.perf_counter()
        await asyncio.gather(
            *(client(i, LANE_ROUNDS) for i in range(LANE_CLIENTS))
        )
        elapsed = time.perf_counter() - start
        pps = LANE_CLIENTS * LANE_ROUNDS * LANE_PATTERNS / elapsed
        return pps, server.batcher.stats()

    return asyncio.run(scenario())


@pytest.mark.no_obs
def test_serve_lane_width_curve(deep4k, bench_record):
    """End-to-end lanes-vs-throughput: the deep oracle served at 64 and
    256 lanes under the same concurrent multi-pattern workload.  Wider
    flushes amortize the per-chunk schedule walk over more patterns;
    the gain is recorded, and wide serving must at least hold the line
    (the compiled-IR curve in BENCH_compiled.json carries the asserted
    2x — this one includes protocol framing, which widening cannot
    shrink)."""
    curve = {}
    stats = {}
    for lanes in LANE_WIDTHS:
        curve[lanes], stats[lanes] = _lane_throughput(deep4k, lanes)

    results = bench_record({
        "circuit": "deep4k",
        "clients": LANE_CLIENTS,
        "rounds": LANE_ROUNDS,
        "patterns_per_request": LANE_PATTERNS,
        "patterns_per_second": {
            str(w): round(pps, 1) for w, pps in curve.items()
        },
        "speedup_vs_64": {
            str(w): round(curve[w] / curve[64], 2) for w in LANE_WIDTHS
        },
        "occupancy_mean": {
            str(w): stats[w]["occupancy_mean"] for w in LANE_WIDTHS
        },
    })
    _merge_dump("lane_width", results)
    print(f"\nBENCH_serve lane curve: "
          f"{json.dumps(results['patterns_per_second'])}")

    assert curve[256] >= 0.9 * curve[64], (
        f"serving at 256 lanes dropped throughput to "
        f"{curve[256] / curve[64]:.2f}x of 64-lane serving"
    )
