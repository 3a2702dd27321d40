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

A second benchmark measures the *multi-process* backend: the same
concurrent-client workload against a 4-worker server versus the
single-process threaded server.  Workers evaluate in parallel on
separate cores, so on a multi-core machine the sharded fleet must
sustain at least 3x the single-process throughput; on fewer cores than
workers the ratio is recorded but not asserted (process parallelism
cannot beat serial execution on one core).

Results land in ``benchmarks/BENCH_serve.json`` (one section per
benchmark, merged).  Guard: on the deep oracle, batching must deliver
at least 8x the unbatched throughput.  Both regimes run on one machine
back to back, so the guards are ratios and machine-independent.
"""

import asyncio
import json
import os
import random
import threading
import time
from io import StringIO

import pytest

from repro.bench.generator import GeneratorSpec, random_sequential_circuit
from repro.netlist import write_bench
from repro.netlist.transform import extract_combinational
from repro.serve import RemoteOracle, ThreadedServer, owner_index
from repro.serve.admission import AdmissionConfig
from repro.serve.batcher import BatchConfig
from repro.serve.client import query_request
from repro.serve.registry import circuit_content_id
from repro.serve.server import OracleServer, ServerConfig, registration_view

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
# Sharded vs single-process throughput
# ----------------------------------------------------------------------

MIN_SHARD_SPEEDUP = 3.0
SHARD_WORKERS = 4
SHARD_PER_WORKER = 2        # circuits per worker: 8 concurrent clients
SHARD_ROUNDS = 6
SHARD_PATTERNS = 32         # lanes per request: evaluation dominates framing


def _bench_text(circuit):
    buffer = StringIO()
    write_bench(circuit, buffer)
    return buffer.getvalue()


def _balanced_circuits(workers, per_worker):
    """Deterministic deep circuits whose owners balance exactly
    across *workers* — the workload saturates the whole fleet instead
    of whichever workers random seeds happen to hash to.  Ownership and
    the generator are both deterministic, so the scan always selects
    the same circuits."""
    found = {w: [] for w in range(workers)}
    for seed in range(1, 400):
        spec = GeneratorSpec(
            name=f"shard{seed}",
            num_inputs=24,
            num_outputs=16,
            num_flip_flops=0,
            num_combinational=1500,
            seed=seed,
            reduce_dangling=True,
        )
        circuit = random_sequential_circuit(spec)
        view, _ = registration_view(
            {"netlist": _bench_text(circuit), "name": circuit.name}
        )
        owner = owner_index(circuit_content_id(view), workers)
        if len(found[owner]) < per_worker:
            found[owner].append(circuit)
        if all(len(group) >= per_worker for group in found.values()):
            return [c for group in found.values() for c in group]
    raise AssertionError(f"could not balance {workers} workers")


def _socket_throughput(address, circuits):
    """Patterns/second: one thread per circuit, multi-pattern requests
    over real sockets — identical client code for both backends."""
    oracles = [RemoteOracle(address, circuit=c) for c in circuits]
    rng = random.Random(0x5A4D)
    batches = [
        [
            {net: rng.randint(0, 1) for net in oracle.inputs}
            for _ in range(SHARD_PATTERNS)
        ]
        for oracle in oracles
    ]
    try:
        # Warm pass off the clock: registration, compiled-IR caches.
        for oracle, batch in zip(oracles, batches):
            assert len(oracle.query_batch(batch)) == SHARD_PATTERNS

        barrier = threading.Barrier(len(oracles) + 1)

        def client(oracle, batch):
            barrier.wait()
            for _ in range(SHARD_ROUNDS):
                outputs = oracle.query_batch(batch)
                assert len(outputs) == SHARD_PATTERNS

        threads = [
            threading.Thread(target=client, args=(oracle, batch))
            for oracle, batch in zip(oracles, batches)
        ]
        for thread in threads:
            thread.start()
        barrier.wait()
        start = time.perf_counter()
        for thread in threads:
            thread.join()
        elapsed = time.perf_counter() - start
    finally:
        for oracle in oracles:
            oracle.close()
    return len(oracles) * SHARD_ROUNDS * SHARD_PATTERNS / elapsed


@pytest.mark.no_obs
def test_sharded_vs_single_process_throughput(bench_record):
    circuits = _balanced_circuits(SHARD_WORKERS, SHARD_PER_WORKER)
    batch = BatchConfig(max_batch=SHARD_PATTERNS, window_s=0.001)
    admission = AdmissionConfig(max_pending=8192)

    with ThreadedServer(OracleServer(config=ServerConfig(
            batch=batch, admission=admission))) as address:
        single_pps = _socket_throughput(address, circuits)

    server = OracleServer(config=ServerConfig(
        workers=SHARD_WORKERS, batch=batch, admission=admission))
    with ThreadedServer(server) as address:
        sharded_pps = _socket_throughput(address, circuits)
    assert server.supervisor.respawned_total == 0

    speedup = sharded_pps / single_pps
    cores = os.cpu_count() or 1
    _merge_dump("sharded", bench_record({
        "workers": SHARD_WORKERS,
        "clients": len(circuits),
        "rounds": SHARD_ROUNDS,
        "patterns_per_request": SHARD_PATTERNS,
        "cores": cores,
        "patterns_per_second": {
            "single_process": round(single_pps, 1),
            "sharded": round(sharded_pps, 1),
        },
        "speedup": round(speedup, 2),
        "speedup_asserted": cores >= SHARD_WORKERS,
    }))
    print(f"\nBENCH_serve sharded: {single_pps:.0f} -> {sharded_pps:.0f} "
          f"patterns/s ({speedup:.2f}x, {cores} cores)")

    if cores >= SHARD_WORKERS:
        assert speedup >= MIN_SHARD_SPEEDUP, (
            f"{SHARD_WORKERS} workers deliver only {speedup:.2f}x the "
            f"single-process throughput (need {MIN_SHARD_SPEEDUP:.0f}x)"
        )


# ----------------------------------------------------------------------
# The multi-worker front end's speed-up ceiling
# ----------------------------------------------------------------------

BOUND_QUERIES = 400
BOUND_PATTERNS = 64


def _serve_thread_cpu_ms_per_query(server, circuit):
    """CPU the server's event-loop thread spends per 64-pattern query.

    One client sends the ``oracle-serve`` op shape back to back; the
    loop thread's own CPU clock is read before and after, so neither
    the client's packing nor a forked worker's evaluation counts.
    """
    with ThreadedServer(server) as address:
        thread = next(t for t in threading.enumerate()
                      if t.name == "repro-serve")
        clock = time.pthread_getcpuclockid(thread.ident)
        with RemoteOracle(address, circuit=circuit) as oracle:
            rng = random.Random(0xB0D)
            batch = [{net: rng.randint(0, 1) for net in oracle.inputs}
                     for _ in range(BOUND_PATTERNS)]
            oracle.query_batch(batch)  # warm: registration, compile
            start = time.clock_gettime(clock)
            for _ in range(BOUND_QUERIES):
                oracle.query_batch(batch)
            spent = time.clock_gettime(clock) - start
    return spent * 1e3 / BOUND_QUERIES


@pytest.mark.no_obs
@pytest.mark.skipif(not hasattr(time, "pthread_getcpuclockid"),
                    reason="needs per-thread CPU clocks")
def test_front_end_cpu_bound(s1238, bench_record):
    """With N workers every request still crosses the front end's one
    event-loop thread, so N workers serve at most (single-process
    server CPU per query) / (front-end CPU per query) times the
    queries one process serves, on any number of cores.  Recorded,
    not asserted."""
    single = _serve_thread_cpu_ms_per_query(OracleServer(), s1238.circuit)
    front = _serve_thread_cpu_ms_per_query(
        OracleServer(config=ServerConfig(workers=2)), s1238.circuit)
    results = bench_record({
        "circuit": "s1238_comb",
        "queries": BOUND_QUERIES,
        "patterns_per_query": BOUND_PATTERNS,
        "thread_cpu_ms_per_query": {
            "single_process_server": round(single, 3),
            "front_end": round(front, 3),
        },
        "speedup_ceiling": round(single / front, 2),
    })
    _merge_dump("front_end_bound", results)
    print(f"\nBENCH_serve front-end bound: {single:.3f} / {front:.3f} ms "
          f"= {single / front:.2f}x")
    assert front > 0 and single > 0


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
