"""Throughput of the compiled circuit IR: regimes and pass widths.

Two benchmarks, both over :meth:`CompiledCircuit.query_outputs`:

**Regimes** (s1238 combinational core) — patterns/second each:

* ``interpreted`` — the per-gate object-graph walk
  (:func:`evaluate_combinational_interpreted`), the pre-compiled-IR
  behaviour and the executable reference,
* ``compiled_single`` — the compiled evaluator, one pattern per call
  (a one-lane pass), the oracle's single-query path,
* ``compiled_parallel_64`` — the batched path over pattern dicts, 64
  per pass: the batched-oracle and signal-probability path.

**Plane-batch sizes** — 4096 patterns as plane batches
(:class:`PlaneBatch`) of 64/256/1024/4096 patterns, each batch one
pass exactly that wide (a
wider pass amortizes the schedule walk over more patterns).  The
batches are packed off the clock: the curve times the walk, which is
what the serving stack runs per flush.  The asserted curve runs on the
*deep oracle* — at 4.6k gates the largest circuit in the benchmark
suite (deeper than any IWLS stand-in's combinational core) and
interface-light, so per-pattern cost is dominated by gate evaluation,
the regime wide passes are for.  The s1238 core rides along as an
unasserted secondary datapoint.

Results land in ``benchmarks/BENCH_compiled.json`` under a versioned
schema, one section per benchmark, merged not overwritten (a partial
run must not wipe the other section; a pre-schema flat artifact is
adopted as the ``throughput`` section).  Three guards:

* the batched path must clear 20x the interpreted throughput (the
  headline number for the migration),
* against the committed baseline, the parallel-over-interpreted speedup
  must not regress by more than 10%, and
* some batch of >= 256 patterns must clear 2x the throughput of
  64-pattern batches on the deep oracle.

All guards are ratios, not absolute rates, so they are
machine-independent.
"""

import json
import os
import random
import time

import pytest

from repro.netlist.compiled import PlaneBatch, compile_circuit
from repro.netlist.transform import extract_combinational
from repro.sim.cyclesim import evaluate_combinational_interpreted

_DUMP = os.path.join(os.path.dirname(__file__), "BENCH_compiled.json")

MIN_PARALLEL_SPEEDUP = 20.0
MAX_REGRESSION = 0.10
MIN_WIDE_SPEEDUP = 2.0
_REPEATS = 3

#: the batch-size-vs-throughput curve's x axis: patterns per plane
#: batch, each batch one pass that wide
BATCH_SIZES = (64, 256, 1024, 4096)
CURVE_PATTERNS = 4096


def _merge_dump(section, payload):
    """Update one section of BENCH_compiled.json, keeping the others."""
    data = {}
    if os.path.exists(_DUMP):
        with open(_DUMP) as stream:
            data = json.load(stream)
        if "schema" not in data:  # pre-schema flat layout: one section
            data = {"throughput": data}
    data["schema"] = 1
    data[section] = payload
    with open(_DUMP, "w") as stream:
        json.dump(data, stream, indent=2, sort_keys=True)
        stream.write("\n")


def _load_section(section):
    if not os.path.exists(_DUMP):
        return None
    with open(_DUMP) as stream:
        data = json.load(stream)
    if "schema" not in data:  # pre-schema artifact == throughput section
        return data if section == "throughput" else None
    return data.get(section)


def _patterns_per_second(run, patterns):
    """Best-of-N wall-clock throughput of ``run(patterns)``."""
    run(patterns)  # warm caches (compiled IR, topo order) off the clock
    best = float("inf")
    for _ in range(_REPEATS):
        start = time.perf_counter()
        run(patterns)
        best = min(best, time.perf_counter() - start)
    return len(patterns) / best


def _random_patterns(circuit, count, seed):
    rng = random.Random(seed)
    return [
        {net: rng.randint(0, 1) for net in circuit.inputs}
        for _ in range(count)
    ]


@pytest.mark.no_obs
def test_compiled_throughput(s1238, bench_record):
    comb = extract_combinational(s1238.circuit).circuit
    compiled = compile_circuit(comb)
    patterns = _random_patterns(comb, 256, 0xBE9C)

    # The interpreted walk is ~25x slower; 32 patterns keep its wall
    # time comparable to the other regimes without drowning the run.
    interpreted = _patterns_per_second(
        lambda ps: [evaluate_combinational_interpreted(comb, p) for p in ps],
        patterns[:32],
    )
    single = _patterns_per_second(
        lambda ps: [compiled.query_outputs([p])[0] for p in ps],
        patterns[:64],
    )
    parallel = _patterns_per_second(
        lambda ps: compiled.query_outputs(ps), patterns
    )

    baseline = _load_section("throughput")

    results = bench_record({
        "circuit": "s1238 (combinational core)",
        "gates": len(comb.gates),
        "nets": len(comb.nets()),
        "patterns_per_second": {
            "interpreted": round(interpreted, 1),
            "compiled_single": round(single, 1),
            "compiled_parallel_64": round(parallel, 1),
        },
        "speedup_vs_interpreted": {
            "compiled_single": round(single / interpreted, 2),
            "compiled_parallel_64": round(parallel / interpreted, 2),
        },
    })
    _merge_dump("throughput", results)
    print(f"\nBENCH_compiled: {json.dumps(results['patterns_per_second'])}")

    assert parallel >= MIN_PARALLEL_SPEEDUP * interpreted, (
        f"batched path is only {parallel / interpreted:.1f}x the "
        f"interpreted walk (need {MIN_PARALLEL_SPEEDUP:.0f}x)"
    )
    if baseline is not None:
        old = baseline["speedup_vs_interpreted"]["compiled_parallel_64"]
        new = parallel / interpreted
        assert new >= (1.0 - MAX_REGRESSION) * old, (
            f"compiled path regressed: parallel speedup {new:.1f}x vs "
            f"baseline {old:.1f}x (>{MAX_REGRESSION:.0%} drop)"
        )


def _batch_curve(circuit, seed):
    """{batch size: patterns/second} of plane batches of every size."""
    patterns = _random_patterns(circuit, CURVE_PATTERNS, seed)
    compiled = compile_circuit(circuit)
    curve = {}
    for size in BATCH_SIZES:
        batches = [PlaneBatch.pack(circuit.inputs, patterns[i:i + size])
                   for i in range(0, CURVE_PATTERNS, size)]
        curve[size] = size * _patterns_per_second(
            lambda bs: [compiled.query_outputs(b) for b in bs], batches
        )
    return curve


@pytest.mark.no_obs
def test_plane_batch_throughput_curve(s1238, deep4k, bench_record):
    shallow = extract_combinational(s1238.circuit).circuit
    deep_curve = _batch_curve(deep4k, 0xD4B1)
    shallow_curve = _batch_curve(shallow, 0x51238)

    results = bench_record({"batch_sizes": list(BATCH_SIZES),
                            "patterns": CURVE_PATTERNS, "circuits": {}})
    for label, circuit, curve in (
        ("deep4k", deep4k, deep_curve),
        ("s1238_comb", shallow, shallow_curve),
    ):
        results["circuits"][label] = {
            "gates": len(circuit.gates),
            "inputs": len(circuit.inputs),
            "outputs": len(circuit.outputs),
            "patterns_per_second": {
                str(w): round(pps, 1) for w, pps in curve.items()
            },
            "speedup_vs_64": {
                str(w): round(pps / curve[64], 2)
                for w, pps in curve.items()
            },
        }
    _merge_dump("plane_batch_curve", results)
    print("\nBENCH_compiled batch curve: " + json.dumps({
        label: entry["speedup_vs_64"]
        for label, entry in results["circuits"].items()
    }))

    best_wide = max(
        deep_curve[n] / deep_curve[64] for n in BATCH_SIZES if n >= 256
    )
    assert best_wide >= MIN_WIDE_SPEEDUP, (
        f"wider batches yield only {best_wide:.2f}x the throughput of "
        f"64-pattern batches on the deep oracle (need "
        f"{MIN_WIDE_SPEEDUP:.1f}x at some size >= 256)"
    )
