"""Cone re-time vs full STA in the hybrid's XOR trials (BENCH_sta).

The hybrid GK + XOR lock (Table II's last column) verifies every trial
XOR against the GKs' Eq. (5) windows.  Each trial re-times only the new
gate's fan-out cone (``TimingAnalysis.retimed``) instead of running a
full :func:`~repro.sta.timing.analyze`.  On Table II's s5378 hybrid cell
(32 key bits, seed 2019) this module records:

1. per trial, the cost of the cone re-time against a fresh full
   ``analyze`` of the same edited netlist — the two must agree in every
   field, and the re-time must be at least 3x cheaper (median);
2. the span breakdown of one whole hybrid lock: ``sta.analyze``,
   ``sta.retime`` and ``synth.optimize``, each with calls and ms.

Results merge into ``benchmarks/BENCH_sta.json`` with the host's core
count and the lane width.
"""

import json
import os
import random
import statistics
import time

import pytest

from repro import obs
from repro.bench import iwls_benchmark
from repro.locking import HybridGkXor
from repro.sta.timing import TimingAnalysis, analyze

_DUMP = os.path.join(os.path.dirname(__file__), "BENCH_sta.json")

BENCH = "s5378"
KEY_BITS = 32
SEED = 2019
#: a run's per-trial cost is the best of this many timings
REPEATS = 5
RATIO_FLOOR = 3.0


def _merge_dump(section, payload):
    data = {}
    if os.path.exists(_DUMP):
        with open(_DUMP) as stream:
            data = json.load(stream)
    data[section] = payload
    with open(_DUMP, "w") as stream:
        json.dump(data, stream, indent=2, sort_keys=True)
        stream.write("\n")


def _cores():
    try:
        return len(os.sched_getaffinity(0))
    except (AttributeError, OSError):
        return os.cpu_count() or 1


def _best_ms(fn):
    best = float("inf")
    for _ in range(REPEATS):
        start = time.perf_counter()
        result = fn()
        best = min(best, time.perf_counter() - start)
    return result, best * 1000.0


def _lock(instance):
    return HybridGkXor(instance.clock).lock(
        instance.circuit, KEY_BITS, random.Random(SEED + 99))


@pytest.mark.no_obs
def test_retime_vs_full_analyze(monkeypatch, bench_record):
    instance = iwls_benchmark(BENCH, seed=SEED)
    retimed = TimingAnalysis.retimed
    trials = []

    def measured(self, gates):
        trial, retime_ms = _best_ms(lambda: retimed(self, gates))
        fresh, analyze_ms = _best_ms(lambda: analyze(
            self.circuit, self.clock, wire_delay=self.wire_delay,
            input_arrival=self.input_arrival))
        assert trial.arrival_max == fresh.arrival_max
        assert trial.arrival_min == fresh.arrival_min
        assert trial.critical_pred == fresh.critical_pred
        assert trial.endpoints == fresh.endpoints
        trials.append((retime_ms, analyze_ms))
        return trial

    monkeypatch.setattr(TimingAnalysis, "retimed", measured)
    _lock(instance)

    retime = statistics.median(r for r, _a in trials)
    full = statistics.median(a for _r, a in trials)
    payload = {
        "circuit": BENCH,
        "key_bits": KEY_BITS,
        "seed": SEED,
        "cores": _cores(),
        "trials": len(trials),
        "repeats": REPEATS,
        "per_trial_ms": {"retimed": round(retime, 3),
                         "analyze": round(full, 3)},
        "speedup": round(full / retime, 2),
        "speedup_floor": RATIO_FLOOR,
    }
    _merge_dump("retime_vs_analyze", bench_record(payload))
    print(f"\nBENCH_sta: {len(trials)} trials, retimed {retime:.3f} ms "
          f"vs analyze {full:.3f} ms per trial ({full / retime:.1f}x)")
    assert trials, "the hybrid ran no XOR trial"
    assert full / retime >= RATIO_FLOOR


@pytest.mark.no_obs
def test_hybrid_lock_span_breakdown(bench_record):
    instance = iwls_benchmark(BENCH, seed=SEED)
    sink = obs.InMemorySink()
    obs.enable(sink)
    try:
        start = time.perf_counter()
        _lock(instance)
        wall = time.perf_counter() - start
    finally:
        obs.disable()

    layers = {}
    for name in ("sta.analyze", "sta.retime", "synth.optimize"):
        spans = sink.spans_named(name)
        layers[name] = {
            "calls": len(spans),
            "ms": round(sum(s.duration or 0.0 for s in spans) * 1000.0, 2),
        }
    cones = [s.attrs.get("cone", 0) for s in sink.spans_named("sta.retime")]
    payload = {
        "circuit": BENCH,
        "key_bits": KEY_BITS,
        "seed": SEED,
        "cores": _cores(),
        "lock_ms": round(wall * 1000.0, 2),
        "spans": layers,
        "retime_cone_gates": {"min": min(cones), "max": max(cones),
                              "median": statistics.median(cones)},
        "cells": len(instance.circuit.gates),
    }
    _merge_dump("hybrid_lock_spans", bench_record(payload))
    print(f"\nBENCH_sta spans: {json.dumps(layers)}")
    assert layers["sta.retime"]["calls"] >= KEY_BITS // 2
