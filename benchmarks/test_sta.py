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

A third record covers planning: one serial Table I + II campaign of
s1238 and s5378 at seed 2019, per design its planning passes
(``flow.plan.computed``, asserted to be exactly one), its
``sta.analyze`` and ``flow.plan`` spans (calls and ms) and how many
``flow.plan`` spans reused the design's plan.

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
from repro.campaign import CampaignConfig, CampaignMatrix, run_campaign
from repro.campaign import worker
from repro.locking import HybridGkXor
from repro.sta.timing import TimingAnalysis, analyze

_DUMP = os.path.join(os.path.dirname(__file__), "BENCH_sta.json")

BENCH = "s5378"
KEY_BITS = 32
SEED = 2019
#: a run's per-trial cost is the best of this many timings
REPEATS = 5
RATIO_FLOOR = 3.0
#: the designs of the Table I + II campaign record
TABLE_BENCHES = ("s1238", "s5378")


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


def _walk(tree):
    yield tree
    for child in tree["children"]:
        yield from _walk(child)


@pytest.mark.no_obs
def test_table_campaign_plans_each_design_once(monkeypatch, bench_record):
    monkeypatch.setattr(worker, "_INSTANCE_MEMO", {})
    jobs = (CampaignMatrix.table1(TABLE_BENCHES, seed=SEED).expand()
            + CampaignMatrix.table2(TABLE_BENCHES, seed=SEED).expand())
    start = time.perf_counter()
    result = run_campaign(jobs, CampaignConfig(jobs=1))
    wall = time.perf_counter() - start
    assert result.ok

    designs = {}
    for record in result.ordered():
        entry = designs.setdefault(record["params"]["benchmark"], {
            "jobs": 0, "plan_passes": 0, "plans_shared": 0,
            "sta.analyze": {"calls": 0, "ms": 0.0},
            "flow.plan": {"calls": 0, "ms": 0.0},
        })
        entry["jobs"] += 1
        computed = record["obs"]["metrics"].get("flow.plan.computed", {})
        entry["plan_passes"] += computed.get("value", 0)
        for root in record["obs"]["spans"]:
            for span in _walk(root):
                layer = entry.get(span["name"])
                if layer is None:
                    continue
                layer["calls"] += 1
                layer["ms"] += (span["duration"] or 0.0) * 1000.0
                if span["attrs"].get("shared"):
                    entry["plans_shared"] += 1
    for entry in designs.values():
        for name in ("sta.analyze", "flow.plan"):
            entry[name]["ms"] = round(entry[name]["ms"], 2)
    payload = {
        "benchmarks": list(TABLE_BENCHES),
        "seed": SEED,
        "cores": _cores(),
        "jobs": len(jobs),
        "campaign_ms": round(wall * 1000.0, 2),
        "designs": designs,
    }
    _merge_dump("table_campaign", bench_record(payload))
    print(f"\nBENCH_sta table campaign: {json.dumps(designs)}")
    assert {name: entry["plan_passes"] for name, entry in designs.items()} \
        == {name: 1 for name in TABLE_BENCHES}
