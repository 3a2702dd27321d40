"""Cone re-times vs full STA in the GK flow and the hybrid (BENCH_sta).

The GK flow's step 5 and the hybrid GK + XOR lock (Table II's last
column) time the edit, not the design.  On Table II's s5378 cells
(seed 2019) this module records:

1. per hybrid XOR trial (32 key bits), the cost of the trial
   (``RegionTiming.trial``: the new gate's fan-out inside the GK data
   inputs' fan-in cones) against a fresh full
   :func:`~repro.sta.timing.analyze` of the same edited netlist — the
   two must agree at every gate of the region, and the trial must be at
   least 3x cheaper (median);
2. per GK lock (8, 16 and 32 key bits, no P&R), the cost of step 5's
   cone re-time of the plan's analysis over the inserted gates
   (``TimingAnalysis.retimed``) against a fresh full ``analyze`` of the
   locked netlist — the two must agree in every field and in endpoint
   order;
3. the span breakdown of one whole hybrid lock: ``sta.analyze``,
   ``sta.retime`` (step 5 and the trials apart) and ``synth.optimize``,
   each with calls and ms.

A fourth record covers planning: one serial Table I + II campaign of
s1238 and s5378 at seed 2019, per design its planning passes
(``flow.plan.computed``, asserted to be exactly one), its
``sta.analyze`` and ``flow.plan`` spans (calls and ms) and how many
``flow.plan`` spans reused the design's plan.

Results merge into ``benchmarks/BENCH_sta.json`` with the host's core
count.
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
from repro.core import GkLock
from repro.locking import HybridGkXor
from repro.sta.timing import RegionTiming, TimingAnalysis, analyze

_DUMP = os.path.join(os.path.dirname(__file__), "BENCH_sta.json")

BENCH = "s5378"
KEY_BITS = 32
SEED = 2019
#: the GK locks of the step-5 record
GK_KEY_BITS = (8, 16, 32)
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


def _fresh(analysis, circuit):
    return analyze(circuit, analysis.clock, wire_delay=analysis.wire_delay,
                   input_arrival=analysis.input_arrival)


@pytest.mark.no_obs
def test_retime_vs_full_analyze(monkeypatch, bench_record):
    instance = iwls_benchmark(BENCH, seed=SEED)
    region_trial = RegionTiming.trial
    trials = []

    def measured(self, gate_name):
        trial, retime_ms = _best_ms(lambda: region_trial(self, gate_name))
        circuit = self.analysis.circuit
        fresh, analyze_ms = _best_ms(lambda: _fresh(self.analysis, circuit))
        timed = {gate_name} if circuit.gates[gate_name].output in trial else set()
        for name in self.region | timed:
            net = circuit.gates[name].output
            assert trial[net] == fresh.arrival_max[net]
        trials.append((retime_ms, analyze_ms))
        return trial

    monkeypatch.setattr(RegionTiming, "trial", measured)
    _lock(instance)

    retime = statistics.median(r for r, _a in trials)
    full = statistics.median(a for _r, a in trials)
    payload = {
        "circuit": BENCH,
        "key_bits": KEY_BITS,
        "seed": SEED,
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
def test_step5_retime_vs_full_analyze(monkeypatch, bench_record):
    instance = iwls_benchmark(BENCH, seed=SEED)
    retimed = TimingAnalysis.retimed
    locks = {}

    def measured(self, gates, circuit=None):
        post, retime_ms = _best_ms(lambda: retimed(self, gates, circuit))
        fresh, analyze_ms = _best_ms(lambda: _fresh(self, circuit))
        assert post.arrival_max == fresh.arrival_max
        assert post.arrival_min == fresh.arrival_min
        assert post.critical_pred == fresh.critical_pred
        assert list(post.endpoints.items()) == list(fresh.endpoints.items())
        locks[len(circuit.key_inputs)] = {
            "key_bits": len(circuit.key_inputs),
            "gates": len(circuit.gates),
            "retimed_ms": round(retime_ms, 3),
            "analyze_ms": round(analyze_ms, 3),
            "speedup": round(analyze_ms / retime_ms, 2),
        }
        return post

    monkeypatch.setattr(TimingAnalysis, "retimed", measured)
    for key_bits in GK_KEY_BITS:
        GkLock(instance.clock).lock(instance.circuit, key_bits,
                                    random.Random(SEED + key_bits))
    payload = {
        "circuit": BENCH,
        "seed": SEED,
        "repeats": REPEATS,
        "locks": [locks[bits] for bits in sorted(locks)],
    }
    _merge_dump("step5_retime_vs_analyze", bench_record(payload))
    print(f"\nBENCH_sta step 5: {json.dumps(payload['locks'])}")
    assert sorted(locks) == list(GK_KEY_BITS)


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

    def layer(spans):
        return {
            "calls": len(spans),
            "ms": round(sum(s.duration or 0.0 for s in spans) * 1000.0, 2),
        }

    retimes = sink.spans_named("sta.retime")
    step5 = [s for s in retimes
             if s.parent is not None and s.parent.name == "flow.sta.post"]
    trial_spans = [s for s in retimes if s not in step5]
    layers = {name: layer(sink.spans_named(name))
              for name in ("sta.analyze", "sta.retime", "synth.optimize")}
    layers["sta.retime.step5"] = layer(step5)
    layers["sta.retime.trials"] = layer(trial_spans)
    cones = [s.attrs.get("cone", 0) for s in trial_spans]
    payload = {
        "circuit": BENCH,
        "key_bits": KEY_BITS,
        "seed": SEED,
        "lock_ms": round(wall * 1000.0, 2),
        "spans": layers,
        "trial_cone_gates": {"min": min(cones), "max": max(cones),
                             "median": statistics.median(cones)},
        "step5_cone_gates": [s.attrs.get("cone", 0) for s in step5],
        "cells": len(instance.circuit.gates),
    }
    _merge_dump("hybrid_lock_spans", bench_record(payload))
    print(f"\nBENCH_sta spans: {json.dumps(layers)}")
    assert layers["sta.retime.trials"]["calls"] >= KEY_BITS // 2
    assert layers["sta.retime.step5"]["calls"] == 1


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
        "jobs": len(jobs),
        "campaign_ms": round(wall * 1000.0, 2),
        "designs": designs,
    }
    _merge_dump("table_campaign", bench_record(payload))
    print(f"\nBENCH_sta table campaign: {json.dumps(designs)}")
    assert {name: entry["plan_passes"] for name, entry in designs.items()} \
        == {name: 1 for name in TABLE_BENCHES}
