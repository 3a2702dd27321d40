"""The benchmark's own tests: smoke runs of every workload (a few ops
each), the traced layer table, the determinism self-test, and the
reference kernel's contract.

    python -m pytest perfbench -q
"""

import gc
import json
import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
REPO = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import layers  # noqa: E402
import refclock  # noqa: E402
import run  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

NAMES = sorted(WORKLOADS)


def _run(workload, seed=3, trace=0, cwd=REPO, script=None):
    """One ``--smoke`` run; ``(returncode, lines, result-or-None)``."""
    script = script or os.path.join(HERE, "run.py")
    done = subprocess.run(
        [sys.executable, script, "--workload", workload, "--seed",
         str(seed), "--trace", str(trace), "--smoke"],
        capture_output=True, text=True, timeout=170, cwd=cwd)
    lines = done.stdout.strip().splitlines()
    result = None
    if done.returncode == 0:
        result = json.loads(lines[-1])
    return done.returncode, lines[:-1], result


def _record(workload, seed, trace):
    path = os.path.join(HERE, "out", f"{workload}-seed{seed}-trace{trace}.json")
    with open(path) as stream:
        return json.load(stream)


@pytest.mark.parametrize("workload", NAMES)
def test_smoke_prints_every_end_to_end_metric(workload):
    code, lines, result = _run(workload)
    assert code == 0
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] == run.SMOKE_OPS
    assert {name: entry["unit"] for name, entry in result["metrics"].items()} \
        == dict(run.END_TO_END)
    assert result["metrics"]["ok_rate"]["value"] == 1.0
    for name, unit in run.END_TO_END:
        assert any(line.split()[0] == f"{workload}/{name}"
                   and line.split()[-1] == unit for line in lines), name
    record = _record(workload, 3, 0)
    assert record["host"]["REPRO_LANES"].startswith("unset")
    assert record["host"]["lane_width"] == 64
    assert set(record["raw"]) == {"wall", "cpu"}
    for clock in record["raw"].values():
        assert set(clock) <= set(record["metrics"])
    assert {"median", "min", "max"} == set(record["host_factor"])
    assert len(record["setup"]["runs_s"]) == run.SETUP_RUNS


@pytest.mark.parametrize("workload", NAMES)
def test_traced_layer_table_and_determinism(workload):
    code, lines, first = _run(workload, seed=5, trace=1)
    assert code == 0 and first["correct"]
    names = [name for name, _unit, _better in layers.PER_LAYER]
    assert list(first["metrics"]) == names
    assert any(first["metrics"][name]["value"] for name in names
               if name not in ("obs.overhead", "obs.spans_per_op"))
    for name in names:
        assert any(line.split()[0] == f"{workload}/{name}" for line in lines)
    digest = _record(workload, 5, 1)["instances_digest"]

    # Same seed: every exact count repeats.
    _code, _lines, second = _run(workload, seed=5, trace=1)
    for name in layers.EXACT_COUNTS:
        assert first["metrics"][name]["value"] == \
            second["metrics"][name]["value"], name
    # Another seed: another instance set.
    _run(workload, seed=6, trace=1)
    assert _record(workload, 6, 1)["instances_digest"] != digest


def test_layers_do_most_work_where_the_map_says():
    """Each workload's dominant layer, from one traced smoke run each."""
    share = {}
    for workload in NAMES:
        _code, _lines, result = _run(workload, seed=7, trace=1)
        share[workload] = {k: v["value"] for k, v in result["metrics"].items()}
    assert share["attack-unsat"]["sat.solve_ms"] > \
        share["attack-unsat"]["encode.ms"]
    assert share["attack-unsat"]["dip.iterations"] == 0
    assert share["attack-dips"]["dip.iterations"] == 15
    assert share["attack-dips"]["encode.clauses_per_dip"] > 0
    assert share["oracle-serve"]["serve.flushes"] == 1
    assert share["oracle-serve"]["eval.patterns"] == 64
    assert share["oracle-serve"]["sat.calls"] == 0
    assert share["tables"]["sta.ms"] > share["tables"]["synth.ms"]
    assert share["tables"]["campaign.jobs"] == 10
    for workload in ("attack-unsat", "attack-dips", "oracle-serve"):
        assert share[workload]["sta.calls"] == 0
        assert share[workload]["campaign.jobs"] == 0


def test_refuses_without_program_sources(tmp_path):
    """Only BENCHMARK.json and the benchmark: exit non-zero, no result."""
    shutil.copy(os.path.join(REPO, "BENCHMARK.json"), tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    code, lines, _result = _run("tables", cwd=tmp_path,
                                script=str(tmp_path / "perfbench" / "run.py"))
    assert code != 0
    assert not any(line.startswith("{") for line in lines)


def test_kernel_creates_no_gc_tracked_objects():
    gc.disable()
    try:
        before = gc.get_count()[0]
        refclock.kernel()
        after = gc.get_count()[0]
    finally:
        gc.enable()
    assert after == before


def test_tail_has_ten_ops_beyond():
    value, percentile, beyond = run._quantile_tail(list(range(100)))
    assert (value, percentile, beyond) == (89, 90.0, 10)
    assert run._quantile_tail([3.0, 1.0]) == (3.0, 100.0, 0)


def test_benchmark_json_matches_the_code():
    with open(os.path.join(REPO, "BENCHMARK.json")) as stream:
        spec = json.load(stream)
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == \
        list(run.END_TO_END)
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] \
        == list(layers.PER_LAYER)
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    assert bounds["setup_s"] == max(bounds.values()) <= 0.25
