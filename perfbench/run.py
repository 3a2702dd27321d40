"""Run one benchmark workload (or all) and print its metrics.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload attack-unsat --seed 1 --seconds 12 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 12 --trace 0

``--trace 0`` prints the end-to-end metrics, ``--trace 1`` the
per-layer ones (see README.md).  Human-readable ``workload/metric value
unit`` lines come first; the last stdout line is one JSON object with
the keys ``correct``, ``attempted``, ``failed`` and ``metrics``.  The
full run record (raw times, host factors, host fingerprint) and, for
traced runs, the span dump go to ``perfbench/out/``.

The program is imported from ``src/`` next to this directory; without
it the command exits non-zero and prints no result.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Sequence

import layers
from refclock import RefClock, normalize
from workloads import WORKLOADS

HERE = os.path.dirname(os.path.abspath(__file__))
REPO = os.path.dirname(HERE)
SRC = os.path.join(REPO, "src")
OUT = os.path.join(HERE, "out")

#: (name, unit) of every end-to-end metric, in report order
END_TO_END = (
    ("setup_s", "s"),
    ("ops_per_s", "1/s"),
    ("op_p50_ms", "ms"),
    ("op_tail_ms", "ms"),
    ("cpu_ms_per_op", "ms"),
    ("peak_rss_mb", "MB"),
    ("ok_rate", "ratio"),
)
#: set-up runs per untraced run (the first in this process, the rest in
#: fresh child processes so each starts as cold as the first)
SETUP_RUNS = 3
#: ops a smoke run (``--smoke``) executes per workload
SMOKE_OPS = 3
#: the tables traced pass needs this many ops before the campaign
#: engine's small per-process instance memo stops hitting across passes
_MIN_TABLE_TRACE_OPS = 5
#: a run stops early (and says so) past this many wall seconds per
#: requested second, so a badly slowed program still exits in time
_WALL_CAP_PER_SECOND = 4.0


@dataclass
class Sample:
    """One timed op."""

    index: int
    wall_s: float
    cpu_s: float  # process CPU time across the op: the raw op time
    factor: float  # host factor: measured kernel / nominal kernel
    ok: bool
    error: Optional[str] = None
    root: Any = None  # the op's root span in a traced pass

    @property
    def norm_ms(self) -> float:
        return normalize(self.cpu_s, self.factor) * 1e3


def _children_cpu_s() -> float:
    usage = resource.getrusage(resource.RUSAGE_CHILDREN)
    return usage.ru_utime + usage.ru_stime


def _quantile_tail(values: Sequence[float]):
    """Highest percentile with at least 10 ops beyond it.

    Returns ``(value, percentile, ops_beyond)``; with 10 ops or fewer
    it is the maximum with nothing beyond.
    """
    ordered = sorted(values)
    n = len(ordered)
    if n <= 10:
        return ordered[-1], 100.0, 0
    return ordered[n - 11], 100.0 * (n - 10) / n, 10


def _spread(values: Sequence[float]) -> Dict[str, float]:
    return {"median": statistics.median(values), "min": min(values),
            "max": max(values)}


def _nproc() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # pragma: no cover - non-Linux
        return os.cpu_count() or 1


# ----------------------------------------------------------------------
# Set-up and the measured loop
# ----------------------------------------------------------------------

class SetupTimer:
    """Times each set-up step between two reference-kernel runs."""

    def __init__(self) -> None:
        self.clock = RefClock()
        self.wall_s = 0.0
        self.cpu_s = 0.0
        self.norm_s = 0.0
        self.steps: Dict[str, float] = {}

    def step(self, name: str, fn):
        result, wall, cpu, norm = self.clock.timed(fn)
        self.wall_s += wall
        self.cpu_s += cpu
        self.norm_s += norm
        self.steps[name] = self.steps.get(name, 0.0) + norm
        return result


def run_ops(workload, indices: Sequence[int], deadline: float,
            traced: bool = False) -> List[Sample]:
    """The closed loop: ops in order, the kernel timed around each block.

    Each op's output is checked after the block's closing kernel run,
    so checks never sit between an op and its kernel timings.
    """
    span = None
    if traced:
        from repro.obs import trace_span as span
    samples: List[Sample] = []
    clock = RefClock()
    for start in range(0, len(indices), workload.block):
        if time.perf_counter() > deadline:
            break
        done = []
        for index in indices[start:start + workload.block]:
            error, result, root = None, None, None
            c0, t0 = time.process_time(), time.perf_counter()
            try:
                if span is None:
                    result = workload.op(index)
                else:
                    with span("bench.op", workload=workload.name,
                              index=index) as root:
                        result = workload.op(index)
            except Exception as exc:  # an op failure is a result
                error = f"{type(exc).__name__}: {exc}"
            wall, cpu = time.perf_counter() - t0, time.process_time() - c0
            done.append((index, wall, cpu, result, error, root))
        factor = clock.lap()
        for index, wall, cpu, result, error, root in done:
            ok = False
            if error is None:
                try:
                    ok = bool(workload.check(index, result))
                except Exception as exc:  # a broken output fails its op
                    error = f"check: {type(exc).__name__}: {exc}"
            samples.append(Sample(index, wall, cpu, factor, ok, error, root))
    return samples


def _setup(workload) -> SetupTimer:
    timer = SetupTimer()
    workload.setup(timer.step)
    return timer


def _setup_probe(args) -> Dict[str, Any]:
    """One cold set-up in a fresh child process (see SETUP_RUNS)."""
    command = [sys.executable, os.path.abspath(__file__),
               "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--setup-only"]
    if args.smoke:
        command.append("--smoke")
    done = subprocess.run(command, capture_output=True, text=True,
                          timeout=170, cwd=REPO)
    if done.returncode != 0:
        raise RuntimeError(f"set-up probe failed: {done.stderr[-2000:]}")
    return json.loads(done.stdout.strip().splitlines()[-1])


# ----------------------------------------------------------------------
# One workload
# ----------------------------------------------------------------------

def _sizes(cls, args) -> Dict[str, int]:
    """Op count and instance count: fixed by workload and --seconds, so
    every run at one seed executes the same op list on any host.  A
    traced run executes a prefix of that list over the same instances.
    """
    ops = (SMOKE_OPS if args.smoke
           else math.ceil(args.seconds * cls.ops_per_second))
    instances = ops if cls.instances == 0 else min(cls.instances, ops)
    if args.trace and not args.smoke:
        ops = max(1, ops // 3)
    if args.trace and cls.name == "tables":
        ops = max(ops, _MIN_TABLE_TRACE_OPS)
    if cls.instances == 0:  # one instance per op: never repeat one
        instances = max(instances, ops)
    return {"ops": ops, "instances": instances}


def _host(lanes_env: Optional[str]) -> Dict[str, Any]:
    from repro.netlist.compiled import default_lanes

    return {
        "nproc": _nproc(),
        "python": platform.python_version(),
        "lane_width": default_lanes(),
        "REPRO_LANES": ("unset" if lanes_env is None
                        else f"unset (was {lanes_env!r})"),
    }


def _import_program() -> None:
    """Import the program up front: module import is not set-up work."""
    import repro.attacks  # noqa: F401
    import repro.bench  # noqa: F401
    import repro.campaign  # noqa: F401
    import repro.core  # noqa: F401
    import repro.locking  # noqa: F401
    import repro.obs  # noqa: F401
    import repro.reporting.tables  # noqa: F401
    import repro.serve  # noqa: F401
    import repro.sim.cyclesim  # noqa: F401


def run_workload(args, lanes_env: Optional[str]) -> Dict[str, Any]:
    _import_program()
    cls = WORKLOADS[args.workload]
    sizes = _sizes(cls, args)
    workload = cls(args.seed, instances=sizes["instances"])
    record: Dict[str, Any] = {
        "workload": workload.name, "why": workload.why, "seed": args.seed,
        "seconds": args.seconds, "trace": args.trace, "smoke": args.smoke,
        "sizes": sizes, "kernel_block_ops": workload.block,
        "host": _host(lanes_env),
    }
    if args.setup_only:
        try:
            timer = _setup(workload)
        finally:
            workload.close()
        return {"setup_s": timer.norm_s, "setup_wall_s": timer.wall_s,
                "setup_cpu_s": timer.cpu_s, "ok": workload.setup_ok}

    probes = ([] if args.trace else
              [_setup_probe(args) for _ in range(SETUP_RUNS - 1)])
    deadline_s = _WALL_CAP_PER_SECOND * args.seconds + 20.0
    try:
        timer = _setup(workload)
        deadline = time.perf_counter() + deadline_s
        indices = list(range(sizes["ops"]))
        record["instances_digest"] = workload.digest()
        if args.trace:
            result = _traced(workload, indices, deadline, record)
        else:
            cpu0 = _children_cpu_s()
            samples = run_ops(workload, indices, deadline)
            children_cpu = _children_cpu_s() - cpu0
            result = _end_to_end(samples, timer, probes, children_cpu,
                                 record)
            record["truncated"] = len(samples) < len(indices)
    finally:
        workload.close()
    result["correct"] = result["correct"] and workload.setup_ok
    record["setup_ok"] = workload.setup_ok
    record["correct"] = result["correct"]
    return {"record": record, "result": result}


def _outcome(samples: Sequence[Sample], record: Dict[str, Any]):
    ok = sum(1 for s in samples if s.ok)
    record["errors"] = [f"op {s.index}: {s.error or 'wrong output'}"
                        for s in samples if not s.ok][:5]
    record["host_factor"] = _spread([s.factor for s in samples])
    return ok


def _end_to_end(samples, timer, probes, children_cpu, record):
    ok = _outcome(samples, record)
    n = len(samples)
    norm = [s.norm_ms for s in samples]
    tail, tail_pct, beyond = _quantile_tail(norm)
    host = record["host_factor"]["median"]
    setups = [timer.norm_s] + [p["setup_s"] for p in probes]
    metrics = {
        "setup_s": statistics.median(setups),
        "ops_per_s": n / (sum(norm) / 1e3),
        "op_p50_ms": statistics.median(norm),
        "op_tail_ms": tail,
        "cpu_ms_per_op":
            (sum(norm) + normalize(children_cpu, host) * 1e3) / n,
        "peak_rss_mb":
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "ok_rate": ok / n,
    }
    record["metrics"] = metrics
    record["raw"] = {
        clock: {
            "setup_s": statistics.median(
                [getattr(timer, f"{clock}_s")]
                + [p[f"setup_{clock}_s"] for p in probes]),
            "ops_per_s": n / sum(values),
            "op_p50_ms": statistics.median(values) * 1e3,
            "op_tail_ms": _quantile_tail(values)[0] * 1e3,
        }
        for clock, values in (("wall", [s.wall_s for s in samples]),
                              ("cpu", [s.cpu_s for s in samples]))
    }
    record["op_tail"] = {"percentile": round(tail_pct, 2),
                         "ops_beyond": beyond, "ops": n}
    record["setup"] = {"runs_s": setups, "steps_s": timer.steps,
                       "probes_ok": all(p["ok"] for p in probes)}
    record["ops"] = {
        "columns": ["index", "wall_ms", "cpu_ms", "norm_ms", "host_factor",
                    "ok"],
        "rows": [[s.index, round(s.wall_s * 1e3, 4), round(s.cpu_s * 1e3, 4),
                  round(s.norm_ms, 4), round(s.factor, 4), s.ok]
                 for s in samples],
    }
    return {"correct": ok == n and record["setup"]["probes_ok"],
            "attempted": n, "failed": n - ok,
            "metrics": {name: {"value": metrics[name], "unit": unit}
                        for name, unit in END_TO_END}}


def _traced(workload, indices, deadline, record):
    """Traced pass, then the same ops untraced (the overhead's base).

    The traced pass runs first so it meets the program's process-level
    caches as cold as an untraced run's op list does.
    """
    from repro import obs

    before = workload.counters()
    sink = obs.InMemorySink()
    session = obs.enable(sink)
    try:
        with layers.benchmark_spans():
            traced = run_ops(workload, indices, deadline, traced=True)
        counters = layers.counter_values(session.registry.snapshot())
    finally:
        obs.disable()
    after = workload.counters()
    counters.update({name: after[name] - before[name] for name in after})
    untraced = run_ops(workload, [s.index for s in traced], deadline)
    record["truncated"] = len(untraced) < len(indices)

    ok = _outcome(traced + untraced, record)
    traced_p50 = statistics.median(s.norm_ms for s in traced)
    untraced_p50 = statistics.median(s.norm_ms for s in untraced)
    metrics = layers.per_layer_metrics(
        [s.root for s in traced], [s.factor for s in traced], counters,
        traced_p50, untraced_p50)
    record["per_layer"] = metrics
    record["obs_overhead"] = {
        "traced_op_p50_ms": traced_p50,
        "untraced_op_p50_ms": untraced_p50,
        "ops": len(traced),
        "note": ("tables jobs always run under execute_job's "
                 "obs.capture(), even untraced, so its base already "
                 "pays the program's own span recording"
                 if workload.name == "tables" else ""),
    }
    record["counters"] = counters
    record["spans_file"] = _dump_spans(sink, record)
    n = len(traced) + len(untraced)
    return {"correct": ok == n, "attempted": n, "failed": n - ok,
            "metrics": {name: {"value": metrics[name], "unit": unit}
                        for name, unit, _better in layers.PER_LAYER}}


def _stem(record) -> str:
    return (f"{record['workload']}-seed{record['seed']}"
            f"-trace{record['trace']}")


def _dump_spans(sink, record) -> str:
    os.makedirs(OUT, exist_ok=True)
    path = os.path.join(OUT, _stem(record) + ".spans.jsonl")
    with open(path, "w") as stream:
        for span in sink.spans:
            stream.write(json.dumps(span.to_dict(), default=str) + "\n")
    return os.path.relpath(path, REPO)


def _write_record(record) -> None:
    os.makedirs(OUT, exist_ok=True)
    with open(os.path.join(OUT, _stem(record) + ".json"), "w") as stream:
        json.dump(record, stream, indent=1, sort_keys=True, default=str)
        stream.write("\n")


def _print_metrics(workload: str, metrics: Dict[str, Dict[str, Any]]) -> None:
    for name, entry in metrics.items():
        label = f"{workload}/{name}"
        print(f"{label:<40} {entry['value']:>14.4f} {entry['unit']}")


# ----------------------------------------------------------------------
# All workloads
# ----------------------------------------------------------------------

def run_all(args) -> Dict[str, Any]:
    """Every workload at one seed, each in its own child process (so
    peak memory and process caches are per workload)."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOADS:
        command = [sys.executable, os.path.abspath(__file__),
                   "--workload", name, "--seed", str(args.seed),
                   "--seconds", str(args.seconds),
                   "--trace", str(args.trace)]
        if args.smoke:
            command.append("--smoke")
        done = subprocess.run(command, capture_output=True, text=True,
                              cwd=REPO)
        lines = done.stdout.strip().splitlines()
        if done.returncode != 0 or not lines:
            raise RuntimeError(f"{name} failed: {done.stderr[-2000:]}")
        result = json.loads(lines[-1])
        combined["correct"] = combined["correct"] and result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for metric, entry in result["metrics"].items():
            combined["metrics"][f"{name}/{metric}"] = entry
        _print_metrics(name, result["metrics"])
    return combined


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        help="attack-unsat, attack-dips, oracle-serve, "
                             "tables, or all")
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=12.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help=f"{SMOKE_OPS} ops per workload (for the "
                             "benchmark's own tests)")
    parser.add_argument("--setup-only", action="store_true",
                        help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    if not os.path.isdir(os.path.join(SRC, "repro")):
        print(f"perfbench: no program sources at {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    # Measured at the default lane width: a 64-pattern request then
    # fills exactly one batch instead of waiting out the 2-ms window.
    lanes_env = os.environ.pop("REPRO_LANES", None)

    if args.workload != "all" and args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}")
    if args.workload == "all":
        result = run_all(args)
    else:
        outcome = run_workload(args, lanes_env)
        if args.setup_only:
            print(json.dumps(outcome))
            return 0
        _write_record(outcome["record"])
        result = outcome["result"]
        _print_metrics(args.workload, result["metrics"])
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
