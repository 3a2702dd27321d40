"""The traced run's per-layer breakdown.

Tracing uses the program's own ``repro.obs`` spans and counters, plus
spans this module adds from benchmark code around public calls that
carry none (:func:`benchmark_spans`).  Every op runs under one root span
``bench.op`` carrying the op index, so all of an op's spans — the
in-process server's included, which re-parent under the client's span
through the trace context on each frame, and the campaign jobs' adopted
trees — share that root.  Self time is a span's duration minus the time
its children cover.

Per-layer values are per op; times are span durations (wall clock) in
reference-host milliseconds, normalized with the op's host factor;
counts are exact.
"""

from __future__ import annotations

import importlib
from contextlib import contextmanager
from typing import Any, Dict, Iterator, List, Sequence, Tuple

from refclock import normalize

#: (name, unit, better) of every per-layer metric, in report order
PER_LAYER: Tuple[Tuple[str, str, str], ...] = (
    ("sat.solve_ms", "ms", "lower"),
    ("sat.calls", "count", "lower"),
    ("sat.conflicts", "count", "lower"),
    ("sat.decisions", "count", "lower"),
    ("sat.propagations", "count", "lower"),
    ("sat.learned", "count", "lower"),
    ("sat.props_per_ms", "1/ms", "higher"),
    ("encode.ms", "ms", "lower"),
    ("encode.add_cnf_ms", "ms", "lower"),
    ("encode.clauses", "count", "lower"),
    ("encode.vars", "count", "lower"),
    ("encode.clauses_per_dip", "count", "lower"),
    ("dip.iterations", "count", "lower"),
    ("dip.oracle_queries", "count", "lower"),
    ("dip.miter_ms", "ms", "lower"),
    ("dip.loop_self_ms", "ms", "lower"),
    ("dip.key_extract_ms", "ms", "lower"),
    ("eval.query_ms", "ms", "lower"),
    ("eval.walk_ms", "ms", "lower"),
    ("eval.pack_unpack_ms", "ms", "lower"),
    ("eval.walk_share", "ratio", "higher"),
    ("eval.patterns", "count", "lower"),
    ("eval.passes", "count", "lower"),
    ("serve.handle_ms", "ms", "lower"),
    ("serve.dispatch_ms", "ms", "lower"),
    ("serve.wire_ms", "ms", "lower"),
    ("serve.flushes", "count", "lower"),
    ("serve.occupancy", "lanes", "higher"),
    ("serve.window_flushes", "count", "lower"),
    ("serve.rejected", "count", "lower"),
    ("sta.ms", "ms", "lower"),
    ("sta.calls", "count", "lower"),
    ("synth.ms", "ms", "lower"),
    ("synth.calls", "count", "lower"),
    ("flow.plan_ms", "ms", "lower"),
    ("flow.insert_ms", "ms", "lower"),
    ("flow.gk_inserted", "count", "lower"),
    ("flow.gk_retries", "count", "lower"),
    ("flow.false_violations", "count", "lower"),
    ("campaign.jobs", "count", "lower"),
    ("campaign.job_ms", "ms", "lower"),
    ("campaign.job_self_ms", "ms", "lower"),
    ("campaign.overhead_ms", "ms", "lower"),
    ("gen.ms", "ms", "lower"),
    ("gen.gates", "count", "lower"),
    ("obs.overhead", "ratio", "lower"),
    ("obs.spans_per_op", "count", "lower"),
)

#: the counts that must repeat exactly across traced runs at one seed
EXACT_COUNTS = ("sat.conflicts", "sat.decisions", "sat.propagations",
                "dip.iterations", "encode.clauses", "eval.patterns",
                "serve.flushes", "sta.calls", "flow.gk_inserted")

_GEN_SPANS = ("bench.iwls_benchmark", "bench.generate")


# ----------------------------------------------------------------------
# Benchmark-owned spans
# ----------------------------------------------------------------------

def _spanned(original, name: str, annotate=None):
    """*original* wrapped in a span; *annotate(span, args, result)*."""
    from repro.obs import trace_span

    def wrapper(*args, **kwargs):
        with trace_span(name) as span:
            result = original(*args, **kwargs)
            if annotate is not None:
                annotate(span, args, result)
        return result

    wrapper.__wrapped__ = original
    return wrapper


def _encoder(original):
    """``CircuitEncoder`` wrapped; the span records clauses/vars added."""
    from repro.obs import trace_span

    def encoder(cnf, *args, **kwargs):
        clauses, num_vars = len(cnf.clauses), cnf.num_vars
        with trace_span("bench.encode") as span:
            result = original(cnf, *args, **kwargs)
            span.annotate(clauses=len(cnf.clauses) - clauses,
                          vars=cnf.num_vars - num_vars)
        return result

    encoder.__wrapped__ = original
    return encoder


def _patches() -> List[Tuple[Any, str, Any]]:
    """(owner, attribute, replacement) for every benchmark span."""
    sat_attack = importlib.import_module("repro.attacks.sat_attack")
    iwls = importlib.import_module("repro.bench.iwls")
    generator = importlib.import_module("repro.bench.generator")
    from repro.netlist.compiled import CompiledCircuit
    from repro.sat.solver import Solver
    from repro.serve.client import ServeConnection

    def patterns(span, args, _result):
        span.annotate(patterns=len(args[1]))

    def gates(span, _args, result):
        span.annotate(gates=len(result.gates))

    generate = _spanned(generator.random_sequential_circuit,
                        "bench.generate", gates)
    return [
        (sat_attack, "CircuitEncoder", _encoder(sat_attack.CircuitEncoder)),
        (Solver, "add_cnf", _spanned(Solver.add_cnf, "bench.add_cnf")),
        (CompiledCircuit, "query_outputs",
         _spanned(CompiledCircuit.query_outputs, "bench.query_outputs",
                  patterns)),
        (CompiledCircuit, "run_planes",
         _spanned(CompiledCircuit.run_planes, "bench.run_planes")),
        (ServeConnection, "request",
         _spanned(ServeConnection.request, "bench.serve.request")),
        (iwls, "iwls_benchmark",
         _spanned(iwls.iwls_benchmark, "bench.iwls_benchmark")),
        (iwls, "random_sequential_circuit", generate),
        (generator, "random_sequential_circuit", generate),
    ]


@contextmanager
def benchmark_spans() -> Iterator[None]:
    """Install the benchmark's spans for the block, then restore."""
    patches = _patches()
    saved = [(owner, attr, getattr(owner, attr)) for owner, attr, _ in patches]
    try:
        for owner, attr, replacement in patches:
            setattr(owner, attr, replacement)
        yield
    finally:
        for owner, attr, original in saved:
            setattr(owner, attr, original)


# ----------------------------------------------------------------------
# Span-tree arithmetic
# ----------------------------------------------------------------------

def _self_seconds(span) -> float:
    return (span.duration or 0.0) - sum(c.duration or 0.0
                                        for c in span.children)


def _walk(span, inside: Tuple[str, ...] = ()):
    """``(span, names of its ancestors)`` for the tree under *span*."""
    yield span, inside
    for child in span.children:
        yield from _walk(child, inside + (span.name,))


class _Totals:
    """Per-op-normalized sums over a set of op trees."""

    def __init__(self, roots: Sequence[Any], factors: Sequence[float]) -> None:
        self.ms: Dict[str, float] = {}
        self.self_ms: Dict[str, float] = {}
        self.calls: Dict[str, int] = {}
        self.attrs: Dict[Tuple[str, str], float] = {}
        self.spans = 0
        self.gen_ms = 0.0
        self.dip_clauses = 0
        self.walk_in_query_ms = 0.0
        self.campaign_overhead_ms = 0.0
        for root, factor in zip(roots, factors):
            scale = normalize(1e3, factor)
            jobs_ms = 0.0
            ran_campaign = False
            for span, ancestors in _walk(root):
                name = span.name
                self.spans += 1
                took = (span.duration or 0.0) * scale
                self.ms[name] = self.ms.get(name, 0.0) + took
                self.self_ms[name] = (self.self_ms.get(name, 0.0)
                                      + _self_seconds(span) * scale)
                self.calls[name] = self.calls.get(name, 0) + 1
                for key, value in span.attrs.items():
                    if isinstance(value, (int, float)) and \
                            not isinstance(value, bool):
                        self.attrs[(name, key)] = (
                            self.attrs.get((name, key), 0) + value)
                if name in _GEN_SPANS and not set(ancestors) & set(_GEN_SPANS):
                    self.gen_ms += took
                if name == "bench.encode" and \
                        "attack.sat.iteration" in ancestors:
                    self.dip_clauses += span.attrs.get("clauses", 0)
                if name == "bench.run_planes" and \
                        "bench.query_outputs" in ancestors:
                    self.walk_in_query_ms += took
                if name == "campaign.job":
                    jobs_ms += took
                ran_campaign = ran_campaign or name == "campaign.run"
            if ran_campaign:
                self.campaign_overhead_ms += (root.duration or 0.0) * scale \
                    - jobs_ms


def per_layer_metrics(
    roots: Sequence[Any],
    factors: Sequence[float],
    counters: Dict[str, float],
    traced_p50_ms: float,
    untraced_p50_ms: float,
) -> Dict[str, float]:
    """Every :data:`PER_LAYER` metric from the traced op trees.

    *roots* are the ``bench.op`` spans, *factors* each op's host factor,
    *counters* the run's counter deltas (the session's counters plus the
    workload's own, e.g. the server's window flushes).
    """
    ops = max(1, len(roots))
    t = _Totals(roots, factors)

    def ms(name: str) -> float:
        return t.ms.get(name, 0.0) / ops

    def self_ms(name: str) -> float:
        return t.self_ms.get(name, 0.0) / ops

    def calls(name: str) -> float:
        return t.calls.get(name, 0) / ops

    def attr(name: str, key: str) -> float:
        return t.attrs.get((name, key), 0) / ops

    def counter(name: str) -> float:
        return counters.get(name, 0) / ops

    def share(part: float, whole: float) -> float:
        return part / whole if whole else 0.0

    dips = counters.get("attack.sat.iterations", 0)
    solve_ms = ms("sat.solve")
    handle_ms = ms("serve.request")
    flushes = calls("serve.batch.flush")
    metrics = {
        "sat.solve_ms": solve_ms,
        "sat.calls": counter("sat.solver.calls"),
        "sat.conflicts": counter("sat.solver.conflicts"),
        "sat.decisions": counter("sat.solver.decisions"),
        "sat.propagations": counter("sat.solver.propagations"),
        "sat.learned": counter("sat.solver.learned_clauses"),
        "sat.props_per_ms": share(counter("sat.solver.propagations"),
                                  solve_ms),
        "encode.ms": ms("bench.encode"),
        "encode.add_cnf_ms": ms("bench.add_cnf"),
        "encode.clauses": attr("bench.encode", "clauses"),
        "encode.vars": attr("bench.encode", "vars"),
        "encode.clauses_per_dip": share(t.dip_clauses, dips),
        "dip.iterations": counter("attack.sat.iterations"),
        "dip.oracle_queries": counter("attack.sat.oracle_queries"),
        "dip.miter_ms": ms("attack.sat.encode"),
        "dip.loop_self_ms": self_ms("attack.sat.iteration"),
        "dip.key_extract_ms": ms("attack.sat.key_extract"),
        "eval.query_ms": ms("bench.query_outputs"),
        "eval.walk_ms": ms("bench.run_planes"),
        "eval.pack_unpack_ms": self_ms("bench.query_outputs"),
        "eval.walk_share": share(t.walk_in_query_ms,
                                 t.ms.get("bench.query_outputs", 0.0)),
        "eval.patterns": attr("bench.query_outputs", "patterns"),
        "eval.passes": calls("bench.run_planes"),
        "serve.handle_ms": handle_ms,
        "serve.dispatch_ms": handle_ms - ms("serve.batch.flush"),
        "serve.wire_ms": ms("bench.serve.request") - handle_ms,
        "serve.flushes": counter("serve.batch.flushes"),
        "serve.occupancy": share(attr("serve.batch.flush", "lanes"),
                                 flushes),
        "serve.window_flushes": counter("serve.window_flushes"),
        "serve.rejected": counter("serve.rejected"),
        "sta.ms": ms("sta.analyze"),
        "sta.calls": calls("sta.analyze"),
        "synth.ms": ms("synth.optimize"),
        "synth.calls": calls("synth.optimize"),
        "flow.plan_ms": ms("flow.plan"),
        "flow.insert_ms": ms("flow.insert"),
        "flow.gk_inserted": counter("flow.gk.inserted"),
        "flow.gk_retries": counter("flow.gk.retries"),
        "flow.false_violations": counter("flow.gk.false_violations"),
        "campaign.jobs": calls("campaign.job"),
        "campaign.job_ms": ms("campaign.job"),
        "campaign.job_self_ms": self_ms("campaign.job"),
        "campaign.overhead_ms": t.campaign_overhead_ms / ops,
        "gen.ms": t.gen_ms / ops,
        "gen.gates": attr("bench.generate", "gates"),
        "obs.overhead": share(traced_p50_ms, untraced_p50_ms),
        "obs.spans_per_op": t.spans / ops,
    }
    return metrics


def counter_values(snapshot: Dict[str, dict]) -> Dict[str, float]:
    """Counter and gauge values of a registry snapshot, by name."""
    return {name: entry["value"] for name, entry in snapshot.items()
            if "value" in entry}
