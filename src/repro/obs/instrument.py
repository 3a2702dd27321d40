"""Higher-level instrumentation: decorators and the profile harness.

:func:`run_profile` is the library face of ``repro profile <design>``:
it drives one design through the whole pipeline — resynthesis, P&R,
STA, GK locking (which nests the flow's own stage spans), the SAT
attack (nesting per-iteration spans and solver counters), and a short
event-driven validation simulation — inside an observability capture,
and returns the span forest plus the final metrics snapshot, ready to
render.

Heavy repro modules are imported inside the functions: ``repro.obs`` is
imported *by* the solver/flow/simulator layers, so importing them here
at module load time would be circular.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from functools import wraps
from typing import Any, Dict, List, Optional

from . import context as _obs
from .metrics import MetricsRegistry
from .sinks import InMemorySink, Sink, render_metrics_table, render_span_tree
from .spans import Span, trace_span

__all__ = ["traced", "ProfileReport", "run_profile"]


def traced(name: Optional[str] = None, **attrs: Any):
    """Decorator wrapping every call of the function in a span."""

    def decorate(func):
        span_name = name or func.__qualname__

        @wraps(func)
        def wrapper(*args, **kwargs):
            if _obs.ACTIVE is None:
                return func(*args, **kwargs)
            with trace_span(span_name, **attrs):
                return func(*args, **kwargs)

        return wrapper

    return decorate


@dataclass
class ProfileReport:
    """Everything one :func:`run_profile` run observed."""

    design: str
    roots: List[Span]
    metrics: dict
    summary: Dict[str, Any] = field(default_factory=dict)

    def render(self) -> str:
        lines = [f"profile: {self.design}", "=" * 74,
                 render_span_tree(self.roots), "",
                 render_metrics_table(self.metrics)]
        if self.summary:
            lines += ["", "summary"]
            width = max(len(k) for k in self.summary)
            for key in sorted(self.summary):
                lines.append(f"  {key:<{width}} : {self.summary[key]}")
        return "\n".join(lines)


def run_profile(
    circuit,
    clock=None,
    key_bits: int = 8,
    seed: int = 2019,
    max_iterations: int = 64,
    sim_cycles: int = 8,
    extra_sinks: Optional[List[Sink]] = None,
) -> ProfileReport:
    """Profile the full GK pipeline on *circuit*; returns the report.

    Stages (each a top-level child span of ``profile``):

    * ``synth``  — baseline resynthesis of a clone (cost of `optimize`);
    * ``pnr``    — placement + routing of the original;
    * ``sta``    — timing analysis with routed wire delays;
    * ``lock``   — the GK flow (nests the flow's own stage spans);
    * ``attack`` — KEYGEN-stripped SAT attack: exposing the GK keys
      (``attack.expose_keys``), building the oracle (``attack.oracle``)
      and the attack itself (``attack.sat``, nesting DIP iterations);
    * ``sim``    — event-driven validation run with the correct key.

    Temporarily replaces any active observability session; restores it
    before returning.
    """
    from ..attacks.oracle import CombinationalOracle
    from ..attacks.sat_attack import sat_attack
    from ..core.flow import GkLock, expose_gk_keys
    from ..pnr.placer import place
    from ..pnr.router import route
    from ..sim.harness import random_input_sequence, simulate_sequential
    from ..sta.timing import analyze

    if clock is None:
        from ..sta.clock import ClockSpec

        probe = analyze(circuit, ClockSpec(period=1e9))
        critical = max(
            (e.arrival_max + circuit.gates[e.ff].cell.setup
             for e in probe.endpoints.values()),
            default=1.0,
        )
        clock = ClockSpec(period=round(critical * 1.08 + 0.005, 2))

    previous = _obs.ACTIVE
    sink = InMemorySink()
    session = _obs.enable(sink, *(extra_sinks or []),
                          registry=MetricsRegistry())
    sink.session = session
    summary: Dict[str, Any] = {}
    try:
        with trace_span("profile", design=circuit.name,
                        cells=len(circuit.gates)):
            with trace_span("synth"):
                from ..synth.optimize import optimize

                optimize(circuit.clone(f"{circuit.name}__resynth"))

            with trace_span("pnr"):
                layout = place(circuit)
                wire_delay = route(layout).wire_delay

            with trace_span("sta"):
                analysis = analyze(circuit, clock, wire_delay=wire_delay)
                summary["worst_setup_slack"] = round(
                    min((e.setup_slack for e in analysis.endpoints.values()),
                        default=float("inf")), 4)

            with trace_span("lock"):
                locked = GkLock(clock).lock(
                    circuit, key_bits, random.Random(seed)
                )
                summary["gks_inserted"] = len(locked.metadata["gks"])

            with trace_span("attack"):
                with trace_span("attack.expose_keys"):
                    exposed = expose_gk_keys(locked)
                with trace_span("attack.oracle"):
                    oracle = CombinationalOracle(circuit)
                result = sat_attack(
                    exposed, oracle, max_iterations=max_iterations
                )
                summary["attack_iterations"] = result.iterations
                summary["attack_unsat_at_first"] = (
                    result.unsat_at_first_iteration
                )
                summary["solver_conflicts"] = result.solver_conflicts
                summary["solver_decisions"] = result.solver_decisions

            with trace_span("sim"):
                rng = random.Random(seed)
                stimulus = random_input_sequence(
                    locked.circuit, sim_cycles, rng
                )
                trace = simulate_sequential(
                    locked.circuit, clock.period, stimulus,
                    key=locked.key,
                )
                summary["sim_violations"] = len(trace.violations)

        snapshot = session.publish_metrics()
    finally:
        session.close()
        _obs.ACTIVE = previous

    return ProfileReport(
        design=circuit.name,
        roots=list(sink.roots),
        metrics=snapshot,
        summary=summary,
    )
