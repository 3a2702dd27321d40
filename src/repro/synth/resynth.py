"""Re-synthesis with design constraints.

One call that replays the paper's tool sequence on a (possibly edited)
netlist: logic optimization -> technology mapping -> timing repair ->
placement -> routing -> post-layout STA.  The *protected* set carries
the design constraints: gates on deliberately delayed paths (GK delay
elements, KEYGEN ADB arms) survive every pass untouched, which is how
the paper keeps Design Compiler / IC Compiler from "optimizing away" the
glitch generators (Sec. IV-B).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

from ..netlist.circuit import Circuit
from ..pnr.layout import Layout
from ..pnr.placer import place
from ..pnr.router import RoutingEstimate, route
from ..sta.clock import ClockSpec
from ..sta.timing import TimingAnalysis, analyze
from .optimize import optimize
from .techmap import map_to_library, upsize_critical_cells

__all__ = ["SynthesisResult", "resynthesize"]


@dataclass
class SynthesisResult:
    """Everything the flow produces for one netlist revision."""

    circuit: Circuit
    layout: Layout
    routing: RoutingEstimate
    timing: TimingAnalysis
    optimizations: int
    remapped: int
    upsized: int

    @property
    def meets_timing(self) -> bool:
        return not self.timing.setup_violations() and not self.timing.hold_violations()


def resynthesize(
    circuit: Circuit,
    clock: ClockSpec,
    protected: Iterable[str] = (),
    run_pnr: bool = True,
    refinement_passes: int = 2,
) -> SynthesisResult:
    """Optimize, map, repair, place, route, and re-time *circuit* in place.

    With ``run_pnr=False`` the layout step is skipped (zero wire delays),
    which the fast unit tests use.
    """
    guard = frozenset(protected)
    optimizations = optimize(circuit, protected=guard)
    remapped = map_to_library(circuit, protected=guard)
    upsized = upsize_critical_cells(circuit, clock, protected=guard)
    if run_pnr:
        layout = place(circuit, refinement_passes=refinement_passes)
        routing = route(layout)
    else:
        layout = Layout(circuit, {}, 0.0, 0.0, 1.0)
        routing = RoutingEstimate(wire_delay={}, total_hpwl=0.0)
    timing = analyze(circuit, clock, wire_delay=routing.wire_delay)
    return SynthesisResult(
        circuit=circuit,
        layout=layout,
        routing=routing,
        timing=timing,
        optimizations=optimizations,
        remapped=remapped,
        upsized=upsized,
    )
