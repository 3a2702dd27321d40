"""Static timing analysis (the PrimeTime stand-in).

Single-pass block-based STA over the combinational network:

* **max arrival** per net (late mode) -> setup slack per flip-flop,
* **min arrival** per net (early mode) -> hold slack per flip-flop,
* per-endpoint path-delay bounds ``LB_ij`` / ``UB_ij`` of the paper's
  Eq. (1), used by the GK insertion rules (Eqs. (3)-(6)).

Arrival times are measured from the launching clock edge at t = 0: a
flip-flop *i* launches its Q at ``T_i + clk->q``; a primary input is
assumed valid at ``input_arrival``.  Wire delays (annotated by the P&R
substrate) are added at each driving pin.

Locking flows time the edit, not the design: :meth:`TimingAnalysis.retimed`
re-times only the fan-out cone of a few new or rewired gates and copies
every other arrival.  Both passes share one per-gate step, and a gate's
arrivals depend only on its fan-in's, so the cone re-time equals a full
:func:`analyze` of the edited netlist bit for bit.  A flow that reads
only a few nets' arrivals keeps just their fan-in cones current
(:class:`RegionTiming`), with the same step.
"""

from __future__ import annotations

from collections import ChainMap
from dataclasses import dataclass, field, replace
from typing import Dict, Iterable, List, Mapping, Optional, Set, Tuple

from ..netlist.circuit import Circuit, Gate, NetlistError
from ..obs.spans import trace_span
from .clock import ClockSpec

__all__ = ["EndpointTiming", "RegionTiming", "TimingAnalysis", "analyze"]


@dataclass(frozen=True)
class EndpointTiming:
    """Setup/hold view of one capturing flip-flop."""

    ff: str
    data_net: str
    arrival_max: float
    arrival_min: float
    required_setup: float  # latest allowed arrival (UB side)
    required_hold: float  # earliest allowed arrival (LB side)

    @property
    def setup_slack(self) -> float:
        return self.required_setup - self.arrival_max

    @property
    def hold_slack(self) -> float:
        return self.arrival_min - self.required_hold

    @property
    def violated(self) -> bool:
        return self.setup_slack < 0 or self.hold_slack < 0


@dataclass
class TimingAnalysis:
    """Complete result of one :func:`analyze` run."""

    #: the analysed netlist; None in a :meth:`detached` copy
    circuit: Optional[Circuit]
    clock: ClockSpec
    arrival_max: Dict[str, float]
    arrival_min: Dict[str, float]
    endpoints: Dict[str, EndpointTiming]
    #: net -> input net that set its max arrival (for path tracing)
    critical_pred: Dict[str, Optional[str]]
    #: the wire annotation and PI arrival the analysis was built with
    wire_delay: Mapping[str, float] = field(default_factory=dict)
    input_arrival: float = 0.0

    def setup_violations(self) -> List[EndpointTiming]:
        return [e for e in self.endpoints.values() if e.setup_slack < 0]

    def hold_violations(self) -> List[EndpointTiming]:
        return [e for e in self.endpoints.values() if e.hold_slack < 0]

    def worst_setup_slack(self) -> float:
        if not self.endpoints:
            return float("inf")
        return min(e.setup_slack for e in self.endpoints.values())

    def endpoint_bounds(self, ff_name: str) -> Tuple[float, float]:
        """(LB_ij, UB_ij) of Eq. (1) for capturing FF *j*.

        With per-FF skews the launching FF's ``T_i`` is not unique, so
        the bounds are conservative: the largest launcher skew tightens
        UB, the smallest tightens LB.  With zero skew (the default
        everywhere in the paper's experiments) this is exact:
        ``LB = T_hold`` and ``UB = T_clk - T_set``.
        """
        endpoint = self.endpoints.get(ff_name)
        if endpoint is None:
            raise NetlistError(f"{ff_name!r} is not a capturing flip-flop")
        ff = self.circuit.gates[ff_name]
        t_j = self.clock.arrival(ff_name)
        min_skew, max_skew = self.clock.skew_bounds()
        lb = ff.cell.hold + t_j - min_skew
        ub = (
            self.clock.period
            + t_j
            - max_skew
            - ff.cell.setup
            - self.clock.uncertainty
        )
        return lb, ub

    def critical_path_to(self, net: str) -> List[str]:
        """Nets along the max-arrival path ending at *net* (source first)."""
        path = [net]
        while True:
            pred = self.critical_pred.get(path[-1])
            if pred is None:
                break
            path.append(pred)
        path.reverse()
        return path

    def detached(self) -> "TimingAnalysis":
        """This analysis without its netlist, to keep in a memo on that
        netlist: a copy pointing back would close a reference cycle, and
        dropped netlists would wait for the cyclic garbage collector.
        :meth:`retimed` binds it to a netlist again."""
        return replace(self, circuit=None)

    def retimed(
        self, gates: Iterable[str], circuit: Optional[Circuit] = None
    ) -> "TimingAnalysis":
        """A new analysis of *circuit* (by default ``self.circuit``)
        after an edit.

        Before the edit *circuit* must have matched the analysed netlist
        (it may be a clone of it); *gates* are the gates the edit added
        or rewired.  Only their combinational fan-out cone is re-timed,
        collected in one walk and timed in Kahn order; every other
        arrival is copied, and so are the endpoints the cone does not
        reach.  Inputs the edit added (a new key input) arrive at
        ``input_arrival`` plus their wire delay, and a flip-flop among
        *gates* whose Q net has no arrival yet launches at its clock
        arrival, as in :func:`analyze`.  The receiver is left unchanged,
        so rolling the edit back needs no undo: the caller keeps using
        this analysis.
        """
        if circuit is None:
            circuit = self.circuit
        wires = self.wire_delay
        arrival_max = dict(self.arrival_max)
        arrival_min = dict(self.arrival_min)
        critical_pred = dict(self.critical_pred)
        for net in circuit.inputs + circuit.key_inputs:
            if net not in arrival_max:
                arrival_max[net] = arrival_min[net] = (
                    self.input_arrival + wires.get(net, 0.0))
                critical_pred[net] = None
        with trace_span("sta.retime", design=circuit.name) as span:
            ffs = circuit.flip_flop_names()
            members: Dict[str, Gate] = {}
            captures: Dict[str, Gate] = {}
            roots: List[str] = []
            for name in gates:
                gate = circuit.gates[name]
                if name not in ffs:
                    members[name] = gate
                    roots.append(gate.output)
                    continue
                captures[name] = gate
                if gate.output not in arrival_max:  # a new flip-flop
                    arrival_max[gate.output] = arrival_min[gate.output] = (
                        self.clock.arrival(name) + gate.cell.delay
                        + wires.get(gate.output, 0.0))
                    critical_pred[gate.output] = None
                    roots.append(gate.output)
            for name in circuit.fanout_cone(*roots):
                gate = circuit.gates[name]
                if name in ffs:
                    captures[name] = gate
                else:
                    members[name] = gate
            cone = _kahn_order(members)
            span.annotate(cone=len(cone))
            clock_net = circuit.clock
            for gate in cone:
                _time_gate(gate, clock_net, wires,
                           arrival_max, arrival_min, critical_pred)
            endpoints = dict(self.endpoints)
            for ff in captures.values():
                endpoints[ff.name] = _endpoint(
                    ff, self.clock, arrival_max, arrival_min)
            if len(endpoints) != len(self.endpoints):
                # new flip-flops: list the endpoints in analyze's order
                endpoints = {ff.name: endpoints[ff.name]
                             for ff in circuit.flip_flops()}
        return TimingAnalysis(
            circuit=circuit,
            clock=self.clock,
            arrival_max=arrival_max,
            arrival_min=arrival_min,
            endpoints=endpoints,
            critical_pred=critical_pred,
            wire_delay=wires,
            input_arrival=self.input_arrival,
        )


class RegionTiming:
    """Arrivals kept exact inside one region of a netlist across edits.

    A flow that reads only a few nets' arrivals needs only their
    combinational fan-in cones current: *region* names those gates (no
    flip-flops), and the arrivals start as *analysis*'s.  :meth:`trial`
    re-times an edit's new gate and its fan-out inside the region, over
    the kept arrivals; :meth:`keep` adopts the last trial, and an
    unkept one is simply dropped.  Arrivals outside the region go
    stale, so this is never a :class:`TimingAnalysis`.
    """

    def __init__(self, analysis: TimingAnalysis, region: Iterable[str]):
        self.analysis = analysis
        self.region: Set[str] = set(region)
        self._kept = (dict(analysis.arrival_max), dict(analysis.arrival_min),
                      dict(analysis.critical_pred))
        #: the last trial: its gate if re-timed, and its new arrivals
        self._last: Tuple[Optional[str], Tuple[dict, ...]] = (None, ())

    def trial(self, gate_name: str) -> Mapping[str, float]:
        """Max arrivals after an edit that added *gate_name*.

        The gate and its fan-out inside the region are re-timed in Kahn
        order; a gate whose output reaches no region gate changes no
        arrival in it and is not re-timed.  Its new inputs (a key input)
        arrive as in :meth:`TimingAnalysis.retimed`.
        """
        analysis = self.analysis
        circuit = analysis.circuit
        wires = analysis.wire_delay
        overlays = ({}, {}, {})
        arrival_max, arrival_min, critical_pred = (
            ChainMap(overlay, kept)
            for overlay, kept in zip(overlays, self._kept))
        gate = circuit.gates[gate_name]
        with trace_span("sta.retime", design=circuit.name) as span:
            reached = circuit.fanout_cone(gate.output, within=self.region)
            members = {name: circuit.gates[name] for name in reached}
            if members:
                members[gate_name] = gate
                for net in gate.input_nets():
                    if net not in arrival_max and circuit.is_primary(net):
                        arrival_max[net] = arrival_min[net] = (
                            analysis.input_arrival + wires.get(net, 0.0))
                        critical_pred[net] = None
            cone = _kahn_order(members)
            span.annotate(cone=len(cone))
            for member in cone:
                _time_gate(member, circuit.clock, wires,
                           arrival_max, arrival_min, critical_pred)
        self._last = (gate_name if cone else None, overlays)
        return arrival_max

    def keep(self) -> None:
        """Adopt the last :meth:`trial`; a re-timed gate joins the
        region."""
        gate_name, overlays = self._last
        for kept, overlay in zip(self._kept, overlays):
            kept.update(overlay)
        if gate_name is not None:
            self.region.add(gate_name)


def analyze(
    circuit: Circuit,
    clock: ClockSpec,
    wire_delay: Optional[Mapping[str, float]] = None,
    input_arrival: float = 0.0,
) -> TimingAnalysis:
    """Run late/early STA on *circuit* under *clock*.

    *wire_delay* maps a net to the interconnect delay of its driving
    pin (from :mod:`repro.pnr`); unannotated nets have zero wire delay.
    """
    with trace_span("sta.analyze", design=circuit.name,
                    cells=len(circuit.gates)) as span:
        analysis = _analyze(circuit, clock, wire_delay, input_arrival)
        span.annotate(endpoints=len(analysis.endpoints))
    return analysis


def _analyze(
    circuit: Circuit,
    clock: ClockSpec,
    wire_delay: Optional[Mapping[str, float]],
    input_arrival: float,
) -> TimingAnalysis:
    wires = wire_delay if wire_delay is not None else {}
    arrival_max: Dict[str, float] = {}
    arrival_min: Dict[str, float] = {}
    critical_pred: Dict[str, Optional[str]] = {}

    for net in circuit.inputs + circuit.key_inputs:
        arrival_max[net] = arrival_min[net] = input_arrival + wires.get(net, 0.0)
        critical_pred[net] = None
    if circuit.clock is not None:
        arrival_max[circuit.clock] = arrival_min[circuit.clock] = 0.0
        critical_pred[circuit.clock] = None
    flip_flops = circuit.flip_flops()
    for ff in flip_flops:
        launch = clock.arrival(ff.name) + ff.cell.delay + wires.get(ff.output, 0.0)
        arrival_max[ff.output] = arrival_min[ff.output] = launch
        critical_pred[ff.output] = None

    clock_net = circuit.clock
    for gate in circuit.topological_order():
        _time_gate(gate, clock_net, wires, arrival_max, arrival_min,
                   critical_pred)

    endpoints = {
        ff.name: _endpoint(ff, clock, arrival_max, arrival_min)
        for ff in flip_flops
    }
    return TimingAnalysis(
        circuit=circuit,
        clock=clock,
        arrival_max=arrival_max,
        arrival_min=arrival_min,
        endpoints=endpoints,
        critical_pred=critical_pred,
        wire_delay=wires,
        input_arrival=input_arrival,
    )


def _time_gate(
    gate: Gate,
    clock_net: Optional[str],
    wires: Mapping[str, float],
    arrival_max: Dict[str, float],
    arrival_min: Dict[str, float],
    critical_pred: Dict[str, Optional[str]],
) -> None:
    """Time one combinational gate from its fan-in's arrivals.

    Pins are read in the cell's declared order, so the first of equal
    max arrivals sets ``critical_pred``.
    """
    out = gate.output
    stage = gate.cell.delay + wires.get(out, 0.0)
    operands = gate.input_nets()
    if operands:
        data = [n for n in operands if n != clock_net]
        worst = max(data, key=arrival_max.__getitem__)
        arrival_max[out] = arrival_max[worst] + stage
        arrival_min[out] = min([arrival_min[n] for n in data]) + stage
        critical_pred[out] = worst
    else:  # tie cells
        arrival_max[out] = arrival_min[out] = stage
        critical_pred[out] = None


def _endpoint(
    ff: Gate,
    clock: ClockSpec,
    arrival_max: Mapping[str, float],
    arrival_min: Mapping[str, float],
) -> EndpointTiming:
    data_net = ff.pins["D"]
    t_j = clock.arrival(ff.name)
    return EndpointTiming(
        ff=ff.name,
        data_net=data_net,
        arrival_max=arrival_max[data_net],
        arrival_min=arrival_min[data_net],
        required_setup=clock.period
        + t_j
        - ff.cell.setup
        - clock.uncertainty,
        required_hold=t_j + ff.cell.hold,
    )


def _kahn_order(members: Mapping[str, Gate]) -> List[Gate]:
    """The combinational gates *members* in Kahn order among themselves.

    Any topological order of a cone will do: each gate's arrivals depend
    only on its fan-in's, so every such order gives the same floats.
    """
    driver_in_cone = {gate.output: name for name, gate in members.items()}
    indegree: Dict[str, int] = {}
    dependents: Dict[str, List[str]] = {}
    for name, gate in members.items():
        count = 0
        for net in set(gate.pins.values()):
            driver = driver_in_cone.get(net)
            if driver is not None:
                count += 1
                dependents.setdefault(driver, []).append(name)
        indegree[name] = count
    ready = [name for name, count in indegree.items() if count == 0]
    order: List[Gate] = []
    while ready:
        name = ready.pop()
        order.append(members[name])
        for dependent in dependents.get(name, ()):
            indegree[dependent] -= 1
            if indegree[dependent] == 0:
                ready.append(dependent)
    if len(order) != len(members):
        cyclic = sorted(name for name, count in indegree.items() if count)
        raise NetlistError(f"combinational cycle through gates {cyclic[:8]}")
    return order
