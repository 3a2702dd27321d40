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
:func:`analyze` of the edited netlist bit for bit.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Mapping, Optional, Tuple

from ..netlist.circuit import Circuit, Gate, NetlistError
from ..obs.spans import trace_span
from .clock import ClockSpec

__all__ = ["EndpointTiming", "TimingAnalysis", "analyze"]


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

    circuit: Circuit
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

    def retimed(self, gates: Iterable[str]) -> "TimingAnalysis":
        """A new analysis of ``self.circuit`` after an edit.

        *gates* are the gates the edit added or rewired.  Only their
        combinational fan-out cone is re-timed (in Kahn order inside the
        cone); every other arrival is copied, and so are the endpoints
        the cone does not reach.  Inputs the edit added (a new key
        input) arrive at ``input_arrival`` plus their wire delay.  The
        receiver is left unchanged, so rolling the edit back needs no
        undo: the caller keeps using this analysis.
        """
        circuit = self.circuit
        wires = self.wire_delay
        arrival_max = dict(self.arrival_max)
        arrival_min = dict(self.arrival_min)
        critical_pred = dict(self.critical_pred)
        endpoints = dict(self.endpoints)
        for net in circuit.inputs + circuit.key_inputs:
            if net not in arrival_max:
                arrival_max[net] = arrival_min[net] = (
                    self.input_arrival + wires.get(net, 0.0))
                critical_pred[net] = None
        with trace_span("sta.retime", design=circuit.name) as span:
            cone, flip_flops = _fanout_cone(circuit, gates)
            span.annotate(cone=len(cone))
            clock_net = circuit.clock
            for gate in cone:
                _time_gate(gate, clock_net, wires,
                           arrival_max, arrival_min, critical_pred)
            for ff in flip_flops:
                endpoints[ff.name] = _endpoint(
                    ff, self.clock, arrival_max, arrival_min)
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


def _fanout_cone(
    circuit: Circuit, gates: Iterable[str]
) -> Tuple[List[Gate], List[Gate]]:
    """The combinational fan-out cone of *gates* in Kahn order, and the
    flip-flops it reaches (including any flip-flop among *gates*).

    The order inside the cone is any topological one: each gate's
    arrivals depend only on its fan-in's, so every such order gives the
    same floats.
    """
    ffs = circuit.flip_flop_names()
    cone: Dict[str, Gate] = {}
    flip_flops: Dict[str, Gate] = {}
    for name in gates:
        gate = circuit.gates[name]
        if name in ffs:
            flip_flops[name] = gate
            continue
        for member in (name, *circuit.fanout_cone(gate.output)):
            reached = circuit.gates[member]
            if member in ffs:
                flip_flops[member] = reached
            else:
                cone[member] = reached
    driver_in_cone = {gate.output: name for name, gate in cone.items()}
    indegree: Dict[str, int] = {}
    dependents: Dict[str, List[str]] = {}
    for name, gate in cone.items():
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
        order.append(cone[name])
        for dependent in dependents.get(name, ()):
            indegree[dependent] -= 1
            if indegree[dependent] == 0:
                ready.append(dependent)
    if len(order) != len(cone):
        cyclic = sorted(name for name, count in indegree.items() if count)
        raise NetlistError(f"combinational cycle through gates {cyclic[:8]}")
    return order, list(flip_flops.values())
