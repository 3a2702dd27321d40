"""Connectivity-driven grid placement (the IC Compiler stand-in).

The placer is deliberately simple but real: cells are seeded onto a
row grid in breadth-first order from the primary inputs (so logic
stages flow left-to-right), then refined with a few passes of
force-directed "median of neighbours" improvement with row re-
legalization.  Output quality only needs to be good enough that wire
delays correlate with logical proximity — which this achieves — since
the paper's claims never depend on absolute routed delay.

Deterministic: same circuit in, same layout out.
"""

from __future__ import annotations

import math
from collections import deque
from typing import Dict, List, Tuple

from ..netlist.circuit import Circuit
from ..obs.spans import trace_span
from .layout import Layout

__all__ = ["place"]

_ROW_HEIGHT = 3.69  # um, a typical 0.13um standard-cell row height
_TARGET_UTILIZATION = 0.70


def _bfs_order(circuit: Circuit) -> List[str]:
    """Gates in breadth-first order from the PIs/FF outputs."""
    order: List[str] = []
    seen = set()
    frontier: deque = deque()
    sources = list(circuit.inputs) + list(circuit.key_inputs)
    sources += [ff.output for ff in sorted(circuit.flip_flops(), key=lambda g: g.name)]
    for net in sources:
        frontier.append(net)
    visited_nets = set(sources)
    while frontier:
        net = frontier.popleft()
        for gate_name, _pin in circuit.fanout_pins(net):
            if gate_name in seen:
                continue
            seen.add(gate_name)
            order.append(gate_name)
            out = circuit.gates[gate_name].output
            if out not in visited_nets:
                visited_nets.add(out)
                frontier.append(out)
    # Anything unreachable from the inputs (e.g. tie cells) goes last.
    for name in sorted(circuit.gates):
        if name not in seen:
            order.append(name)
    return order


def _legalize(
    order: List[str], circuit: Circuit, width: float
) -> Dict[str, Tuple[float, float]]:
    """Pack gates into rows (in the given order), returning positions."""
    positions: Dict[str, Tuple[float, float]] = {}
    x = 0.0
    row = 0
    for name in order:
        gate = circuit.gates[name]
        cell_width = gate.cell.area / _ROW_HEIGHT
        if x + cell_width > width and x > 0.0:
            row += 1
            x = 0.0
        positions[name] = (x + cell_width / 2.0, (row + 0.5) * _ROW_HEIGHT)
        x += cell_width
    return positions


def place(circuit: Circuit, refinement_passes: int = 3) -> Layout:
    """Place *circuit* on a square-ish die at ~70% utilization."""
    with trace_span("pnr.place", design=circuit.name,
                    cells=len(circuit.gates)):
        return _place(circuit, refinement_passes)


def _place(circuit: Circuit, refinement_passes: int) -> Layout:
    total_area = sum(g.cell.area for g in circuit.gates.values())
    if total_area == 0.0:
        return Layout(circuit, {}, 0.0, 0.0, _ROW_HEIGHT)
    die_area = total_area / _TARGET_UTILIZATION
    width = math.sqrt(die_area)
    rows = max(1, int(math.ceil(die_area / width / _ROW_HEIGHT)))
    height = rows * _ROW_HEIGHT

    order = _bfs_order(circuit)
    positions = _legalize(order, circuit, width)

    # Force-directed refinement: move each gate toward the centroid of
    # its neighbours, then re-legalize by sorting on the new coordinate.
    neighbours: Dict[str, List[str]] = {name: [] for name in circuit.gates}
    for gate in circuit.gates.values():
        nets = set(gate.pins.values()) | {gate.output}
        for net in nets:
            if net == circuit.clock:
                continue
            driver = circuit.driver_of(net)
            if driver is not None and driver.name != gate.name:
                neighbours[gate.name].append(driver.name)
            for sink_name, _pin in circuit.fanout_pins(net):
                if sink_name != gate.name:
                    neighbours[gate.name].append(sink_name)

    for _ in range(refinement_passes):
        desired: Dict[str, Tuple[float, float]] = {}
        for name, near in neighbours.items():
            if not near:
                desired[name] = positions[name]
                continue
            # fsum is exact, so the centroid does not depend on the
            # (hash-seeded) order the neighbours were collected in
            cx = math.fsum(positions[n][0] for n in near) / len(near)
            cy = math.fsum(positions[n][1] for n in near) / len(near)
            desired[name] = (cx, cy)
        # Re-legalize: order by desired (y, x) and repack rows.
        new_order = sorted(
            circuit.gates, key=lambda n: (desired[n][1], desired[n][0], n)
        )
        positions = _legalize(new_order, circuit, width)

    return Layout(circuit, positions, width, height, _ROW_HEIGHT)
