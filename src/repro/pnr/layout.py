"""Layout data model for the P&R substrate.

A :class:`Layout` records where each gate instance landed on the row
grid plus the derived geometry statistics.  The router annotates wire
delays from it, and the Table II flow re-runs placement after every GK
insertion just as the paper re-runs IC Compiler.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Tuple

from ..netlist.circuit import Circuit

__all__ = ["Layout"]


@dataclass
class Layout:
    """Placement result.

    Attributes:
        circuit: The placed circuit (not copied).
        positions: Gate name -> (x, y) placement site in um.
        width: Die width in um.
        height: Die height in um.
        row_height: Height of a placement row in um.
    """

    circuit: Circuit
    positions: Dict[str, Tuple[float, float]]
    width: float
    height: float
    row_height: float

    @property
    def die_area(self) -> float:
        return self.width * self.height

    @property
    def utilization(self) -> float:
        cell_area = sum(g.cell.area for g in self.circuit.gates.values())
        return cell_area / self.die_area if self.die_area else 0.0

    def distance(self, gate_a: str, gate_b: str) -> float:
        """Manhattan distance between two placed gates."""
        ax, ay = self.positions[gate_a]
        bx, by = self.positions[gate_b]
        return abs(ax - bx) + abs(ay - by)

    def net_bbox(self, net: str) -> Tuple[float, float]:
        """(width, height) of the bounding box of a net's pins."""
        points = []
        driver = self.circuit.driver_of(net)
        if driver is not None:
            points.append(self.positions[driver.name])
        for gate_name, _pin in self.circuit.fanout_pins(net):
            points.append(self.positions[gate_name])
        if len(points) < 2:
            return (0.0, 0.0)
        xs = [p[0] for p in points]
        ys = [p[1] for p in points]
        return (max(xs) - min(xs), max(ys) - min(ys))

    def net_hpwl(self, net: str) -> float:
        """Half-perimeter wirelength of a net."""
        w, h = self.net_bbox(net)
        return w + h
