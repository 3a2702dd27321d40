"""Netlist statistics and overhead accounting.

The paper's Table II reports *cell overhead* and *area overhead* of a
locked design relative to the original; this module centralizes that
arithmetic so every locking scheme and the Table II bench report
identically computed numbers.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from typing import Dict

from .circuit import Circuit

__all__ = ["Overhead", "overhead", "cell_histogram"]


@dataclass(frozen=True)
class Overhead:
    """Relative growth of a locked design vs. its original."""

    cell_percent: float
    area_percent: float
    cells_added: int
    area_added: float

    def __str__(self) -> str:
        return (
            f"+{self.cells_added} cells ({self.cell_percent:.2f}%), "
            f"+{self.area_added:.1f} um^2 ({self.area_percent:.2f}%)"
        )


def overhead(original: Circuit, locked: Circuit) -> Overhead:
    """Cell and area overhead of *locked* relative to *original*.

    Matches the paper's Table II definition: percentage growth of the
    total cell count and total cell area.
    """
    before = original.stats()
    after = locked.stats()
    if before.num_cells == 0 or before.area == 0:
        raise ValueError("original circuit is empty")
    return Overhead(
        cell_percent=100.0 * (after.num_cells - before.num_cells) / before.num_cells,
        area_percent=100.0 * (after.area - before.area) / before.area,
        cells_added=after.num_cells - before.num_cells,
        area_added=after.area - before.area,
    )


def cell_histogram(circuit: Circuit) -> Dict[str, int]:
    """Cell name -> instance count, for area breakdowns and reports."""
    return dict(Counter(g.cell.name for g in circuit.gates.values()))
