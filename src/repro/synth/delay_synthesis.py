"""Delay-element synthesis.

The GK and KEYGEN structures need concrete delays DA / DB on their
internal paths.  The paper realizes them by "setting design constraints
on the path" and letting Design Compiler "map delay elements from the
library" — chains of ordinary buffers/inverters, which it notes is "far
from being optimal" and the main source of area overhead (Sec. VI).

:func:`compose_delay` reproduces that mapping: a greedy largest-first
composition from the library's buffer menu that always *meets or
exceeds* the requested minimum delay (a min-delay constraint can
overshoot but never undershoot).  :func:`insert_delay_chain` instantiates
the chain into a circuit and returns the synthesized path metadata that
the insertion flow records (and the optimizer must protect).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Tuple

from ..netlist.cells import Cell, CellLibrary
from ..netlist.circuit import Circuit

__all__ = ["DelayChain", "compose_delay", "insert_delay_chain"]

_EPSILON = 1e-9


@dataclass(frozen=True)
class DelayChain:
    """A synthesized delay path inside a circuit."""

    input_net: str
    output_net: str
    gate_names: Tuple[str, ...]
    target_delay: float
    achieved_delay: float
    area: float

    @property
    def num_cells(self) -> int:
        return len(self.gate_names)


def compose_delay(target: float, library: CellLibrary) -> List[Cell]:
    """Pick a buffer chain whose total delay >= *target*, greedily.

    Polarity is preserved: only non-inverting cells are used (inverters
    would come in pairs and our menu's smallest buffer is cheaper than
    two inverters).  Greedy largest-first mirrors how a constraint-driven
    mapper works and, like the real flow, is "far from optimal" — that
    inefficiency is part of what Table II measures.
    """
    if target < 0:
        raise ValueError(f"negative target delay {target}")
    menu = [
        c
        for c in library.delay_elements()
        if c.function == "BUF" and c.delay > _EPSILON
    ]
    if not menu:
        if target <= _EPSILON:
            return []
        raise ValueError(
            f"library {library.name!r} has no positive-delay buffers"
        )
    chain: List[Cell] = []
    remaining = target
    for cell in menu:  # sorted by delay descending
        while remaining - _EPSILON > 0 and cell.delay <= remaining + _EPSILON:
            chain.append(cell)
            remaining -= cell.delay
    if remaining > _EPSILON:
        chain.append(menu[-1])  # smallest buffer tops up the residue
    return chain


def insert_delay_chain(
    circuit: Circuit,
    from_net: str,
    target: float,
    prefix: str = "dly",
) -> DelayChain:
    """Drive a new net equal to *from_net* delayed by >= *target* ns.

    A zero *target* still inserts one minimal buffer so the returned net
    is distinct and the path is anchored (and protectable) in the
    netlist.
    """
    cells = compose_delay(target, circuit.library)
    if not cells:
        cells = [min(
            (c for c in circuit.library.delay_elements() if c.function == "BUF"),
            key=lambda c: c.delay,
        )]
    names: List[str] = []
    current = from_net
    achieved = 0.0
    area = 0.0
    for cell in cells:
        out = circuit.new_net(prefix)
        name = circuit.new_gate_name(prefix)
        circuit.add_gate(name, cell.name, {"A": current}, out)
        names.append(name)
        achieved += cell.delay
        area += cell.area
        current = out
    return DelayChain(
        input_net=from_net,
        output_net=current,
        gate_names=tuple(names),
        target_delay=target,
        achieved_delay=achieved,
        area=area,
    )
