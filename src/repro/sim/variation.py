"""Process-variation modeling: per-instance delay perturbation.

The paper's timing math assumes nominal cell delays; a fabricated GK
must keep its glitch inside the Eq. (5) window across process, voltage,
and temperature spread.  :func:`apply_delay_variation` derates every
gate instance's delay by an independent Gaussian factor (the simple
uncorrelated-variation model), producing a "corner sample" netlist the
event simulator can run directly — which lets the ablation benches
measure how much variation the planning margins actually absorb.
"""

from __future__ import annotations

import dataclasses
import random
from typing import Dict

from ..netlist.cells import Cell
from ..netlist.circuit import Circuit

__all__ = ["apply_delay_variation"]


def apply_delay_variation(
    circuit: Circuit,
    sigma: float,
    rng: random.Random,
    include_flip_flops: bool = False,
) -> Circuit:
    """A clone of *circuit* whose gate delays vary by N(1, sigma).

    Each instance gets an independent multiplicative factor (clamped at
    +-3 sigma and never below 10% of nominal).  Flip-flop clk->q and
    setup/hold stay nominal unless *include_flip_flops* — register
    timing varies much less than logic in practice, and keeping it
    nominal isolates the effect on the GK's combinational windows.
    """
    if sigma < 0:
        raise ValueError("sigma must be non-negative")
    varied = circuit.clone(f"{circuit.name}__var{sigma:g}")
    cache: Dict[str, Cell] = {}
    for gate in sorted(varied.gates.values(), key=lambda g: g.name):
        if gate.is_flip_flop and not include_flip_flops:
            continue
        if gate.cell.delay == 0.0:
            continue
        factor = max(0.1, min(3 * sigma + 1.0,
                              rng.gauss(1.0, sigma)))
        name = f"{gate.cell.name}~{gate.name}"
        cell = cache.get(name)
        if cell is None:
            cell = dataclasses.replace(
                gate.cell, name=name, delay=gate.cell.delay * factor
            )
            cache[name] = cell
        varied.replace_cell(gate.name, cell)
    return varied
