"""Technology mapping.

Maps every gate of a circuit onto the cheapest library cell of the same
function (area-driven), optionally upsizing cells on timing-critical
paths (delay-driven repair).  Our circuits are born on library cells, so
this pass is what "synthesis" means when a design moves between
libraries or after edits introduce non-minimal cells.
"""

from __future__ import annotations

from typing import Iterable, Optional

from ..netlist.cells import CellLibrary
from ..netlist.circuit import Circuit
from ..sta.clock import ClockSpec
from ..sta.timing import analyze

__all__ = ["map_to_library", "upsize_critical_cells"]


def map_to_library(
    circuit: Circuit,
    library: Optional[CellLibrary] = None,
    protected: Iterable[str] = (),
) -> int:
    """Area-map: swap each gate to the smallest same-function cell.

    Protected gates (delay chains) keep their deliberately chosen cells.
    Returns the number of gates remapped.
    """
    library = library or circuit.library
    guard = frozenset(protected)
    changed = 0
    for gate in circuit.gates.values():
        if gate.name in guard:
            continue
        best = library.cheapest(gate.function)
        if best.name != gate.cell.name and best.inputs == gate.cell.inputs:
            circuit.replace_cell(gate.name, best)
            changed += 1
    circuit.library = library
    return changed


def upsize_critical_cells(
    circuit: Circuit,
    clock: ClockSpec,
    protected: Iterable[str] = (),
    max_passes: int = 4,
) -> int:
    """Greedy timing repair: upsize cells along violating paths.

    After area mapping some endpoints may miss setup; this swaps gates on
    the worst paths to faster same-function drive strengths until timing
    is met or no faster cell exists.  Returns the number of upsizes.
    """
    guard = frozenset(protected)
    total = 0
    for _ in range(max_passes):
        analysis = analyze(circuit, clock)
        violations = analysis.setup_violations()
        if not violations:
            break
        improved = False
        for endpoint in violations:
            for net in analysis.critical_path_to(endpoint.data_net):
                driver = circuit.driver_of(net)
                if driver is None or driver.name in guard:
                    continue
                candidates = [
                    c
                    for c in circuit.library.cells_for(driver.function)
                    if c.delay < driver.cell.delay and c.inputs == driver.cell.inputs
                ]
                if not candidates:
                    continue
                circuit.replace_cell(
                    driver.name, min(candidates, key=lambda c: c.delay)
                )
                total += 1
                improved = True
        if not improved:
            break
    return total
