"""Standard-cell library model.

The paper synthesizes its benchmarks with the TSMC 0.13um (CL013G)
1.2-Volt SAGE-X standard-cell library.  That library is proprietary, so
this module provides a synthetic stand-in with 0.13um-class areas and
delays.  Everything the reproduction measures is *relative* (area
overhead percentages, slack distributions, glitch windows against a
clock period), so only the relative sizing between cells matters; the
values below are chosen to be plausible for a 0.13um process.

A :class:`Cell` is a template (a "library cell"); gate *instances* in a
netlist reference cells by name (see :mod:`repro.netlist.circuit`).

Cell functions are identified by symbolic names (``"NAND2"``,
``"MUX2"``, ...) which the simulators evaluate via
:func:`repro.sim.logic.eval_function`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, Iterator, Optional, Tuple

__all__ = [
    "Cell",
    "CellLibrary",
    "default_library",
    "custom_delay_library",
    "COMBINATIONAL_FUNCTIONS",
    "SEQUENTIAL_FUNCTIONS",
]

#: Symbolic functions understood by the evaluators.  ``LUT`` cells carry
#: an explicit truth table on the gate instance instead.
COMBINATIONAL_FUNCTIONS = frozenset(
    {
        "BUF",
        "INV",
        "AND2",
        "NAND2",
        "OR2",
        "NOR2",
        "XOR2",
        "XNOR2",
        "MUX2",
        "MUX4",
        "TIE0",
        "TIE1",
        "LUT",
    }
)

SEQUENTIAL_FUNCTIONS = frozenset({"DFF", "SDFF"})


@dataclass(frozen=True)
class Cell:
    """A library cell template.

    Attributes:
        name: Library name, e.g. ``"NAND2_X1"``.
        function: Symbolic function, e.g. ``"NAND2"`` (see
            :data:`COMBINATIONAL_FUNCTIONS` / :data:`SEQUENTIAL_FUNCTIONS`).
        inputs: Ordered input pin names.  For MUXes the select pins come
            last (``("A", "B", "S")`` / ``("A", "B", "C", "D", "S0", "S1")``).
            For flip-flops the pins are ``("D", "CLK")`` (plus ``SI``/``SE``
            for scan flops).
        output: Output pin name (single-output cells only).
        area: Cell area in um^2.
        delay: Nominal pin-to-output propagation delay in ns
            (rise == fall).  For flip-flops this is the CLK->Q delay.
        setup: Setup time in ns (sequential cells only).
        hold: Hold time in ns (sequential cells only).
    """

    name: str
    function: str
    inputs: Tuple[str, ...]
    output: str
    area: float
    delay: float
    setup: float = 0.0
    hold: float = 0.0

    @property
    def is_sequential(self) -> bool:
        return self.function in SEQUENTIAL_FUNCTIONS

    @property
    def num_inputs(self) -> int:
        return len(self.inputs)

    def __post_init__(self) -> None:
        if self.function not in COMBINATIONAL_FUNCTIONS | SEQUENTIAL_FUNCTIONS:
            raise ValueError(f"unknown cell function {self.function!r}")
        if self.area < 0 or self.delay < 0:
            raise ValueError(f"cell {self.name}: negative area/delay")


class CellLibrary:
    """A collection of :class:`Cell` templates, indexed by name.

    Also offers the queries the synthesis substrate needs: the cheapest
    cell implementing a function, and the set of cells usable as delay
    elements.
    """

    #: function -> cells_for() answer; cleared by add(), never pickled
    #: (class default for libraries pickled before it existed)
    _by_function: Optional[Dict[str, Tuple[Cell, ...]]] = None

    def __init__(self, name: str, cells: Iterable[Cell] = ()) -> None:
        self.name = name
        self._cells: Dict[str, Cell] = {}
        for cell in cells:
            self.add(cell)

    def __getstate__(self) -> Dict[str, object]:
        state = dict(self.__dict__)
        state.pop("_by_function", None)
        return state

    def add(self, cell: Cell) -> None:
        if cell.name in self._cells:
            raise ValueError(f"duplicate cell {cell.name!r} in library {self.name!r}")
        self._cells[cell.name] = cell
        self._by_function = None

    def __getitem__(self, name: str) -> Cell:
        try:
            return self._cells[name]
        except KeyError:
            raise KeyError(f"cell {name!r} not in library {self.name!r}") from None

    def __contains__(self, name: str) -> bool:
        return name in self._cells

    def __iter__(self) -> Iterator[Cell]:
        return iter(self._cells.values())

    def __len__(self) -> int:
        return len(self._cells)

    def cells_for(self, function: str) -> Tuple[Cell, ...]:
        """All cells implementing *function*, cheapest (by area) first
        (memoized per function until the next :meth:`add`)."""
        if self._by_function is None:
            self._by_function = {}
        found = self._by_function.get(function)
        if found is None:
            matches = [c for c in self._cells.values() if c.function == function]
            matches.sort(key=lambda c: (c.area, c.delay, c.name))
            found = self._by_function[function] = tuple(matches)
        return found

    def cheapest(self, function: str) -> Cell:
        """The smallest-area cell implementing *function*."""
        matches = self.cells_for(function)
        if not matches:
            raise KeyError(
                f"no cell with function {function!r} in library {self.name!r}"
            )
        return matches[0]

    def delay_elements(self) -> Tuple[Cell, ...]:
        """Cells usable as delay elements (buffers and inverters).

        The paper composes its GK/KEYGEN delays out of ordinary library
        buffers/inverters ("the inserted delay elements, e.g. inverters
        or buffers, are all from the cell library"), which is why the
        area overhead per GK is large.  Sorted by delay descending so a
        greedy composer picks few large cells first.
        """
        elems = [c for c in self._cells.values() if c.function in ("BUF", "INV")]
        elems.sort(key=lambda c: (-c.delay, c.area, c.name))
        return tuple(elems)


def default_library() -> CellLibrary:
    """The synthetic 0.13um-class library used throughout the repo.

    Delay/area ratios loosely follow public 130nm educational libraries:
    an inverter is the smallest/fastest cell, XOR/XNOR/MUX cost roughly
    2.5x an inverter, and a D flip-flop costs ~5x.  Several buffer drive
    strengths exist so the delay-element synthesizer has a coarse menu,
    mirroring how Design Compiler maps "a unique delay it needs" from a
    discrete library.
    """
    lib = CellLibrary("repro013")
    one = ("A",)
    two = ("A", "B")

    def c(name, function, inputs, area, delay, setup=0.0, hold=0.0):
        lib.add(
            Cell(
                name=name,
                function=function,
                inputs=inputs,
                output="Y" if function not in SEQUENTIAL_FUNCTIONS else "Q",
                area=area,
                delay=delay,
                setup=setup,
                hold=hold,
            )
        )

    # Inverters / buffers (several drive strengths -> delay menu).
    c("INV_X1", "INV", one, 3.2, 0.040)
    c("INV_X2", "INV", one, 4.3, 0.030)
    c("BUF_X1", "BUF", one, 4.3, 0.080)
    c("BUF_X2", "BUF", one, 5.4, 0.065)
    c("BUF_X4", "BUF", one, 7.5, 0.055)
    # Slow buffers: real libraries expose a handful of dedicated delay
    # buffers; ours are deliberately coarse so that hitting an arbitrary
    # target delay needs a chain of several cells (the paper's "far from
    # optimal" delay composition).
    c("DLY_X1", "BUF", one, 4.8, 0.250)
    c("DLY_X2", "BUF", one, 6.5, 0.500)

    # Two-input logic.
    c("NAND2_X1", "NAND2", two, 4.3, 0.050)
    c("NOR2_X1", "NOR2", two, 4.3, 0.060)
    c("AND2_X1", "AND2", two, 5.4, 0.090)
    c("OR2_X1", "OR2", two, 5.4, 0.100)
    c("XOR2_X1", "XOR2", two, 8.6, 0.120)
    c("XNOR2_X1", "XNOR2", two, 8.6, 0.120)

    # Multiplexers.  Select pins come last.
    c("MUX2_X1", "MUX2", ("A", "B", "S"), 8.6, 0.110)
    c("MUX4_X1", "MUX4", ("A", "B", "C", "D", "S0", "S1"), 17.2, 0.180)

    # Constant tie cells.
    c("TIE0_X1", "TIE0", (), 1.1, 0.0)
    c("TIE1_X1", "TIE1", (), 1.1, 0.0)

    # Flip-flops.  delay is CLK->Q.
    c("DFF_X1", "DFF", ("D", "CLK"), 16.1, 0.150, setup=0.120, hold=0.050)
    c("SDFF_X1", "SDFF", ("D", "SI", "SE", "CLK"), 21.5, 0.170, setup=0.130, hold=0.060)

    # Look-up tables for the withholding defense (Sec. V-D).  Area grows
    # with 2^k configuration bits; delay is a single table lookup.
    c("LUT2_X1", "LUT", ("I0", "I1"), 21.5, 0.200)
    c("LUT3_X1", "LUT", ("I0", "I1", "I2"), 38.7, 0.240)
    c("LUT4_X1", "LUT", ("I0", "I1", "I2", "I3"), 71.0, 0.280)

    return lib


def custom_delay_library() -> CellLibrary:
    """The default library plus *customized delay elements*.

    The paper's future work: "When the customized delay elements for GKs
    are available, the area overhead will be significantly reduced."
    This library models that world — a binary-weighted menu of dedicated
    delay cells, each the size of a small buffer, so any GK/KEYGEN delay
    composes from a handful of cells instead of a long chain of ordinary
    buffers.  The custom-delay ablation bench re-runs Table II against
    it to quantify the predicted saving.
    """
    lib = default_library()
    one = ("A",)
    for index, delay in enumerate((0.1, 0.2, 0.4, 0.8, 1.6)):
        lib.add(
            Cell(
                name=f"DLYC_X{index}",
                function="BUF",
                inputs=one,
                output="Y",
                area=3.8,  # a dedicated delay cell is barely buffer-sized
                delay=delay,
            )
        )
    return lib
