"""Gate-level netlist core: cells, circuits, builders, and file I/O."""

from .cells import Cell, CellLibrary, default_library
from .circuit import Circuit, CircuitStats, Gate, NetlistError
from .compiled import CompiledCircuit, compile_circuit
from .builder import Builder
from .transform import (
    CombinationalExtraction,
    expose_as_key_input,
    extract_combinational,
    fanin_depths,
    remove_gates,
)
from .stats import Overhead, cell_histogram, overhead
from .equivalence import (
    EquivalenceResult,
    check_equivalence,
    check_sequential_equivalence,
)
from .atpg import Fault, TestPattern, fault_coverage, generate_test
from .bench_io import parse_bench, read_bench, write_bench
from .verilog_io import parse_verilog, read_verilog, write_verilog

__all__ = [
    "Cell",
    "CellLibrary",
    "default_library",
    "Circuit",
    "CircuitStats",
    "Gate",
    "NetlistError",
    "CompiledCircuit",
    "compile_circuit",
    "Builder",
    "CombinationalExtraction",
    "expose_as_key_input",
    "extract_combinational",
    "fanin_depths",
    "remove_gates",
    "EquivalenceResult",
    "Fault",
    "TestPattern",
    "fault_coverage",
    "generate_test",
    "check_equivalence",
    "check_sequential_equivalence",
    "Overhead",
    "cell_histogram",
    "overhead",
    "parse_bench",
    "read_bench",
    "write_bench",
    "parse_verilog",
    "read_verilog",
    "write_verilog",
]
