"""SAT substrate: CNF, CDCL solver, Tseitin encoding."""

from .cnf import CNF
from .solver import Solver, luby
from .tseitin import CircuitEncoder, encode_circuit

__all__ = ["CNF", "Solver", "luby", "CircuitEncoder", "encode_circuit"]
