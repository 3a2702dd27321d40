"""Tseitin encoding: netlists to CNF.

This is the bridge the SAT attack [11] uses: it turns the combinational
view of a circuit into clauses over one variable per net.  Multiple
copies of the same circuit can share a :class:`CNF` (the attack's miter
uses two copies that share every key-independent net but have
independent keys), so the encoder is instantiated per copy and exposes
the variable map.
"""

from __future__ import annotations

from typing import Dict, Iterable, Mapping, Optional

from ..netlist.circuit import Circuit, Gate, NetlistError
from ..netlist.compiled import compile_circuit
from .cnf import CNF

__all__ = ["CircuitEncoder", "encode_circuit", "encode_gate_function"]


def encode_gate_function(
    cnf: CNF,
    function: str,
    out: int,
    operands: "list[int]",
    truth_table=None,
) -> None:
    """Clauses for ``out <-> function(operands)`` over explicit variables.

    Shared by the plain circuit encoder and the time-expanded (TCF)
    encoder, which wires the same cell functions between variables of
    different time ticks.
    """
    if function == "BUF":
        cnf.add_equal(out, operands[0])
    elif function == "INV":
        cnf.add_equal(out, -operands[0])
    elif function == "AND2":
        cnf.add_and(out, operands)
    elif function == "NAND2":
        cnf.add_and(-out, operands)
    elif function == "OR2":
        cnf.add_or(out, operands)
    elif function == "NOR2":
        cnf.add_or(-out, operands)
    elif function == "XOR2":
        cnf.add_xor(out, operands[0], operands[1])
    elif function == "XNOR2":
        cnf.add_xor(-out, operands[0], operands[1])
    elif function == "MUX2":
        a, b, sel = operands
        cnf.add_mux(out, a, b, sel)
    elif function == "MUX4":
        a, b, c, d, s0, s1 = operands
        low = cnf.new_var()
        high = cnf.new_var()
        cnf.add_mux(low, a, b, s0)
        cnf.add_mux(high, c, d, s0)
        cnf.add_mux(out, low, high, s1)
    elif function == "TIE0":
        cnf.add_clause([-out])
    elif function == "TIE1":
        cnf.add_clause([out])
    elif function == "LUT":
        if truth_table is None:
            raise NetlistError("LUT encoding needs a truth table")
        for index, bit in enumerate(truth_table):
            selector = [
                operands[i] if (index >> i) & 1 else -operands[i]
                for i in range(len(operands))
            ]
            cnf.add_clause([-lit for lit in selector] + [out if bit else -out])
    else:
        raise NetlistError(f"cannot encode function {function!r}")


class CircuitEncoder:
    """Encodes one combinational copy of a circuit into a shared CNF.

    Args:
        cnf: Formula to append clauses/variables to.
        circuit: Circuit to encode.  It must be purely combinational
            (run it through
            :func:`repro.netlist.transform.extract_combinational` first
            if it has flip-flops).
        net_vars: Pre-assigned literals for some nets (used to share
            primary inputs, or whole key-independent subcircuits, between
            miter copies).  A gate whose output is pre-assigned is not
            encoded again.  Remaining nets get fresh variables.
    """

    def __init__(
        self,
        cnf: CNF,
        circuit: Circuit,
        net_vars: Optional[Mapping[str, int]] = None,
    ) -> None:
        if circuit.flip_flops():
            raise NetlistError(
                f"circuit {circuit.name!r} is sequential; "
                "extract the combinational core before encoding"
            )
        self.cnf = cnf
        self.circuit = circuit
        self.var_of: Dict[str, int] = dict(net_vars or {})
        self._encode()

    def _var(self, net: str) -> int:
        var = self.var_of.get(net)
        if var is None:
            var = self.cnf.new_var()
            self.var_of[net] = var
        return var

    def _encode(self) -> None:
        # Walk the compiled schedule: same gate order as
        # ``topological_order()`` and same pin order within each gate,
        # so variable numbering is identical to the object-graph walk.
        compiled = compile_circuit(self.circuit)
        for net in self.circuit.inputs + self.circuit.key_inputs:
            self._var(net)
        for i in range(compiled.num_gates):
            if compiled.out_names[i] in self.var_of:
                continue  # pre-bound by the caller: already encoded
            out = self._var(compiled.out_names[i])
            operands = [
                self._var(net) for net in compiled.fanin_name_tuples[i]
            ]
            encode_gate_function(
                self.cnf, compiled.functions[i], out, operands,
                compiled.truth_tables[i],
            )
        for net in self.circuit.outputs:
            self._var(net)

    def output_vars(self) -> Dict[str, int]:
        return {net: self.var_of[net] for net in self.circuit.outputs}

    def input_vars(self) -> Dict[str, int]:
        return {net: self.var_of[net] for net in self.circuit.inputs}

    def key_vars(self) -> Dict[str, int]:
        return {net: self.var_of[net] for net in self.circuit.key_inputs}


def encode_circuit(
    circuit: Circuit, net_vars: Optional[Mapping[str, int]] = None
) -> CircuitEncoder:
    """Encode *circuit* into a fresh :class:`CNF`; returns the encoder."""
    return CircuitEncoder(CNF(), circuit, net_vars)
