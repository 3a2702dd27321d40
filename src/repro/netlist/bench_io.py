"""ISCAS / IWLS ``.bench`` format reader and writer.

The paper's benchmarks (s1238, s5378, ...) are traditionally distributed
in the ``.bench`` format::

    INPUT(G0)
    OUTPUT(G17)
    G10 = DFF(G14)
    G11 = NAND(G0, G10)
    G17 = NOT(G11)

The reader maps onto our cell library, decomposing wide AND/OR/NAND/NOR
gates into 2-input trees.  By logic-locking community convention,
inputs whose names start with ``keyin`` (e.g. ``keyinput0`` in public
locked benchmarks, ``keyin_x0`` from this repo's schemes) are classified
as key inputs.
"""

from __future__ import annotations

import re
from typing import Dict, Iterable, List, Optional, TextIO, Tuple

from .cells import CellLibrary, default_library
from .circuit import Circuit, NetlistError

__all__ = ["read_bench", "write_bench", "parse_bench"]

_LINE = re.compile(r"^\s*([\w.\[\]$]+)\s*=\s*(\w+)\s*\(([^)]*)\)\s*$")
_IO = re.compile(r"^\s*(INPUT|OUTPUT)\s*\(\s*([\w.\[\]$]+)\s*\)\s*$", re.IGNORECASE)

_ASSOCIATIVE = {"AND": "AND2", "OR": "OR2", "NAND": "NAND2", "NOR": "NOR2",
                "XOR": "XOR2", "XNOR": "XNOR2"}

#: Operand counts of the fixed-arity functions.
_ARITY = {"DFF": 1, "NOT": 1, "INV": 1, "BUF": 1, "BUFF": 1, "MUX": 3}


def parse_bench(
    text: str,
    name: str = "bench",
    library: Optional[CellLibrary] = None,
    key_prefix: str = "keyin",
) -> Circuit:
    """Parse ``.bench`` *text* into a :class:`Circuit`."""
    library = library or default_library()
    circuit = Circuit(name, library)
    inputs: List[str] = []
    outputs: List[str] = []
    gates: List[Tuple[str, str, List[str]]] = []

    for raw in text.splitlines():
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        io_match = _IO.match(line)
        if io_match:
            kind, net = io_match.group(1).upper(), io_match.group(2)
            (inputs if kind == "INPUT" else outputs).append(net)
            continue
        gate_match = _LINE.match(line)
        if not gate_match:
            raise NetlistError(f"cannot parse .bench line: {raw!r}")
        out, func, operand_text = gate_match.groups()
        operands = [tok.strip() for tok in operand_text.split(",") if tok.strip()]
        func = func.upper()
        if func in _ARITY and len(operands) != _ARITY[func]:
            raise NetlistError(
                f"{func} takes {_ARITY[func]} operand(s), got "
                f"{len(operands)}: {raw!r}"
            )
        gates.append((out, func, operands))

    has_ff = any(func == "DFF" for _, func, _ in gates)
    if has_ff:
        circuit.set_clock("clock")
    for net in inputs:
        if net.startswith(key_prefix):
            circuit.add_key_input(net)
        else:
            circuit.add_input(net)

    counter = [0]

    def fresh() -> str:
        counter[0] += 1
        return f"_b{counter[0]}"

    def add2(func2: str, a: str, b: str, out: str) -> None:
        cell = library.cheapest(func2)
        pins = {"A": a, "B": b}
        circuit.add_gate(circuit.new_gate_name(func2.lower()), cell.name, pins, out)

    for out, func, operands in gates:
        if func == "DFF":
            (d,) = operands
            circuit.add_gate(
                circuit.new_gate_name("dff"),
                "DFF_X1",
                {"D": d, "CLK": "clock"},
                out,
            )
        elif func in ("NOT", "INV"):
            (a,) = operands
            circuit.add_gate(
                circuit.new_gate_name("inv"),
                library.cheapest("INV").name,
                {"A": a},
                out,
            )
        elif func in ("BUF", "BUFF"):
            (a,) = operands
            circuit.add_gate(
                circuit.new_gate_name("buf"),
                library.cheapest("BUF").name,
                {"A": a},
                out,
            )
        elif func == "MUX":
            a, b, s = operands
            circuit.add_gate(
                circuit.new_gate_name("mux2"),
                library.cheapest("MUX2").name,
                {"A": a, "B": b, "S": s},
                out,
            )
        elif func in _ASSOCIATIVE:
            base = _ASSOCIATIVE[func]
            if len(operands) < 2:
                raise NetlistError(f"{func} needs >= 2 operands: {out}")
            if len(operands) == 2:
                add2(base, operands[0], operands[1], out)
                continue
            # Decompose n-ary gates: inner tree uses the non-inverting
            # form, the final 2-input stage applies the inversion.
            inner = {"NAND2": "AND2", "NOR2": "OR2", "XNOR2": "XOR2"}.get(base, base)
            acc = operands[0]
            for operand in operands[1:-1]:
                nxt = fresh()
                add2(inner, acc, operand, nxt)
                acc = nxt
            add2(base, acc, operands[-1], out)
        else:
            raise NetlistError(f"unsupported .bench function {func!r}")

    for net in outputs:
        circuit.add_output(net)
    circuit.validate()
    return circuit


def read_bench(stream: TextIO, name: str = "bench", **kwargs) -> Circuit:
    return parse_bench(stream.read(), name=name, **kwargs)


_WRITE_FUNC = {
    "INV": "NOT",
    "BUF": "BUFF",
    "AND2": "AND",
    "NAND2": "NAND",
    "OR2": "OR",
    "NOR2": "NOR",
    "XOR2": "XOR",
    "XNOR2": "XNOR",
    "MUX2": "MUX",
}


def write_bench(circuit: Circuit, stream: TextIO) -> None:
    """Serialize to ``.bench``.

    MUX4, LUT, and TIE cells have no .bench equivalent and are expanded
    or rejected: TIEs are written as ``vdd``/``gnd`` style constants via
    an XOR trick is *not* attempted — circuits destined for .bench
    should be synthesized to the basic gate set first.
    """
    stream.write(f"# {circuit.name}\n")
    for net in circuit.inputs:
        stream.write(f"INPUT({net})\n")
    for net in circuit.key_inputs:
        stream.write(f"INPUT({net})\n")
    for net in circuit.outputs:
        stream.write(f"OUTPUT({net})\n")
    for gate in sorted(circuit.gates.values(), key=lambda g: g.name):
        if gate.is_flip_flop:
            stream.write(f"{gate.output} = DFF({gate.pins['D']})\n")
            continue
        func = _WRITE_FUNC.get(gate.function)
        if func is None:
            raise NetlistError(
                f"gate {gate.name}: function {gate.function} has no .bench form"
            )
        if gate.function == "MUX2":
            operands = [gate.pins["A"], gate.pins["B"], gate.pins["S"]]
        else:
            operands = list(gate.input_nets())
        stream.write(f"{gate.output} = {func}({', '.join(operands)})\n")
