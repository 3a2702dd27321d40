"""Logic optimization passes (the Design Compiler stand-in).

Four classic netlist-level passes, each safe and semantics-preserving:

* constant propagation (TIE cells and constant-producing gates),
* inverter/buffer chain simplification,
* structural hashing (merging identical gates),
* dead-gate sweeping.

Every pass honours a *protected* gate set: gates that carry deliberate
design constraints — the GK delay chains — must survive re-synthesis,
exactly as the paper keeps its inserted delay elements alive by setting
design constraints on those paths (Sec. IV-B).
"""

from __future__ import annotations

from typing import Dict, FrozenSet, Iterable, List, Optional, Set, Tuple

from ..netlist.circuit import Circuit, Gate
from ..obs.spans import trace_span

__all__ = ["optimize", "sweep_dead_gates", "propagate_constants",
           "simplify_inverters", "hash_structural"]


def _root_net(aliases: Dict[str, str], net: str) -> str:
    while net in aliases:
        net = aliases[net]
    return net


def _apply_aliases(circuit: Circuit, aliases: Dict[str, str]) -> None:
    """Rewire every reader of an aliased net to the alias root."""
    if not aliases:
        return
    for old in list(aliases):
        root = _root_net(aliases, old)
        if old != root:
            circuit.rewire_sinks(old, root)


def propagate_constants(
    circuit: Circuit, protected: FrozenSet[str] = frozenset()
) -> int:
    """Fold gates whose output is constant; returns #gates removed.

    Constants originate at TIE cells and propagate through controlling
    inputs (AND with 0, OR with 1, MUX with constant select, ...).
    Gates that become constant are replaced by a shared TIE cell.

    A forward pass from the TIE outputs through their readers finds the
    constant nets first (exact: a net that becomes constant never turns
    unknown again).  When it reaches no unprotected non-TIE gate there
    is nothing to replace, and the topological scan is skipped.
    """
    if not _folds_anything(circuit, protected):
        return 0
    changed = 0
    # The structural edits below invalidate the topological order, but
    # the scan is complete by then.
    const_of: Dict[str, int] = {}
    for gate in circuit.topological_order():
        operands = [const_of.get(net) for net in gate.input_nets()]
        value = _const_eval(gate.function, operands)
        if value is not None:
            const_of[gate.output] = value
    if not const_of:
        return 0
    tie_nets: Dict[int, str] = {}

    def tie(value: int) -> str:
        net = tie_nets.get(value)
        if net is None:
            net = circuit.new_net(f"const{value}")
            cell = "TIE1_X1" if value else "TIE0_X1"
            circuit.add_gate(circuit.new_gate_name("tie"), cell, {}, net)
            tie_nets[value] = net
        return net

    for net, value in const_of.items():
        driver = circuit.driver_of(net)
        if driver is None or driver.name in protected:
            continue
        if driver.function in ("TIE0", "TIE1"):
            continue
        replacement = tie(value)
        circuit.rewire_sinks(net, replacement)
        changed += 1
    return changed


def _folds_anything(circuit: Circuit, protected: FrozenSet[str]) -> bool:
    """Does some unprotected non-TIE gate compute a constant?"""
    ffs = circuit.flip_flop_names()
    const_of: Dict[str, int] = {}
    stack: List[Gate] = []
    for gate in circuit.gates.values():
        if gate.cell.function in ("TIE0", "TIE1"):
            const_of[gate.output] = _const_eval(gate.cell.function, ())
            stack.append(gate)
    while stack:
        for name, _pin in circuit.fanout_pins(stack.pop().output):
            reader = circuit.gates[name]
            if reader.output in const_of or name in ffs:
                continue
            value = _const_eval(
                reader.function,
                [const_of.get(net) for net in reader.input_nets()])
            if value is not None:
                if name not in protected:
                    return True
                const_of[reader.output] = value
                stack.append(reader)
    return False


def _const_eval(function: str, operands) -> Optional[int]:
    """Output value of a *function* cell if constant inputs force one."""
    f = function
    if f == "TIE0":
        return 0
    if f == "TIE1":
        return 1
    if f == "BUF":
        return operands[0]
    if f == "INV":
        return None if operands[0] is None else 1 - operands[0]
    if f in ("AND2", "NAND2"):
        if 0 in operands:
            return 0 if f == "AND2" else 1
        if operands[0] == 1 and operands[1] == 1:
            return 1 if f == "AND2" else 0
        return None
    if f in ("OR2", "NOR2"):
        if 1 in operands:
            return 1 if f == "OR2" else 0
        if operands[0] == 0 and operands[1] == 0:
            return 0 if f == "OR2" else 1
        return None
    if f in ("XOR2", "XNOR2"):
        if None in operands:
            return None
        val = operands[0] ^ operands[1]
        return val if f == "XOR2" else 1 - val
    if f == "MUX2":
        a, b, s = operands
        if s == 0:
            return a
        if s == 1:
            return b
        if a is not None and a == b:
            return a
        return None
    # MUX4/LUT constant folding is possible but rare; skip.
    return None


def simplify_inverters(
    circuit: Circuit, protected: FrozenSet[str] = frozenset()
) -> int:
    """Collapse INV(INV(x)) -> x and BUF(x) -> x; returns #gates bypassed.

    The gates themselves are left for :func:`sweep_dead_gates` (they may
    still drive a PO or a protected path).
    """
    changed = 0
    for gate in list(circuit.gates.values()):
        if gate.name in protected:
            continue
        if gate.function == "BUF":
            source = gate.pins["A"]
            if gate.output in circuit.outputs:
                continue  # keep PO buffers: they pin the output name
            circuit.rewire_sinks(gate.output, source, rewire_outputs=False)
            changed += 1
        elif gate.function == "INV":
            inner = circuit.driver_of(gate.pins["A"])
            if (
                inner is not None
                and inner.function == "INV"
                and inner.name not in protected
                and gate.output not in circuit.outputs
            ):
                circuit.rewire_sinks(
                    gate.output, inner.pins["A"], rewire_outputs=False
                )
                changed += 1
    return changed


def hash_structural(
    circuit: Circuit, protected: FrozenSet[str] = frozenset()
) -> int:
    """Merge gates computing the identical function of identical nets."""
    changed = 0
    seen: Dict[Tuple, str] = {}
    for gate in circuit.topological_order():
        if gate.name in protected or gate.function in ("TIE0", "TIE1"):
            continue
        operands = gate.input_nets()
        if gate.function in ("AND2", "OR2", "NAND2", "NOR2", "XOR2", "XNOR2"):
            operands = tuple(sorted(operands))  # commutative
        key = (gate.cell.name, operands, gate.truth_table)
        existing = seen.get(key)
        if existing is None:
            seen[key] = gate.output
        elif gate.output not in circuit.outputs:
            circuit.rewire_sinks(gate.output, existing, rewire_outputs=False)
            changed += 1
    return changed


def sweep_dead_gates(
    circuit: Circuit, protected: FrozenSet[str] = frozenset()
) -> int:
    """Remove gates not feeding any PO or flip-flop; returns #removed."""
    live: Set[str] = set(circuit.flip_flop_names())
    stack = list(circuit.outputs)
    stack += [ff.pins["D"] for ff in circuit.flip_flops()]
    for name in protected:
        if name in circuit.gates:
            live.add(name)
            stack.extend(circuit.gates[name].pins.values())
    while stack:
        net = stack.pop()
        driver = circuit.driver_of(net)
        if driver is None or driver.name in live:
            continue
        # flip-flops are live from the start: this driver is combinational
        live.add(driver.name)
        stack.extend(driver.pins.values())
    dead = [name for name in circuit.gates if name not in live]
    for name in dead:
        circuit.remove_gate(name)
    return len(dead)


def optimize(
    circuit: Circuit,
    protected: Iterable[str] = (),
    max_rounds: int = 10,
) -> int:
    """Run all passes to a fixpoint; returns total #changes.

    *protected* gates (delay chains, key gates under constraint) are
    never folded, bypassed, merged, or swept.
    """
    guard = frozenset(protected)
    total = 0
    with trace_span("synth.optimize", design=circuit.name,
                    protected=len(guard)) as span:
        for _ in range(max_rounds):
            changed = 0
            changed += propagate_constants(circuit, guard)
            changed += simplify_inverters(circuit, guard)
            changed += hash_structural(circuit, guard)
            changed += sweep_dead_gates(circuit, guard)
            total += changed
            if changed == 0:
                break
        circuit.validate()
        span.annotate(changes=total)
    return total
