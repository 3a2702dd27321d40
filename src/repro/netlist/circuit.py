"""Gate-level netlist data structure.

A :class:`Circuit` is a named collection of gate instances connected by
nets.  Nets are plain strings; connectivity is maintained in driver and
fanout indexes so insertion/rewiring (the bread and butter of logic
locking) is cheap.

Conventions used throughout the repo:

* ``circuit.inputs`` are the ordinary primary inputs (PIs), in order.
* ``circuit.key_inputs`` are key inputs added by a locking scheme, kept
  separate from the PIs because every attack needs to tell them apart.
* ``circuit.clock`` is the clock net of sequential designs; it is *not*
  listed in ``inputs`` and only flip-flop CLK pins may use it.
* ``circuit.outputs`` are the primary output nets, in order.  A net may
  be both internal and a PO.
* Every net has exactly one driver: a PI, a key input, the clock, or a
  gate output.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import (
    Any, Callable, Dict, FrozenSet, Hashable, Iterable, List, Optional,
    Sequence, Set, Tuple,
)

from .cells import Cell, CellLibrary, default_library

__all__ = ["Gate", "Circuit", "CircuitStats", "NetlistError"]


class NetlistError(ValueError):
    """Raised on malformed netlist operations (duplicate drivers, ...)."""


@dataclass
class Gate:
    """A gate instance.

    Attributes:
        name: Instance name, unique within the circuit.
        cell: The library :class:`~repro.netlist.cells.Cell` template.
        pins: Input pin name -> net name.  Must cover ``cell.inputs``.
        output: Net driven by the cell's output pin.
        truth_table: For ``LUT`` cells only: tuple of 2**k output bits,
            indexed by ``sum(value(I_i) << i)``.
    """

    name: str
    cell: Cell
    pins: Dict[str, str]
    output: str
    truth_table: Optional[Tuple[int, ...]] = None

    @property
    def is_flip_flop(self) -> bool:
        return self.cell.is_sequential

    @property
    def function(self) -> str:
        return self.cell.function

    def input_nets(self) -> Tuple[str, ...]:
        """Input nets in the cell's declared pin order."""
        return tuple(self.pins[p] for p in self.cell.inputs)

    def validate(self) -> None:
        missing = [p for p in self.cell.inputs if p not in self.pins]
        if missing:
            raise NetlistError(f"gate {self.name}: unconnected pins {missing}")
        extra = [p for p in self.pins if p not in self.cell.inputs]
        if extra:
            raise NetlistError(f"gate {self.name}: unknown pins {extra}")
        if self.cell.function == "LUT":
            want = 1 << len(self.cell.inputs)
            if self.truth_table is None or len(self.truth_table) != want:
                raise NetlistError(
                    f"gate {self.name}: LUT needs a {want}-entry truth table"
                )
            if any(b not in (0, 1) for b in self.truth_table):
                raise NetlistError(f"gate {self.name}: truth table bits must be 0/1")
        elif self.truth_table is not None:
            raise NetlistError(f"gate {self.name}: truth table on non-LUT cell")


@dataclass(frozen=True)
class CircuitStats:
    """Post-synthesis statistics, as reported in the paper's Table I/II."""

    num_cells: int
    num_flip_flops: int
    num_combinational: int
    area: float
    num_inputs: int
    num_outputs: int
    num_key_inputs: int


class Circuit:
    """A gate-level netlist over a :class:`CellLibrary`.

    Structural queries that are pure functions of the netlist —
    :meth:`topological_order` and the compiled IR built by
    :func:`repro.netlist.compiled.compile_circuit` — are memoized behind
    a mutation counter, and so is the one entry :meth:`memo` keeps.
    Every structural edit goes through a method that bumps the counter,
    so stale derived state is impossible; code that pokes at ``_driver``
    directly must use :meth:`release_driver`.  :meth:`flip_flops` is
    memoized behind a second counter that only the edits able to change
    the flip-flop set bump (adding or removing a flip-flop, a cell
    swap), so rewires and combinational splices keep it.
    """

    # Class-level defaults keep instances pickled before these fields
    # existed loadable (the campaign cache stores pickled circuits).
    _mutations: int = 0
    _topo_cache = None  # (mutations, tuple of gates) or None
    _compiled_cache = None  # (mutations, CompiledCircuit) or None
    _ff_edits: int = 0
    _ff_cache = None  # (ff_edits, tuple of flip-flops, their names) or None
    _memo = None  # (mutations, key, value) or None; see memo()

    #: Memos left out of pickles: cheap to rebuild, and a campaign cache
    #: entry keeps the bytes it had before they existed.
    _UNPICKLED = ("_ff_edits", "_ff_cache", "_memo")

    def __init__(
        self,
        name: str,
        library: Optional[CellLibrary] = None,
        clock: Optional[str] = None,
    ) -> None:
        self.name = name
        self.library = library if library is not None else default_library()
        self.inputs: List[str] = []
        self.key_inputs: List[str] = []
        self.outputs: List[str] = []
        self.clock: Optional[str] = clock
        self.gates: Dict[str, Gate] = {}
        self._driver: Dict[str, str] = {}  # net -> gate name ("" for PIs/keys/clock)
        self._fanouts: Dict[str, Set[Tuple[str, str]]] = {}  # net -> {(gate, pin)}
        self._name_counter = itertools.count()
        self._mutations = 0
        self._topo_cache = None
        self._compiled_cache = None
        self._ff_edits = 0
        self._ff_cache = None
        self._memo = None
        if clock is not None:
            self._driver[clock] = ""

    def __getstate__(self) -> Dict[str, Any]:
        state = dict(self.__dict__)
        for name in self._UNPICKLED:
            state.pop(name, None)
        return state

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------

    def add_input(self, net: str) -> str:
        self._claim_driver(net, "")
        self.inputs.append(net)
        return net

    def add_key_input(self, net: str) -> str:
        self._claim_driver(net, "")
        self.key_inputs.append(net)
        return net

    def set_clock(self, net: str) -> str:
        if self.clock is not None:
            raise NetlistError(f"circuit {self.name} already has clock {self.clock}")
        self._claim_driver(net, "")
        self.clock = net
        return net

    def add_output(self, net: str) -> str:
        self.outputs.append(net)
        self._invalidate()
        return net

    def add_gate(
        self,
        name: str,
        cell_name: str,
        pins: Dict[str, str],
        output: str,
        truth_table: Optional[Sequence[int]] = None,
    ) -> Gate:
        """Instantiate library cell *cell_name* as gate *name*."""
        if name in self.gates:
            raise NetlistError(f"duplicate gate name {name!r}")
        cell = self.library[cell_name]
        gate = Gate(
            name=name,
            cell=cell,
            pins=dict(pins),
            output=output,
            truth_table=tuple(truth_table) if truth_table is not None else None,
        )
        gate.validate()
        self._claim_driver(output, name)
        self.gates[name] = gate
        if cell.is_sequential:
            self._ff_edits += 1
        for pin, net in gate.pins.items():
            self._fanouts.setdefault(net, set()).add((name, pin))
        return gate

    def remove_gate(self, name: str) -> Gate:
        """Remove a gate; its output net becomes undriven (caller rewires)."""
        gate = self.gates.pop(name)
        if gate.is_flip_flop:
            self._ff_edits += 1
        del self._driver[gate.output]
        for pin, net in gate.pins.items():
            self._fanouts[net].discard((name, pin))
        self._invalidate()
        return gate

    def new_net(self, prefix: str = "n") -> str:
        """A fresh net name not present in the circuit."""
        while True:
            candidate = f"{prefix}${next(self._name_counter)}"
            if candidate not in self._driver and candidate not in self._fanouts:
                return candidate

    def new_gate_name(self, prefix: str = "g") -> str:
        while True:
            candidate = f"{prefix}${next(self._name_counter)}"
            if candidate not in self.gates:
                return candidate

    def _claim_driver(self, net: str, driver: str) -> None:
        if net in self._driver:
            raise NetlistError(
                f"net {net!r} already driven in circuit {self.name!r}"
            )
        self._driver[net] = driver
        self._invalidate()

    def release_driver(self, net: str) -> None:
        """Forget *net*'s driver claim (the caller re-claims or drops it)."""
        del self._driver[net]
        self._invalidate()

    def replace_cell(self, gate_name: str, cell: Cell) -> None:
        """Swap a gate's library cell (resizing, delay derating).

        A swap can change the function and pin order the memoized
        compiled IR has baked in, so swaps must go through here rather
        than assigning ``gate.cell``.
        """
        self.gates[gate_name].cell = cell
        self._ff_edits += 1
        self._invalidate()

    def _invalidate(self) -> None:
        """Bump the mutation counter; memoized derived state goes stale."""
        self._mutations += 1

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------

    def nets(self) -> Set[str]:
        """All nets: driven ones plus any floating sink nets."""
        read = {net for net, pins in self._fanouts.items() if pins}
        return set(self._driver) | read | set(self.outputs)

    def driver_of(self, net: str) -> Optional[Gate]:
        """The gate driving *net*, or None if the net is a PI/key/clock."""
        name = self._driver.get(net)
        if name is None:
            raise NetlistError(f"net {net!r} has no driver")
        return self.gates[name] if name else None

    def is_primary(self, net: str) -> bool:
        """True if *net* is driven by a PI, key input, or the clock."""
        return self._driver.get(net) == ""

    def fanout_pins(self, net: str) -> Tuple[Tuple[str, str], ...]:
        """(gate name, pin) pairs reading *net*, deterministic order."""
        return tuple(sorted(self._fanouts.get(net, ())))

    def flip_flops(self) -> List[Gate]:
        """Flip-flops in insertion order (memoized; see the class
        docstring)."""
        return list(self._flip_flop_index()[0])

    def flip_flop_names(self) -> FrozenSet[str]:
        """Names of the flip-flops: the membership test hot loops use
        instead of ``gate.is_flip_flop``."""
        return self._flip_flop_index()[1]

    def _flip_flop_index(self) -> Tuple[Tuple[Gate, ...], FrozenSet[str]]:
        cached = self._ff_cache
        if cached is None or cached[0] != self._ff_edits:
            ffs = tuple(g for g in self.gates.values() if g.is_flip_flop)
            cached = (self._ff_edits, ffs, frozenset(g.name for g in ffs))
            self._ff_cache = cached
        return cached[1], cached[2]

    def combinational_gates(self) -> List[Gate]:
        return [g for g in self.gates.values() if not g.is_flip_flop]

    def gate_of_output(self, net: str) -> Optional[Gate]:
        return self.driver_of(net)

    def topological_order(self) -> List[Gate]:
        """Combinational gates in dependency order.

        Sources are PIs, key inputs, the clock, and flip-flop outputs;
        flip-flop D pins and POs are sinks.  Raises
        :class:`NetlistError` on a combinational cycle.

        The order is memoized behind the mutation counter: repeated
        calls between edits cost a list copy, not a Kahn pass.
        """
        cached = self._topo_cache
        if cached is not None and cached[0] == self._mutations:
            return list(cached[1])
        ffs = self.flip_flop_names()
        indegree: Dict[str, int] = {}
        dependents: Dict[str, List[str]] = {}
        for gate in self.gates.values():
            if gate.name in ffs:
                continue
            count = 0
            for net in set(gate.pins.values()):
                driver = self._driver.get(net, "")
                if driver and driver not in ffs:
                    count += 1
                    dependents.setdefault(driver, []).append(gate.name)
            indegree[gate.name] = count
        ready = sorted(name for name, deg in indegree.items() if deg == 0)
        order: List[Gate] = []
        while ready:
            name = ready.pop()
            order.append(self.gates[name])
            for dep in dependents.get(name, ()):  # unique driver => once per edge
                indegree[dep] -= 1
                if indegree[dep] == 0:
                    ready.append(dep)
        if len(order) != len(indegree):
            cyclic = sorted(n for n, d in indegree.items() if d > 0)
            raise NetlistError(f"combinational cycle through gates {cyclic[:8]}")
        self._topo_cache = (self._mutations, tuple(order))
        return order

    def memo(
        self, key: Hashable, compute: Callable[[], Any]
    ) -> Tuple[Any, bool]:
        """``compute()``, kept on the netlist until its next edit.

        One entry per netlist: a call with another *key* recomputes and
        replaces it.  The entry never goes into a pickle.  Returns the
        value and whether it came from the entry.  GK planning keeps a
        design's plan here (:func:`repro.core.insertion.plan_design`).
        """
        cached = self._memo
        if (cached is not None and cached[0] == self._mutations
                and cached[1] == key):
            return cached[2], True
        stamp = self._mutations
        value = compute()
        self._memo = (stamp, key, value)
        return value, False

    def stats(self) -> CircuitStats:
        ffs = self.flip_flops()
        area = sum(g.cell.area for g in self.gates.values())
        return CircuitStats(
            num_cells=len(self.gates),
            num_flip_flops=len(ffs),
            num_combinational=len(self.gates) - len(ffs),
            area=area,
            num_inputs=len(self.inputs),
            num_outputs=len(self.outputs),
            num_key_inputs=len(self.key_inputs),
        )

    # ------------------------------------------------------------------
    # Editing
    # ------------------------------------------------------------------

    def rewire_sinks(
        self,
        old_net: str,
        new_net: str,
        sinks: Optional[Iterable[Tuple[str, str]]] = None,
        rewire_outputs: bool = True,
    ) -> int:
        """Move sink pins of *old_net* onto *new_net*.

        This is the primitive behind key-gate insertion: drive *new_net*
        with the key-gate, then move the original fanout over.  If
        *sinks* is given, only those (gate, pin) pairs move; otherwise
        every reader moves.  PO references move when *rewire_outputs*.
        Returns the number of connections moved.
        """
        if sinks is None:
            chosen = set(self._fanouts.get(old_net, ()))
        else:
            chosen = set(sinks)
            unknown = chosen - self._fanouts.get(old_net, set())
            if unknown:
                raise NetlistError(f"sinks {sorted(unknown)} do not read {old_net!r}")
        moved = 0
        for gate_name, pin in chosen:
            gate = self.gates[gate_name]
            gate.pins[pin] = new_net
            self._fanouts[old_net].discard((gate_name, pin))
            self._fanouts.setdefault(new_net, set()).add((gate_name, pin))
            moved += 1
        if rewire_outputs and sinks is None:
            for i, net in enumerate(self.outputs):
                if net == old_net:
                    self.outputs[i] = new_net
                    moved += 1
        self._invalidate()
        return moved

    def reconnect_pin(self, gate_name: str, pin: str, new_net: str) -> None:
        """Point one input pin of *gate_name* at *new_net*."""
        gate = self.gates[gate_name]
        if pin not in gate.pins:
            raise NetlistError(f"gate {gate_name} has no pin {pin!r}")
        old_net = gate.pins[pin]
        gate.pins[pin] = new_net
        self._fanouts[old_net].discard((gate_name, pin))
        self._fanouts.setdefault(new_net, set()).add((gate_name, pin))
        self._invalidate()

    def clone(self, name: Optional[str] = None) -> "Circuit":
        """A deep, independent copy of this circuit."""
        other = Circuit(name or self.name, self.library)
        other.inputs = list(self.inputs)
        other.key_inputs = list(self.key_inputs)
        other.outputs = list(self.outputs)
        other.clock = self.clock
        other._driver = dict(self._driver)
        other._fanouts = {net: set(pins) for net, pins in self._fanouts.items()}
        other.gates = {
            name: Gate(
                name=g.name,
                cell=g.cell,
                pins=dict(g.pins),
                output=g.output,
                truth_table=g.truth_table,
            )
            for name, g in self.gates.items()
        }
        return other

    # ------------------------------------------------------------------
    # Validation
    # ------------------------------------------------------------------

    def validate(self) -> None:
        """Check structural sanity; raises :class:`NetlistError`.

        One pass checks each gate whole, in insertion order: its pins
        and truth table (as :meth:`Gate.validate`, which raises the
        message when one is wrong), its fan-in drivers, its clock use.
        Then the outputs, the inputs and, through
        :meth:`topological_order`, combinational cycles.  The first
        problem found is raised.
        """
        ffs = self.flip_flop_names()
        driver = self._driver
        clock = self.clock
        for gate in self.gates.values():
            pins = gate.pins
            cell = gate.cell
            inputs = cell.inputs
            if (gate.truth_table is not None or cell.function == "LUT"
                    or len(pins) != len(inputs)):
                gate.validate()
            for pin in inputs:
                if pin not in pins:
                    gate.validate()
            for pin, net in pins.items():
                if net not in driver:
                    raise NetlistError(
                        f"gate {gate.name} pin {pin}: undriven net {net!r}"
                    )
            if gate.name in ffs:
                if clock is None:
                    raise NetlistError(f"flip-flop {gate.name} but no clock defined")
                if pins.get("CLK") != clock:
                    raise NetlistError(
                        f"flip-flop {gate.name} CLK pin must use clock {clock}"
                    )
            elif clock is not None and clock in pins.values():
                raise NetlistError(
                    f"gate {gate.name}: clock used as data input"
                )
        for net in self.outputs:
            if net not in self._driver:
                raise NetlistError(f"primary output {net!r} is undriven")
        seen: Set[str] = set()
        for net in self.inputs + self.key_inputs:
            if net in seen:
                raise NetlistError(f"duplicate input {net!r}")
            seen.add(net)
            if self._driver.get(net) != "":
                raise NetlistError(f"input {net!r} is gate-driven")
        self.topological_order()  # raises on combinational cycles

    # ------------------------------------------------------------------
    # Cones
    # ------------------------------------------------------------------

    def fanin_cone(self, net: str) -> Set[str]:
        """Names of gates in the transitive fanin of *net* (stops at FFs)."""
        ffs = self.flip_flop_names()
        cone: Set[str] = set()
        stack = [net]
        while stack:
            current = stack.pop()
            driver = self._driver.get(current, "")
            if not driver or driver in cone:
                continue
            cone.add(driver)
            if driver not in ffs:
                stack.extend(self.gates[driver].pins.values())
        return cone

    def fanout_cone(
        self, *nets: str, within: Optional[Set[str]] = None
    ) -> Set[str]:
        """Names of gates in the transitive fanout of *nets*, in one
        walk (stops at FFs).  With *within*, the walk enters only the
        gates that set names."""
        ffs = self.flip_flop_names()
        cone: Set[str] = set()
        stack = list(nets)
        while stack:
            current = stack.pop()
            for gate_name, _pin in self._fanouts.get(current, ()):
                if gate_name in cone:
                    continue
                if within is not None and gate_name not in within:
                    continue
                cone.add(gate_name)
                if gate_name not in ffs:
                    stack.append(self.gates[gate_name].output)
        return cone

    def transitive_po_sets(self) -> Dict[str, FrozenSet[str]]:
        """Flip-flop name -> POs and FF D-inputs reachable from its Q.

        Sinks are labelled ``po:<net>`` and ``ff:<gate>``, reached
        through combinational logic only.  Used by the
        Encrypt-Flip-Flop selection algorithm [4], which groups FFs
        "fanouting to the same set of POs".

        One reverse-topological pass covers every flip-flop: a net's
        reachable sinks are a bitset, one bit per sink, OR-ed from its
        readers', which later gates in topological order already hold.
        """
        ff_gates = self._flip_flop_index()[0]
        outputs = list(dict.fromkeys(self.outputs))
        labels = ([f"po:{net}" for net in outputs]
                  + [f"ff:{ff.name}" for ff in ff_gates])
        po_bit = {net: 1 << i for i, net in enumerate(outputs)}
        ff_bit = {ff.name: 1 << i
                  for i, ff in enumerate(ff_gates, start=len(outputs))}
        reach: Dict[str, int] = {}

        def sinks_of(net: str) -> int:
            mask = po_bit.get(net, 0)
            for gate_name, _pin in self._fanouts.get(net, ()):
                bit = ff_bit.get(gate_name)
                if bit is None:
                    bit = reach[self.gates[gate_name].output]
                mask |= bit
            return mask

        for gate in reversed(self.topological_order()):
            reach[gate.output] = sinks_of(gate.output)
        decoded: Dict[int, FrozenSet[str]] = {}
        signatures: Dict[str, FrozenSet[str]] = {}
        for ff in ff_gates:
            mask = sinks_of(ff.output)
            if mask not in decoded:
                members = []
                rest = mask
                while rest:  # one step per set bit, lowest first
                    low = rest & -rest
                    members.append(labels[low.bit_length() - 1])
                    rest ^= low
                decoded[mask] = frozenset(members)
            signatures[ff.name] = decoded[mask]
        return signatures

    def transitive_po_set(self, ff_name: str) -> FrozenSet[str]:
        """One flip-flop's entry of :meth:`transitive_po_sets`."""
        signatures = self.transitive_po_sets()
        if ff_name not in signatures:
            raise NetlistError(f"{ff_name!r} is not a flip-flop")
        return signatures[ff_name]

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        s = self.stats()
        return (
            f"<Circuit {self.name!r}: {s.num_cells} cells, "
            f"{s.num_flip_flops} FFs, {len(self.inputs)} PIs, "
            f"{len(self.key_inputs)} keys, {len(self.outputs)} POs>"
        )
