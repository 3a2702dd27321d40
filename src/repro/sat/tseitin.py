"""Tseitin encoding: netlists to CNF, constant-folded and structurally
hashed.

This is the bridge the SAT attack [11] uses: it turns the combinational
core of a netlist into clauses.  :class:`CircuitEncoder` walks a
:class:`~repro.netlist.transform.CombinationalView`, which describes
that core in place (flip-flop Q nets as inputs, D nets as outputs), so
a sequential netlist is encoded without an extracted copy.  It gives
each gate a *literal* rather than a variable of its own: BUF and INV
pass on their fan-in literal or its negation, NAND, OR, NOR and XNOR
become signed literals of an AND or XOR node, constants fold onto one
constant-true literal, and each remaining node is keyed on its
operation and its folded fan-in literals (AIG-style structural
hashing, Kuehlmann et al., IEEE TCAD 2002).  A :class:`NodeTable`
passed to several encoder calls makes them share nodes: two copies of
a circuit that see the same fan-in literals get the same literal and
emit its clauses once, which is how the SAT attack's miter copies, its
DIP pins, the equivalence checker and ATPG stay small.

The same walk encodes the two other copy kinds: an
:class:`~repro.netlist.transform.UnrolledView` is one walk per clock
cycle, frame 0's Q nets bound to the constant-false literal and frame
t's to frame t-1's D literals, and a
:class:`~repro.netlist.transform.TimedView` is the walk of the settled
first vector plus one literal per gate and time tick.  Frames and
ticks hash like copies do, so a frame that sees the reset constants
and a tick whose fan-ins have not yet switched cost nothing.

The rewrites are folding, trivial AND/XOR/MUX identities, two
cancellations and hashing.  The cancellations are
``XOR(a, XOR(a, c)) = c`` (one operand is an XOR node with the other
among its fan-ins) and ``MUX(s, NOT b, b) = XNOR(s, b)`` (complementary
arms).  Together they fold a GK, ``MUX(k, XNOR(x, k), XOR(x, k))``
behind any BUF chains, to the literal ``NOT x`` (or ``x`` for the
swapped arms): its key drops out.  Nothing re-associates beyond that:
``XOR(XOR(a, b), XOR(a, c))`` stays a node.
"""

from __future__ import annotations

from typing import (
    Dict, Iterable, List, Mapping, Optional, Sequence, Tuple, Union,
)

from ..netlist.circuit import Circuit, NetlistError
from ..netlist.transform import (
    CombinationalView, TimedView, UnrolledView, combinational_view,
)
from .cnf import CNF

__all__ = ["CircuitEncoder", "NodeTable", "encode_circuit", "miter_xors"]


def _lut_clauses(cnf: CNF, out: int, operands: Sequence[int],
                 truth_table: Sequence[int]) -> None:
    """Clauses for ``out <-> LUT(operands)``, one per truth-table row."""
    for index, bit in enumerate(truth_table):
        selector = [
            operands[i] if (index >> i) & 1 else -operands[i]
            for i in range(len(operands))
        ]
        cnf.add_clause([-lit for lit in selector] + [out if bit else -out])


class NodeTable:
    """Structurally hashed nodes, shared by every encoder call given it.

    ``nodes`` maps a node key — ``("and", a, b)``, ``("xor", a, b)``,
    ``("mux", sel, a, b)`` or ``("lut", operands, table)`` over folded,
    normalized literals — to its variable.  ``true`` is the constant-true
    literal, allocated with its unit clause on first use.  Every method
    takes the :class:`CNF` that receives a new node's clauses; the CNFs
    of one table must all feed the same solver, in order.
    ``xor_collapses`` and ``mux_collapses`` count how often
    ``XOR(a, XOR(a, c)) = c`` and ``MUX(s, NOT b, b) = XNOR(s, b)``
    fired.
    """

    def __init__(self) -> None:
        self.nodes: Dict[tuple, int] = {}
        self.true: Optional[int] = None
        #: XOR node variable -> its two fan-in variables
        self.xor_fanins: Dict[int, Tuple[int, int]] = {}
        self.xor_collapses = 0
        self.mux_collapses = 0

    def constant(self, cnf: CNF, value: int) -> int:
        """The literal of constant *value*."""
        if self.true is None:
            self.true = cnf.new_var()
            cnf.add_clause([self.true])
        return self.true if value else -self.true

    def _node(self, cnf: CNF, key: tuple) -> Tuple[int, bool]:
        """(variable of *key*, whether it is new and needs clauses)."""
        var = self.nodes.get(key)
        if var is not None:
            return var, False
        var = self.nodes[key] = cnf.new_var()
        return var, True

    def and2(self, cnf: CNF, a: int, b: int) -> int:
        true = self.true
        if true is not None:
            if a == -true or b == -true:
                return -true
            if a == true:
                return b
            if b == true:
                return a
        if a == b:
            return a
        if a == -b:
            return self.constant(cnf, 0)
        if a > b:
            a, b = b, a
        out, new = self._node(cnf, ("and", a, b))
        if new:
            cnf.add_and(out, (a, b))
        return out

    def xor2(self, cnf: CNF, a: int, b: int) -> int:
        true = self.true
        if true is not None:
            if abs(a) == true:
                return -b if a == true else b
            if abs(b) == true:
                return -a if b == true else a
        if a == b:
            return self.constant(cnf, 0)
        if a == -b:
            return self.constant(cnf, 1)
        # XOR(-a, b) == -XOR(a, b): key on the variables, sign the result
        negate = (a < 0) != (b < 0)
        a, b = abs(a), abs(b)
        if a > b:
            a, b = b, a
        # XOR(a, XOR(a, c)) == c: a node's fan-ins are older than it,
        # so only the younger operand b can be the inner XOR
        fanins = self.xor_fanins.get(b)
        if fanins is not None and a in fanins:
            self.xor_collapses += 1
            c = fanins[1] if fanins[0] == a else fanins[0]
            return -c if negate else c
        out, new = self._node(cnf, ("xor", a, b))
        if new:
            cnf.add_xor(out, a, b)
            self.xor_fanins[out] = (a, b)
        return -out if negate else out

    def mux2(self, cnf: CNF, a: int, b: int, sel: int) -> int:
        """``sel ? b : a``."""
        true = self.true
        if true is not None and abs(sel) == true:
            return b if sel == true else a
        if a == b:
            return a
        if a == -b:  # MUX(s, NOT b, b) == XNOR(s, b)
            self.mux_collapses += 1
            return -self.xor2(cnf, sel, b)
        if sel < 0:
            sel, a, b = -sel, b, a
        if true is not None:
            if a == -true:
                return self.and2(cnf, sel, b)
            if a == true:
                return -self.and2(cnf, sel, -b)
            if b == -true:
                return self.and2(cnf, -sel, a)
            if b == true:
                return -self.and2(cnf, -sel, -a)
        if a < 0:  # MUX(s, -a, -b) == -MUX(s, a, b)
            return -self.mux2(cnf, -a, -b, sel)
        out, new = self._node(cnf, ("mux", sel, a, b))
        if new:
            cnf.add_mux(out, a, b, sel)
        return out

    def lut(self, cnf: CNF, operands: Sequence[int],
            truth_table: Sequence[int]) -> int:
        """A LUT over *operands* (``I0`` the low index bit)."""
        true = self.true
        # Re-tabulate over the distinct variables among the operands:
        # this folds constant, repeated and negated operands at once.
        free = []
        for lit in operands:
            if abs(lit) != true and abs(lit) not in free:
                free.append(abs(lit))
        table = []
        for row in range(1 << len(free)):
            value = {var: (row >> i) & 1 for i, var in enumerate(free)}
            index = 0
            for i, lit in enumerate(operands):
                if abs(lit) == true:
                    bit = lit == true
                else:
                    bit = value[abs(lit)] ^ (lit < 0)
                index |= bit << i
            table.append(truth_table[index])
        if len(set(table)) == 1:
            return self.constant(cnf, table[0])
        if len(free) == 1:
            return free[0] if table[1] else -free[0]
        negate = table[0] == 1  # normalize: the all-zero row reads 0
        if negate:
            table = [1 - bit for bit in table]
        out, new = self._node(cnf, ("lut", tuple(free), tuple(table)))
        if new:
            _lut_clauses(cnf, out, free, table)
        return -out if negate else out


class _Encodings(dict):
    """Cell function -> ``encode(table, cnf, operands, truth_table)``,
    so a walk finds a gate's node method in one lookup."""

    def __missing__(self, function: str):
        raise NetlistError(f"cannot encode function {function!r}")


def _mux4(table: NodeTable, cnf: CNF, operands: Sequence[int], _tt) -> int:
    a, b, c, d, s0, s1 = operands
    return table.mux2(cnf, table.mux2(cnf, a, b, s0),
                      table.mux2(cnf, c, d, s0), s1)


def _lut(table: NodeTable, cnf: CNF, operands: Sequence[int],
         truth_table) -> int:
    if truth_table is None:
        raise NetlistError("LUT encoding needs a truth table")
    return table.lut(cnf, operands, truth_table)


_ENCODINGS = _Encodings({
    "AND2": lambda t, cnf, ops, _tt: t.and2(cnf, ops[0], ops[1]),
    "NAND2": lambda t, cnf, ops, _tt: -t.and2(cnf, ops[0], ops[1]),
    "OR2": lambda t, cnf, ops, _tt: -t.and2(cnf, -ops[0], -ops[1]),
    "NOR2": lambda t, cnf, ops, _tt: t.and2(cnf, -ops[0], -ops[1]),
    "XOR2": lambda t, cnf, ops, _tt: t.xor2(cnf, ops[0], ops[1]),
    "XNOR2": lambda t, cnf, ops, _tt: -t.xor2(cnf, ops[0], ops[1]),
    "INV": lambda t, cnf, ops, _tt: -ops[0],
    "BUF": lambda t, cnf, ops, _tt: ops[0],
    "MUX2": lambda t, cnf, ops, _tt: t.mux2(cnf, ops[0], ops[1], ops[2]),
    "MUX4": _mux4,
    "TIE0": lambda t, cnf, ops, _tt: t.constant(cnf, 0),
    "TIE1": lambda t, cnf, ops, _tt: t.constant(cnf, 1),
    "LUT": _lut,
})


class CircuitEncoder:
    """Encodes one copy of a netlist into a shared CNF.

    Args:
        cnf: Formula to append clauses/variables to.
        circuit: The netlist to encode, combinational or sequential, or
            a view of it from :mod:`repro.netlist.transform`.  A netlist
            gets its :func:`~repro.netlist.transform.combinational_view`
            built on the spot; a caller encoding one netlist several
            times builds the view once and passes it.  A combinational
            view makes flip-flop Q nets inputs and D nets outputs, in
            the order of
            :func:`~repro.netlist.transform.extract_combinational`, and
            numbers the variables as on that copy.  An
            :class:`~repro.netlist.transform.UnrolledView` walks the
            core once per clock cycle from reset and a
            :class:`~repro.netlist.transform.TimedView` once for the
            settled vectors and once per time tick; both name their
            inputs and outputs by tags (see each view).
        net_vars: Pre-assigned literals for some inputs (nets or tags):
            shared primary inputs, a copy's own key variables, or
            constants from ``table.constant`` (a pinned pattern, a
            stuck-at fault).  On a combinational view a gate whose
            output is pre-assigned is not encoded: its driver is cut.
            Remaining inputs get fresh variables.
        table: Node table to hash into; share one between calls to share
            their nodes (a fresh one by default).

    ``var_of`` maps every input, key and output (and, on a combinational
    view, every net) to its literal, which may be negative or the
    constant ``±table.true``.
    """

    def __init__(
        self,
        cnf: CNF,
        circuit: Union[Circuit, CombinationalView, UnrolledView, TimedView],
        net_vars: Optional[Mapping] = None,
        table: Optional[NodeTable] = None,
    ) -> None:
        if isinstance(circuit, Circuit):
            circuit = combinational_view(circuit)
        self.cnf = cnf
        self.view = circuit
        self.table = NodeTable() if table is None else table
        self.var_of: Dict = dict(net_vars or {})
        if isinstance(circuit, UnrolledView):
            self._unroll(circuit)
        elif isinstance(circuit, TimedView):
            self._expand(circuit)
        else:
            self._walk(circuit, self.var_of)

    def _fresh(self, var_of: Dict, nets) -> None:
        """A fresh variable for each of *nets* that *var_of* lacks."""
        for net in nets:
            if net not in var_of:
                var_of[net] = self.cnf.new_var()

    def _walk(self, view: CombinationalView, var_of: Dict) -> None:
        """Encode *view* into *var_of* (net -> literal)."""
        self._fresh(var_of, view.inputs + view.key_inputs)
        cnf, table, encodings = self.cnf, self.table, _ENCODINGS

        def var(net):
            lit = var_of[net] = cnf.new_var()
            return lit

        for function, out, fanins, truth_table in view.gates:
            if out in var_of:
                continue  # pre-bound by the caller: its driver is cut
            var_of[out] = encodings[function](table, cnf, [
                var_of[net] if net in var_of else var(net)
                for net in fanins
            ], truth_table)
        self._fresh(var_of, view.outputs)

    def _unroll(self, view: UnrolledView) -> None:
        core, var_of = view.core, self.var_of
        self._fresh(var_of, view.inputs + view.key_inputs)
        pis = core.inputs[:len(core.inputs) - len(view.state)]
        pos = core.outputs[:len(core.outputs) - len(view.state)]
        state = {  # the all-zero reset state
            q_net: self.table.constant(self.cnf, 0) for q_net, _ in view.state
        }
        for t in range(view.frames):
            frame = {net: var_of[net] for net in core.key_inputs}
            frame.update(state)
            frame.update((net, var_of[(net, t)]) for net in pis)
            self._walk(core, frame)
            var_of.update(((net, t), frame[net]) for net in pos)
            state = {q_net: frame[d_net] for q_net, d_net in view.state}

    def _expand(self, view: TimedView) -> None:
        core, var_of = view.core, self.var_of
        self._fresh(var_of, view.inputs + view.key_inputs)
        cnf, table, encodings = self.cnf, self.table, _ENCODINGS
        keys = {net: var_of[net] for net in core.key_inputs}
        settled = dict(keys)
        settled.update((net, var_of[(net, 0)]) for net in core.inputs)
        self._walk(core, settled)
        ticks = []
        for t in range(view.ticks + 1):
            now = dict(keys)
            now.update((net, var_of[(net, 1)]) for net in core.inputs)
            ticks.append(now)
            for (function, out, fanins, truth_table), delay in zip(
                core.gates, view.delays
            ):
                before = ticks[t - delay] if t >= delay else settled
                now[out] = encodings[function](
                    table, cnf, [before[net] for net in fanins], truth_table)
        var_of.update((net, ticks[-1][net]) for net in view.outputs)

    def output_vars(self) -> Dict:
        return {net: self.var_of[net] for net in self.view.outputs}

    def input_vars(self) -> Dict:
        return {net: self.var_of[net] for net in self.view.inputs}

    def key_vars(self) -> Dict[str, int]:
        return {net: self.var_of[net] for net in self.view.key_inputs}


def miter_xors(
    cnf: CNF, pairs: Iterable[Tuple[object, int, int]]
) -> List[Tuple[object, int]]:
    """``(tag, x)`` with ``x <-> lit_a XOR lit_b`` for each
    ``(tag, lit_a, lit_b)`` whose literals differ; a pair that hashed to
    one literal is equal in every model and gets no XOR."""
    xors = []
    for tag, lit_a, lit_b in pairs:
        if lit_a != lit_b:
            x = cnf.new_var()
            cnf.add_xor(x, lit_a, lit_b)
            xors.append((tag, x))
    return xors


def encode_circuit(
    circuit: Circuit, net_vars: Optional[Mapping[str, int]] = None
) -> CircuitEncoder:
    """Encode *circuit* into a fresh :class:`CNF`; returns the encoder."""
    return CircuitEncoder(CNF(), circuit, net_vars)
