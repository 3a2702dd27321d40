"""Compiled circuit IR: one levelized, bit-parallel evaluation core.

Every layer that evaluates a netlist many times over one structure —
the cycle oracle the SAT attack queries, the event simulator's settle
pass, the equivalence prefilter and ATPG's fault simulation — used to
re-walk the object-graph :class:`~repro.netlist.circuit.Circuit` per
call:
string-keyed dicts, string dispatch per gate, a fresh Kahn sort per
pass.  This module compiles a circuit **once** into flat
structure-of-arrays over integer net IDs:

* an interned net table (``net_names`` / ``net_ids``), sources first —
  PIs, key inputs, the clock, flip-flop Q nets, then any remaining
  undriven nets — followed by one slot per combinational gate output in
  schedule order;
* a levelized topological schedule: per gate the function opcode, the
  output net ID, the fanin IDs (both as a flat ``fanin_ptr``/
  ``fanin_ids`` pair and as per-gate tuples for the hot loop), the
  level, and the LUT truth table where applicable.

The schedule order is **exactly** ``circuit.topological_order()`` — the
levels are metadata, not a reordering.  Passes that do not evaluate
walk ``topological_order()`` directly: STA and constant propagation,
which run once per netlist edit (the IR would be stale by their next
call, so building it would be pure cost), and the Tseitin encoder,
which reads only the gate order
(:func:`~repro.netlist.transform.combinational_view`).

On top of the arrays sits a two-plane **bit-parallel** evaluator with
full 0/1/X semantics: each net carries a ``value`` word and a ``known``
word (bit *i* = lane *i*; X ⇔ known bit clear; the invariant
``value & ~known == 0`` holds everywhere), so one pass over the arrays
simulates *lanes* input patterns at once.  The lane width is a
compile-time parameter (default :data:`LANES` = 64; any positive
multiple of 64 accepted — Python ints are arbitrary-precision, so the
identical word algebra runs at 256/1024/4096 lanes with no new code
paths).  The per-op plane formulas implement the
same pessimistic ternary semantics as :mod:`repro.sim.logic` — a
controlling value decides the output with X on the other pin, a MUX
with an X select is known only when both candidates agree, and a LUT
with X inputs is known only when every reachable table entry agrees
(computed by Shannon reduction over the entry planes, which is
equivalent).

The compiled form is immutable and cached on the circuit behind its
mutation counter (:func:`compile_circuit`), and it pickles cleanly so
the campaign cache ships it to pool workers alongside the instance.
"""

from __future__ import annotations

import os
from itertools import accumulate
from operator import itemgetter, lshift
from typing import Dict, Iterable, List, Mapping, Optional, Sequence, Tuple

from .circuit import Circuit, NetlistError

__all__ = [
    "LANES",
    "MASK",
    "CompiledCircuit",
    "PlaneBatch",
    "compile_circuit",
    "check_lanes",
    "default_lanes",
    "set_default_lanes",
]

#: the historical default width and the plane-word quantum: every lane
#: width must be a positive multiple of this
LANES = 64
#: all-lanes-set plane word at the default width
MASK = (1 << LANES) - 1

#: process-wide programmatic override of the default width (set via
#: :func:`set_default_lanes`); takes precedence over ``REPRO_LANES``
_default_lanes_override: Optional[int] = None


def check_lanes(lanes: int) -> int:
    """Validate a lane width: any positive multiple of :data:`LANES`."""
    if not isinstance(lanes, int) or lanes <= 0 or lanes % LANES:
        raise ValueError(
            f"lane width must be a positive multiple of {LANES}, "
            f"got {lanes!r}"
        )
    return lanes


def default_lanes() -> int:
    """The width used when a caller does not pass one explicitly.

    Resolution order: :func:`set_default_lanes` override, then the
    ``REPRO_LANES`` environment variable (how CI runs the whole suite
    wide), then :data:`LANES`.
    """
    if _default_lanes_override is not None:
        return _default_lanes_override
    raw = os.environ.get("REPRO_LANES")
    if not raw:
        return LANES
    try:
        lanes = int(raw)
    except ValueError:
        raise ValueError(f"REPRO_LANES must be an integer, got {raw!r}")
    return check_lanes(lanes)


def set_default_lanes(lanes: Optional[int]) -> Optional[int]:
    """Set (or with ``None`` clear) the process-wide default width.

    Returns the previous override so callers can restore it.
    """
    global _default_lanes_override
    previous = _default_lanes_override
    _default_lanes_override = None if lanes is None else check_lanes(lanes)
    return previous

# Function opcodes, dense so the evaluator dispatches on small ints.
(
    OP_BUF,
    OP_INV,
    OP_AND2,
    OP_NAND2,
    OP_OR2,
    OP_NOR2,
    OP_XOR2,
    OP_XNOR2,
    OP_MUX2,
    OP_MUX4,
    OP_TIE0,
    OP_TIE1,
    OP_LUT,
) = range(13)

_OPCODES = {
    "BUF": OP_BUF,
    "INV": OP_INV,
    "AND2": OP_AND2,
    "NAND2": OP_NAND2,
    "OR2": OP_OR2,
    "NOR2": OP_NOR2,
    "XOR2": OP_XOR2,
    "XNOR2": OP_XNOR2,
    "MUX2": OP_MUX2,
    "MUX4": OP_MUX4,
    "TIE0": OP_TIE0,
    "TIE1": OP_TIE1,
    "LUT": OP_LUT,
}


def _plane_bits(value) -> Tuple[int, int]:
    """(value bit, known bit) of one ternary value; rejects non-values."""
    if value == 0:
        return 0, 1
    if value == 1:
        return 1, 1
    if value is None:
        return 0, 0
    raise ValueError(f"not a logic value: {value!r}")


def _mux_planes(va, ka, vb, kb, vs, ks):
    """Two-plane 2:1 mux: *a* when sel=0, *b* when sel=1.

    With an X select the output is known only where both candidates are
    known and agree — the plane form of :func:`repro.sim.logic.mux3`.
    """
    sel0 = ks & ~vs  # select known 0 (vs ⊆ ks, so vs alone is "known 1")
    agree = ka & kb & ~(va ^ vb)
    k = (sel0 & ka) | (vs & kb) | (agree & ~ks)
    v = (sel0 & va) | (vs & vb) | (agree & va & ~ks)
    return v, k


#: 0/1 bytes <-> ASCII "0"/"1": a column of 0/1 ints becomes a plane
#: word through one ``bytes`` build and one ``int(..., 2)``, and back
_TO_ASCII = bytes.maketrans(b"\x00\x01", b"01")
_FROM_ASCII = bytes.maketrans(b"01", b"\x00\x01")


def _pack_column(column: Sequence) -> Tuple[int, int]:
    """(value, known) words of one net's values, lane 0 first."""
    # The common all-known 0/1 column at C speed.  bytes() refuses None
    # and non-integers; any byte left after deleting 0s and 1s is some
    # other integer, which the per-lane loop rejects.
    try:
        raw = bytes(column[::-1])
    except (TypeError, ValueError):
        raw = None
    if raw is not None and not raw.translate(None, b"\x00\x01"):
        return int(raw.translate(_TO_ASCII), 2), (1 << len(column)) - 1
    value = known = 0
    for lane, val in enumerate(column):
        v, k = _plane_bits(val)
        value |= v << lane
        known |= k << lane
    return value, known


class PlaneBatch:
    """*count* patterns over *nets*: one value and one known word per net.

    Bit *i* of a net's words is pattern *i*, with the evaluator's
    encoding (known clear = X, ``value & ~known == 0``), and no bit is
    set at or past *count*.  ``len()`` is the pattern count, so a batch
    stands wherever a list of pattern dicts did: hand one to
    :meth:`CompiledCircuit.query_outputs` and the outputs come back as
    a batch too, with no per-pattern dict on either side.  The serving
    stack carries queries this way from the client to the evaluator
    and back; :meth:`pack` and :meth:`unpack` are the dict edges.
    """

    __slots__ = ("nets", "value", "known", "count")

    def __init__(self, nets: Sequence[str], value: Sequence[int],
                 known: Sequence[int], count: int) -> None:
        self.nets = tuple(nets)
        self.value = value
        self.known = known
        self.count = count

    def __len__(self) -> int:
        return self.count

    def __eq__(self, other) -> bool:
        if not isinstance(other, PlaneBatch):
            return NotImplemented
        return (self.count == other.count and self.nets == other.nets
                and list(self.value) == list(other.value)
                and list(self.known) == list(other.known))

    def __repr__(self) -> str:
        return f"PlaneBatch({len(self.nets)} nets, count={self.count})"

    @classmethod
    def pack(cls, nets: Sequence[str],
             assignments: Sequence[Mapping]) -> "PlaneBatch":
        """Pattern dicts naming exactly *nets* -> one batch.

        A missing or unknown net raises :class:`NetlistError` and a
        value other than 0/1/None ``ValueError``, as the dict form of
        ``query_outputs`` does.
        """
        nets = tuple(nets)
        count = len(assignments)
        if len(nets) > 1:
            get = itemgetter(*nets)
        else:  # itemgetter of one net gives a bare value, not a tuple
            def get(assignment):
                return tuple(assignment[net] for net in nets)
        try:
            rows = [get(assignment) for assignment in assignments]
        except KeyError:
            rows = None
        if rows is None or any(len(assignment) != len(nets)
                               for assignment in assignments):
            for assignment in assignments:
                _check_names(nets, assignment)
        if not count:
            return cls(nets, [0] * len(nets), [0] * len(nets), 0)
        value: List[int] = []
        known: List[int] = []
        for column in zip(*rows):
            v, k = _pack_column(column)
            value.append(v)
            known.append(k)
        return cls(nets, value, known, count)

    def unpack(self) -> List[Dict[str, object]]:
        """One ``{net: 0/1/None}`` dict per pattern, in lane order."""
        count = self.count
        if not count:
            return []
        full = (1 << count) - 1
        width = f"0{count}b"
        columns = []
        for v, k in zip(self.value, self.known):
            bits = format(v, width).encode().translate(_FROM_ASCII)[::-1]
            if k != full:
                known = format(k, width).encode().translate(_FROM_ASCII)
                bits = [b if x else None for b, x in zip(bits, known[::-1])]
            columns.append(bits)
        nets = self.nets
        if not nets:
            return [{} for _ in range(count)]
        return [dict(zip(nets, row)) for row in zip(*columns)]

    @classmethod
    def concat(cls, batches: Sequence["PlaneBatch"]) -> "PlaneBatch":
        """One batch holding *batches* back to back, each at the lane
        offset the ones before it fill."""
        first = batches[0]
        if len(batches) == 1:
            return first
        nets = first.nets
        if any(batch.nets != nets for batch in batches):
            raise ValueError("cannot concatenate plane batches over "
                             "different nets")
        offsets = list(accumulate((b.count for b in batches), initial=0))
        # Per net, the batches' words are disjoint bit ranges: a sum of
        # shifted words.
        value = [sum(map(lshift, words, offsets))
                 for words in zip(*(b.value for b in batches))]
        known = [sum(map(lshift, words, offsets))
                 for words in zip(*(b.known for b in batches))]
        return cls(nets, value, known, offsets[-1])

    def split(self, counts: Sequence[int]) -> List["PlaneBatch"]:
        """The inverse of :meth:`concat`: consecutive batches of
        *counts* patterns, which must add up to ``count``."""
        if sum(counts) != self.count:
            raise ValueError(f"split sizes {list(counts)} do not add up "
                             f"to the batch's {self.count} patterns")
        if len(counts) == 1:
            return [self]
        if self.nets and list(counts).count(1) == len(counts):
            # One pattern per part (the DIP loop's shape, co-batched):
            # read all of a net's lanes at once, as unpack() does.
            width = f"0{self.count}b"

            def lanes(words):
                return zip(*(format(w, width).encode()
                             .translate(_FROM_ASCII)[::-1] for w in words))

            return [PlaneBatch(self.nets, v, k, 1)
                    for v, k in zip(lanes(self.value), lanes(self.known))]
        parts = []
        offset = 0
        for count in counts:
            keep = (1 << count) - 1
            parts.append(PlaneBatch(
                self.nets,
                [(v >> offset) & keep for v in self.value],
                [(k >> offset) & keep for k in self.known],
                count,
            ))
            offset += count
        return parts


def _check_names(nets: Tuple[str, ...], assignment: Mapping) -> None:
    """Raise for the first of *nets* missing from, or the first net
    outside *nets* present in, *assignment*."""
    for net in nets:
        if net not in assignment:
            raise NetlistError(f"no value supplied for input {net!r}")
    names = frozenset(nets)
    for net in assignment:
        if net not in names:
            raise NetlistError(f"assignment names unknown net {net!r}")


class CompiledCircuit:
    """Immutable flat-array form of one circuit; see the module docs.

    Build through :func:`compile_circuit` (which memoizes on the
    circuit) rather than directly.
    """

    __slots__ = (
        "lanes",
        "mask",
        "name",
        "net_names",
        "net_ids",
        "num_nets",
        "num_sources",
        "inputs",
        "key_inputs",
        "input_ids",
        "key_ids",
        "outputs",
        "output_ids",
        "clock_id",
        "ff_names",
        "ff_q_nets",
        "ff_q_ids",
        "ff_d_nets",
        "ff_d_ids",
        "num_gates",
        "ops",
        "gate_names",
        "out_ids",
        "out_names",
        "fanin_ptr",
        "fanin_ids",
        "fanin_tuples",
        "levels",
        "lut_value_planes",
        "_sched",
        "_iface_keyset",
    )

    #: slots rebuilt from the others on unpickle, never serialized
    _DERIVED = ("_sched", "_iface_keyset")

    def __init__(self, circuit: Circuit, lanes: Optional[int] = None) -> None:
        self.lanes = check_lanes(default_lanes() if lanes is None else lanes)
        self.mask = (1 << self.lanes) - 1
        order = circuit.topological_order()
        comb_driven = {gate.output for gate in order}

        net_ids: Dict[str, int] = {}
        net_names: List[str] = []

        def intern(net: str) -> int:
            net_id = net_ids.get(net)
            if net_id is None:
                net_id = len(net_names)
                net_ids[net] = net_id
                net_names.append(net)
            return net_id

        for net in circuit.inputs:
            intern(net)
        for net in circuit.key_inputs:
            intern(net)
        self.clock_id = intern(circuit.clock) if circuit.clock else -1
        ffs = circuit.flip_flops()
        for ff in ffs:
            intern(ff.output)
        # Remaining sources: undriven-but-read nets, TIE-less claims, ...
        for net in sorted(circuit.nets()):
            if net not in comb_driven:
                intern(net)
        self.num_sources = len(net_names)
        for gate in order:
            intern(gate.output)

        self.name = circuit.name
        self.inputs = tuple(circuit.inputs)
        self.key_inputs = tuple(circuit.key_inputs)
        self.input_ids = tuple(net_ids[n] for n in circuit.inputs)
        self.key_ids = tuple(net_ids[n] for n in circuit.key_inputs)
        self.outputs = tuple(circuit.outputs)
        self.output_ids = tuple(net_ids[n] for n in circuit.outputs)
        self.ff_names = tuple(ff.name for ff in ffs)
        self.ff_q_nets = tuple(ff.output for ff in ffs)
        self.ff_q_ids = tuple(net_ids[ff.output] for ff in ffs)
        self.ff_d_nets = tuple(ff.pins["D"] for ff in ffs)
        self.ff_d_ids = tuple(net_ids[ff.pins["D"]] for ff in ffs)

        ops: List[int] = []
        gate_names: List[str] = []
        out_ids: List[int] = []
        fanin_ptr: List[int] = [0]
        fanin_ids: List[int] = []
        fanin_tuples: List[Tuple[int, ...]] = []
        levels: List[int] = []
        lut_value_planes: List[Optional[Tuple[int, ...]]] = []
        level_of: Dict[int, int] = {}

        for gate in order:
            opcode = _OPCODES.get(gate.function)
            if opcode is None:
                raise NetlistError(
                    f"cannot compile function {gate.function!r} "
                    f"(gate {gate.name})"
                )
            fanin = tuple(net_ids[n] for n in gate.input_nets())
            ops.append(opcode)
            gate_names.append(gate.name)
            out_ids.append(net_ids[gate.output])
            fanin_ids.extend(fanin)
            fanin_ptr.append(len(fanin_ids))
            fanin_tuples.append(fanin)
            levels.append(
                1 + max((level_of.get(n, 0) for n in fanin), default=0)
            )
            level_of[net_ids[gate.output]] = levels[-1]
            if gate.truth_table is not None:
                lut_value_planes.append(
                    tuple(self.mask if bit else 0 for bit in gate.truth_table)
                )
            else:
                lut_value_planes.append(None)

        self.num_nets = len(net_names)
        self.net_names = tuple(net_names)
        self.net_ids = net_ids
        self.num_gates = len(ops)
        self.ops = tuple(ops)
        self.gate_names = tuple(gate_names)
        self.out_ids = tuple(out_ids)
        self.out_names = tuple(net_names[i] for i in out_ids)
        self.fanin_ptr = tuple(fanin_ptr)
        self.fanin_ids = tuple(fanin_ids)
        self.fanin_tuples = tuple(fanin_tuples)
        self.levels = tuple(levels)
        self.lut_value_planes = tuple(lut_value_planes)
        self._sched = list(
            zip(self.ops, self.out_ids, self.fanin_tuples,
                self.lut_value_planes)
        )
        self._iface_keyset = frozenset(self.inputs) | frozenset(
            self.key_inputs)

    # ------------------------------------------------------------------
    # Pickle support (__slots__ classes need explicit state plumbing)
    # ------------------------------------------------------------------

    def __getstate__(self):
        return {slot: getattr(self, slot) for slot in self.__slots__
                if slot not in self._DERIVED}

    def __setstate__(self, state):
        # Pre-width pickles (campaign caches) carry no lanes/mask slots:
        # they were compiled at the historical 64-lane width.
        state.setdefault("lanes", LANES)
        state.setdefault("mask", (1 << state["lanes"]) - 1)
        # Older pickles also carry slots the class dropped once their
        # only reader stopped using the IR: per-gate cell delays (STA)
        # and the functions, fan-in names and truth tables the Tseitin
        # encoder read.
        for slot in ("delays", "functions", "fanin_name_tuples",
                     "truth_tables"):
            state.pop(slot, None)
        for slot, value in state.items():
            object.__setattr__(self, slot, value)
        self._sched = list(
            zip(self.ops, self.out_ids, self.fanin_tuples,
                self.lut_value_planes)
        )
        self._iface_keyset = frozenset(self.inputs) | frozenset(
            self.key_inputs)

    # ------------------------------------------------------------------
    # The bit-parallel core
    # ------------------------------------------------------------------

    def run_planes(
        self,
        value: List[int],
        known: List[int],
        skip_out: int = -1,
    ) -> None:
        """One levelized pass: fill every gate-output plane in place.

        *value*/*known* are ``num_nets``-long lists of plane words with
        the source slots (< ``num_sources``) already populated.  Pass
        *skip_out* to leave one driven net's plane untouched (stuck-at
        fault injection).
        """
        mask = self.mask
        for op, out, fin, lut_planes in self._sched:
            if out == skip_out:
                continue
            if op == OP_NAND2:
                a, b = fin
                va, ka = value[a], known[a]
                vb, kb = value[b], known[b]
                k = (ka & kb) | (ka & ~va) | (kb & ~vb)
                value[out] = ~(va & vb) & k
                known[out] = k
            elif op == OP_INV:
                a = fin[0]
                ka = known[a]
                value[out] = ~value[a] & ka
                known[out] = ka
            elif op == OP_NOR2:
                a, b = fin
                va, vb = value[a], value[b]
                k = (known[a] & known[b]) | va | vb
                value[out] = ~(va | vb) & k
                known[out] = k
            elif op == OP_AND2:
                a, b = fin
                va, ka = value[a], known[a]
                vb, kb = value[b], known[b]
                value[out] = va & vb
                known[out] = (ka & kb) | (ka & ~va) | (kb & ~vb)
            elif op == OP_OR2:
                a, b = fin
                va, vb = value[a], value[b]
                value[out] = va | vb
                known[out] = (known[a] & known[b]) | va | vb
            elif op == OP_XOR2:
                a, b = fin
                k = known[a] & known[b]
                value[out] = (value[a] ^ value[b]) & k
                known[out] = k
            elif op == OP_XNOR2:
                a, b = fin
                k = known[a] & known[b]
                value[out] = ~(value[a] ^ value[b]) & k
                known[out] = k
            elif op == OP_BUF:
                a = fin[0]
                value[out] = value[a]
                known[out] = known[a]
            elif op == OP_MUX2:
                a, b, s = fin
                v, k = _mux_planes(
                    value[a], known[a], value[b], known[b],
                    value[s], known[s],
                )
                value[out] = v
                known[out] = k
            elif op == OP_MUX4:
                a, b, c, d, s0, s1 = fin
                vs0, ks0 = value[s0], known[s0]
                lo_v, lo_k = _mux_planes(
                    value[a], known[a], value[b], known[b], vs0, ks0
                )
                hi_v, hi_k = _mux_planes(
                    value[c], known[c], value[d], known[d], vs0, ks0
                )
                v, k = _mux_planes(
                    lo_v, lo_k, hi_v, hi_k, value[s1], known[s1]
                )
                value[out] = v
                known[out] = k
            elif op == OP_TIE0:
                value[out] = 0
                known[out] = mask
            elif op == OP_TIE1:
                value[out] = mask
                known[out] = mask
            else:  # OP_LUT: Shannon reduction over the entry planes
                vals = list(lut_planes)
                knowns = [mask] * len(vals)
                for sel in fin:  # I0..Ik, low-to-high
                    vs, ks = value[sel], known[sel]
                    half = len(vals) // 2
                    for j in range(half):
                        vals[j], knowns[j] = _mux_planes(
                            vals[2 * j], knowns[2 * j],
                            vals[2 * j + 1], knowns[2 * j + 1],
                            vs, ks,
                        )
                    del vals[half:], knowns[half:]
                value[out] = vals[0]
                known[out] = knowns[0]

    # ------------------------------------------------------------------
    # Assignment packing
    # ------------------------------------------------------------------

    def _check_assignment(self, assignment: Mapping) -> None:
        """Missing inputs and unknown extras both raise NetlistError."""
        # Fast path: exactly the interface nets, nothing extra — the
        # shape every oracle/attack caller produces.  One C-speed set
        # comparison instead of a Python loop over the interface.
        if assignment.keys() == self._iface_keyset:
            return
        for net in self.inputs:
            if net not in assignment:
                raise NetlistError(f"no value supplied for input {net!r}")
        for net in self.key_inputs:
            if net not in assignment:
                raise NetlistError(f"no value supplied for input {net!r}")
        net_ids = self.net_ids
        for net in assignment:
            if net not in net_ids:
                raise NetlistError(
                    f"assignment names unknown net {net!r} "
                    f"in circuit {self.name!r}"
                )

    def _pack(
        self,
        assignments: Sequence[Mapping],
        state: Optional[Mapping] = None,
    ) -> Tuple[List[int], List[int]]:
        """Source planes for up to ``self.lanes`` checked assignments."""
        value = [0] * self.num_nets
        known = [0] * self.num_nets
        net_ids = self.net_ids
        num_sources = self.num_sources
        for lane, assignment in enumerate(assignments):
            bit = 1 << lane
            for net, val in assignment.items():
                net_id = net_ids[net]
                if net_id >= num_sources:
                    _plane_bits(val)  # validate even ignored extras
                    continue  # driven net: the schedule overwrites it
                # _plane_bits inlined: the planes start all-zero and each
                # (net, lane) pair is touched once, so 0 and X need no
                # clearing — only set bits.
                if val == 1:
                    value[net_id] |= bit
                    known[net_id] |= bit
                elif val == 0:
                    known[net_id] |= bit
                elif val is not None:
                    raise ValueError(f"not a logic value: {val!r}")
        if state is None:
            state = {}
        mask = self.mask
        for ff_name, q_id in zip(self.ff_names, self.ff_q_ids):
            v, k = _plane_bits(state.get(ff_name, None))
            value[q_id] = mask if v else 0
            known[q_id] = mask if k else 0
        return value, known

    @staticmethod
    def _lane(value: List[int], known: List[int], net_id: int, lane: int):
        if (known[net_id] >> lane) & 1:
            return (value[net_id] >> lane) & 1
        return None

    # ------------------------------------------------------------------
    # Public evaluation API
    # ------------------------------------------------------------------

    def evaluate(
        self,
        assignment: Mapping,
        state: Optional[Mapping] = None,
    ) -> Dict[str, object]:
        """Drop-in for the interpreted ``evaluate_combinational``.

        Same inputs, same result dict (net -> 0/1/X), same key order.
        """
        return self.evaluate_many([assignment], state)[0]

    def evaluate_many(
        self,
        assignments: Sequence[Mapping],
        state: Optional[Mapping] = None,
    ) -> List[Dict[str, object]]:
        """Full net-for-net evaluation of many patterns, ``lanes`` per pass."""
        results: List[Dict[str, object]] = []
        if state is None:
            state = {}
        lanes = self.lanes
        for start in range(0, len(assignments), lanes):
            chunk = assignments[start:start + lanes]
            for assignment in chunk:
                self._check_assignment(assignment)
            value, known = self._pack(chunk, state)
            self.run_planes(value, known)
            # Byte-rendered planes: O(1) lane reads at any width (see
            # query_outputs).
            nbytes = lanes >> 3
            out_planes = [
                (net, value[net_id].to_bytes(nbytes, "little"),
                 known[net_id].to_bytes(nbytes, "little"))
                for net, net_id in zip(self.out_names, self.out_ids)
            ]
            for lane, assignment in enumerate(chunk):
                byte = lane >> 3
                shift = lane & 7
                bit = 1 << shift
                values: Dict[str, object] = {}
                for net in self.inputs:
                    values[net] = assignment[net]
                for net in self.key_inputs:
                    values[net] = assignment[net]
                for extra, val in assignment.items():
                    values[extra] = val
                for ff_name, q_net in zip(self.ff_names, self.ff_q_nets):
                    values[q_net] = state.get(ff_name, None)
                for net, vb, kb in out_planes:
                    values[net] = (vb[byte] >> shift) & 1 if kb[byte] & bit \
                        else None
                results.append(values)
        return results

    def query_outputs(
        self,
        assignments,
        state: Optional[Mapping] = None,
    ):
        """Primary-output dicts for many patterns (the oracle's view).

        *assignments* may instead be a :class:`PlaneBatch` over the
        circuit's inputs then its key inputs; the outputs then come
        back as a :class:`PlaneBatch` over ``outputs``, with no
        per-pattern dict built on either side.
        """
        if isinstance(assignments, PlaneBatch):
            return self._query_planes(assignments, state)
        results: List[Dict[str, object]] = []
        lanes = self.lanes
        for start in range(0, len(assignments), lanes):
            chunk = assignments[start:start + lanes]
            for assignment in chunk:
                self._check_assignment(assignment)
            value, known = self._pack(chunk, state)
            self.run_planes(value, known)
            # Lane extraction: each plane word is rendered to bytes once
            # per chunk, so reading lane *i* is O(1) byte indexing at any
            # width — shifting a wide plane per lane would be O(lanes)
            # and widening would *slow* this, the hottest line of the
            # batched oracle path.
            nbytes = lanes >> 3
            po_planes = [
                (net, value[net_id].to_bytes(nbytes, "little"),
                 known[net_id].to_bytes(nbytes, "little"))
                for net, net_id in zip(self.outputs, self.output_ids)
            ]
            for lane in range(len(chunk)):
                byte = lane >> 3
                shift = lane & 7
                bit = 1 << shift
                results.append({
                    net: (vb[byte] >> shift) & 1 if kb[byte] & bit else None
                    for net, vb, kb in po_planes
                })
        return results

    def _query_planes(self, batch: PlaneBatch,
                      state: Optional[Mapping]) -> PlaneBatch:
        """:meth:`query_outputs` on planes, ``lanes`` patterns per pass."""
        sources = self.inputs + self.key_inputs
        if batch.nets != sources:
            _check_names(sources, dict.fromkeys(batch.nets))
            raise NetlistError(
                "a plane batch must list the circuit's inputs, then its "
                "key inputs, in order"
            )
        count = batch.count
        lanes = self.lanes
        source_ids = self.input_ids + self.key_ids
        out_value = [0] * len(self.output_ids)
        out_known = [0] * len(self.output_ids)
        for start in range(0, count, lanes):
            # Lanes past the batch's count stay X in, and are cut from
            # the outputs (a TIE cell is known in every lane).
            keep = (1 << min(lanes, count - start)) - 1
            value, known = self._pack((), state)
            for net_id, v, k in zip(source_ids, batch.value, batch.known):
                value[net_id] = (v >> start) & keep
                known[net_id] = (k >> start) & keep
            self.run_planes(value, known)
            for j, net_id in enumerate(self.output_ids):
                out_value[j] |= (value[net_id] & keep) << start
                out_known[j] |= (known[net_id] & keep) << start
        return PlaneBatch(self.outputs, out_value, out_known, count)

    def step_state(
        self,
        assignment: Mapping,
        state: Mapping,
    ) -> Tuple[Dict[str, object], Dict[str, object]]:
        """One clock cycle: (primary outputs, next flip-flop state)."""
        self._check_assignment(assignment)
        value, known = self._pack([assignment], state)
        self.run_planes(value, known)
        lane_of = self._lane
        outputs = {
            net: lane_of(value, known, net_id, 0)
            for net, net_id in zip(self.outputs, self.output_ids)
        }
        next_state = {
            ff_name: lane_of(value, known, d_id, 0)
            for ff_name, d_id in zip(self.ff_names, self.ff_d_ids)
        }
        return outputs, next_state


def compile_circuit(
    circuit: Circuit, lanes: Optional[int] = None
) -> CompiledCircuit:
    """The compiled IR of *circuit* at *lanes*, memoized per width behind
    the circuit's mutation counter.

    The cache — ``(mutations, {lanes: CompiledCircuit})`` — lives on the
    circuit instance (and therefore travels with pickles, which is how
    the campaign cache lets pool workers skip recompilation), so one
    circuit can hold compiled instances at several widths at once; any
    structural edit invalidates all of them.
    """
    lanes = check_lanes(default_lanes() if lanes is None else lanes)
    cached = circuit._compiled_cache
    if cached is not None and not isinstance(cached[1], dict):
        # Pre-width pickle: a bare (mutations, compiled) pair.
        cached = (cached[0], {cached[1].lanes: cached[1]})
        circuit._compiled_cache = cached
    if cached is None or cached[0] != circuit._mutations:
        cached = (circuit._mutations, {})
        circuit._compiled_cache = cached
    by_width = cached[1]
    compiled = by_width.get(lanes)
    if compiled is None:
        by_width[lanes] = compiled = CompiledCircuit(circuit, lanes)
    return compiled
