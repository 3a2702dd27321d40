"""Seeded random sequential circuit generation.

The paper evaluates on IWLS2005/ISCAS'89 netlists synthesized with a
proprietary library.  Those netlists cannot be redistributed here, so
experiments run on synthetic circuits *calibrated to the paper's own
post-synthesis statistics* (cell count, FF count; Table I).  The
generator produces realistic sequential structure:

* gates appear in topological order, so no combinational cycles;
* operand selection has a locality bias, producing a wide distribution
  of cone depths (some flip-flops see shallow logic, some deep) — the
  property Table I's "available FF" percentages hinge on;
* flip-flop D inputs and primary outputs prefer otherwise-unused nets,
  so the netlist carries almost no dead logic, like a synthesized one.

Everything is keyed by an integer seed: same arguments, same netlist.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

from ..netlist.cells import CellLibrary, default_library
from ..netlist.circuit import Circuit

__all__ = ["GeneratorSpec", "random_sequential_circuit"]

#: (function, weight) menu approximating post-synthesis gate mix.
#: Buffers are deliberately absent: a synthesized netlist only keeps
#: buffers for drive strength, which our delay model does not need, and
#: a redundancy-free netlist keeps the re-synthesis step of the locking
#: flows from shrinking the baseline (which would corrupt Table II).
_GATE_MIX: Tuple[Tuple[str, float], ...] = (
    ("NAND2", 0.28),
    ("NOR2", 0.15),
    ("AND2", 0.10),
    ("OR2", 0.10),
    ("INV", 0.19),
    ("XOR2", 0.07),
    ("XNOR2", 0.05),
    ("MUX2", 0.06),
)

_COMMUTATIVE = frozenset({"AND2", "NAND2", "OR2", "NOR2", "XOR2", "XNOR2"})


@dataclass(frozen=True)
class GeneratorSpec:
    """Parameters of one synthetic benchmark."""

    name: str
    num_inputs: int
    num_outputs: int
    num_flip_flops: int
    num_combinational: int
    seed: int = 1
    locality: float = 0.75  # probability an operand comes from the recent window
    window: int = 24  # size of the recency window
    #: skew of flip-flop D connections toward deep (late-created) nets;
    #: 0 = uniform.  Real designs register the *ends* of logic cones, so
    #: endpoint arrival times skew high — this is what makes some FFs
    #: unavailable for GK insertion (Table I).
    ff_depth_bias: float = 2.0
    #: fold leftover dangling nets into an XOR reduction tree ending in
    #: one extra primary output, instead of promoting each to its own
    #: PO.  Keeps the interface narrow (``num_outputs + 1`` POs) for
    #: deep oracle circuits where per-pattern cost should be dominated
    #: by logic evaluation, not output marshalling — the regime the
    #: serving benchmark measures.  XOR preserves sensitivity: a flip on
    #: any folded net flips the tree output, so no logic goes dead.
    reduce_dangling: bool = False

    @property
    def num_cells(self) -> int:
        return self.num_flip_flops + self.num_combinational


def _pick_function(rng: random.Random) -> str:
    roll = rng.random()
    acc = 0.0
    for function, weight in _GATE_MIX:
        acc += weight
        if roll < acc:
            return function
    return _GATE_MIX[-1][0]


def random_sequential_circuit(
    spec: GeneratorSpec, library: Optional[CellLibrary] = None
) -> Circuit:
    """Generate a circuit matching *spec* exactly in cell and FF count."""
    if spec.num_inputs < 1 or spec.num_combinational < 1:
        raise ValueError("need at least one input and one gate")
    rng = random.Random(spec.seed)
    library = library or default_library()
    circuit = Circuit(spec.name, library)
    circuit.set_clock("clock")

    sources: List[str] = []
    for i in range(spec.num_inputs):
        sources.append(circuit.add_input(f"pi{i}"))
    ff_outputs = [f"ffq{i}" for i in range(spec.num_flip_flops)]
    # FF Q nets act as sources; the DFF gates are added once their D
    # nets exist.  Claim the names so nothing else drives them.
    for net in ff_outputs:
        circuit._claim_driver(net, "__ff_pending__")
    sources.extend(ff_outputs)

    produced: List[str] = list(sources)
    fanout_count = {net: 0 for net in produced}

    def pick_operand(exclude: Sequence[str] = ()) -> str:
        # Locality bias creates depth; occasionally reach back anywhere.
        for _ in range(8):
            if rng.random() < spec.locality and len(produced) > spec.window:
                net = produced[rng.randrange(len(produced) - spec.window, len(produced))]
            else:
                net = produced[rng.randrange(len(produced))]
            if net not in exclude:
                return net
        return produced[rng.randrange(len(produced))]

    # Signatures of already-created gates: the generated netlist must be
    # redundancy-free (no structural duplicates, no INV(INV(x))), so a
    # later re-synthesis pass finds nothing to shrink — like a netlist
    # that really came out of Design Compiler.
    signatures = set()
    inverter_of: dict = {}  # net -> its INV output, to refuse inv pairs

    def draw_gate():
        for _attempt in range(12):
            function = _pick_function(rng)
            if function == "INV":
                a = pick_operand()
                if a in inverter_of.values() or ("INV", (a,)) in signatures:
                    continue  # avoid INV chains / duplicate inverters
                return function, {"A": a}, [a], ("INV", (a,))
            if function == "MUX2":
                a = pick_operand()
                b = pick_operand(exclude=[a])
                s = pick_operand(exclude=[a, b])
                signature = ("MUX2", (a, b, s))
                if signature in signatures:
                    continue
                return function, {"A": a, "B": b, "S": s}, [a, b, s], signature
            a = pick_operand()
            b = pick_operand(exclude=[a])
            operands = tuple(sorted((a, b))) if function in _COMMUTATIVE else (a, b)
            signature = (function, operands)
            if signature in signatures:
                continue
            return function, {"A": a, "B": b}, [a, b], signature
        # Pathologically saturated draw: accept a (possibly duplicate)
        # two-input gate rather than loop forever.
        a = pick_operand()
        b = pick_operand(exclude=[a])
        return "NAND2", {"A": a, "B": b}, [a, b], ("NAND2", tuple(sorted((a, b))))

    for i in range(spec.num_combinational):
        function, pins, used, signature = draw_gate()
        signatures.add(signature)
        cell = library.cheapest(function)
        out = f"n{i}"
        if function == "INV":
            inverter_of[pins["A"]] = out
        circuit.add_gate(f"g{i}", cell.name, pins, out)
        for net in used:
            fanout_count[net] = fanout_count.get(net, 0) + 1
        produced.append(out)
        fanout_count[out] = 0

    def dangling_first(
        count: int, exclude: Sequence[str] = (), depth_bias: float = 0.0
    ) -> List[str]:
        """Pick *count* distinct nets, exhausting unused nets first.

        With *depth_bias* > 0, selection within each candidate list is
        skewed toward late-created (deep) nets via inverse-transform
        sampling of u^(1/(1+bias)).
        """
        banned = set(exclude)
        unused = [
            net
            for net in produced
            if fanout_count.get(net, 0) == 0 and net not in banned
            and not net.startswith(("pi", "ffq"))
        ]

        def biased_pop(candidates: List[str]) -> str:
            if depth_bias <= 0:
                return candidates.pop(rng.randrange(len(candidates)))
            position = rng.random() ** (1.0 / (1.0 + depth_bias))
            index = min(len(candidates) - 1, int(position * len(candidates)))
            return candidates.pop(index)

        chosen: List[str] = []
        while len(chosen) < count and unused:
            chosen.append(biased_pop(unused))
        taken = banned.union(chosen)
        pool = [net for net in produced if net not in taken]
        while len(chosen) < count and pool:
            chosen.append(biased_pop(pool))
        return chosen

    d_nets = dangling_first(spec.num_flip_flops, depth_bias=spec.ff_depth_bias)
    for i, d_net in enumerate(d_nets):
        name = f"ff{i}"
        circuit.release_driver(ff_outputs[i])  # release the reserved claim
        circuit.add_gate(name, "DFF_X1", {"D": d_net, "CLK": "clock"}, ff_outputs[i])
        fanout_count[d_net] = fanout_count.get(d_net, 0) + 1

    po_nets = dangling_first(spec.num_outputs, exclude=d_nets)
    for net in po_nets:
        circuit.add_output(net)
        fanout_count[net] = fanout_count.get(net, 0) + 1
    # Any still-dangling nets become extra POs so the netlist carries no
    # dead logic (a synthesized design would have swept it).  With
    # ``reduce_dangling`` they are XOR-folded down to one extra PO
    # instead; the tree gates sit outside the seeded draw sequence, so
    # the flag cannot perturb existing seeded netlists.
    dangling = [
        net for net in produced
        if fanout_count.get(net, 0) == 0 and not net.startswith(("pi", "ffq"))
    ]
    if spec.reduce_dangling and len(dangling) > 1:
        xor_cell = library.cheapest("XOR2")
        frontier = dangling
        index = 0
        while len(frontier) > 1:
            folded: List[str] = []
            for j in range(0, len(frontier) - 1, 2):
                out = f"red{index}"
                circuit.add_gate(
                    f"rg{index}", xor_cell.name,
                    {"A": frontier[j], "B": frontier[j + 1]}, out,
                )
                index += 1
                folded.append(out)
            if len(frontier) % 2:
                folded.append(frontier[-1])
            frontier = folded
        circuit.add_output(frontier[0])
    else:
        for net in dangling:
            circuit.add_output(net)

    circuit.validate()
    return circuit
