"""SAT-based combinational equivalence checking.

Builds the classic miter between two netlists — shared inputs, XORed
outputs, OR-reduced to a single difference bit — and asks the CDCL
solver whether any input makes them disagree.  UNSAT proves
equivalence; SAT yields a counterexample input pattern.  Both circuits
are encoded through one structural-hash table
(:class:`~repro.sat.tseitin.NodeTable`) with pinned keys folded as
constants, so an output whose two copies hash to one literal is equal
by construction and only the others reach the solver: checking a
recovered key against the original design usually needs no SAT call.

Used by the optimization tests (a pass is only correct if the miter is
UNSAT), by the removal attack's ground-truth scoring, and available to
users as a first-class verification API.  Sequential circuits are
compared on their combinational cores with positional pseudo-PO
matching (same FF-name order), i.e. cycle-accurate equivalence under
matched state encodings.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Dict, Mapping, Optional

from ..obs.spans import trace_span
from ..sat.cnf import CNF
from ..sat.solver import Solver
from .circuit import Circuit, NetlistError
from .compiled import LANES, compile_circuit
from .transform import combinational_circuit, unrolled_view

__all__ = [
    "EquivalenceResult",
    "check_equivalence",
    "check_sequential_equivalence",
]


@dataclass(frozen=True)
class EquivalenceResult:
    """Outcome of one equivalence check."""

    equivalent: bool
    #: input assignment demonstrating a difference (when not equivalent)
    counterexample: Optional[Dict[str, int]]
    #: outputs of circuit A that differ under the counterexample
    differing_outputs: Optional[Dict[str, str]]

    def __bool__(self) -> bool:
        return self.equivalent


def check_equivalence(
    circuit_a: Circuit,
    circuit_b: Circuit,
    key_a: Optional[Mapping[str, int]] = None,
    key_b: Optional[Mapping[str, int]] = None,
) -> EquivalenceResult:
    """Are the two circuits functionally identical on all inputs?

    Inputs are matched by name and must coincide; outputs are matched
    positionally (locking renames FF data nets but preserves order).
    Key inputs, if any, must be pinned by *key_a* / *key_b* — an
    unconstrained key would make the question ill-posed.
    """
    a = combinational_circuit(circuit_a)
    b = combinational_circuit(circuit_b)
    if sorted(a.inputs) != sorted(b.inputs):
        raise NetlistError(
            f"input interfaces differ: {sorted(a.inputs)[:4]}... vs "
            f"{sorted(b.inputs)[:4]}..."
        )
    if len(a.outputs) != len(b.outputs):
        raise NetlistError("output counts differ")
    for circuit, key, tag in ((a, key_a, "A"), (b, key_b, "B")):
        missing = set(circuit.key_inputs) - set(key or {})
        if missing:
            raise NetlistError(
                f"circuit {tag} has unpinned key inputs {sorted(missing)[:4]}"
            )

    # Fast path: one full bit-parallel pass of LANES random patterns
    # through the compiled evaluator first.
    # A Boolean disagreement is a counterexample and skips the SAT miter
    # entirely; agreement falls through to the exhaustive proof.  (Only
    # when the key dicts pin key inputs alone — pinning arbitrary
    # internal nets is a SAT-level construct.)
    if (set(key_a or {}) <= set(a.key_inputs)
            and set(key_b or {}) <= set(b.key_inputs)):
        rng = random.Random(0xC0FFEE)
        patterns = [
            {net: rng.randint(0, 1) for net in a.inputs}
            for _ in range(LANES)
        ]
        got_a = compile_circuit(a).query_outputs(
            [dict(pattern, **(key_a or {})) for pattern in patterns]
        )
        got_b = compile_circuit(b).query_outputs(
            [dict(pattern, **(key_b or {})) for pattern in patterns]
        )
        for pattern, values_a, values_b in zip(patterns, got_a, got_b):
            differing = {
                net_a: net_b
                for net_a, net_b in zip(a.outputs, b.outputs)
                if values_a[net_a] is not None
                and values_b[net_b] is not None
                and values_a[net_a] != values_b[net_b]
            }
            if differing:
                return EquivalenceResult(False, dict(pattern), differing)

    # Deferred import: repro.sat.tseitin imports this package.
    from ..sat.tseitin import CircuitEncoder, NodeTable, miter_xors

    with trace_span("netlist.equivalence") as span:
        # Both circuits hash into one table over shared inputs, with
        # pinned keys bound to constants: whatever the pinned keys do
        # not reach, the copies share, and an output whose copies share
        # one literal is proven equal without the solver.
        cnf = CNF()
        table = NodeTable()
        enc_a = CircuitEncoder(cnf, a, _pinned_keys(a, key_a, table, cnf),
                               table=table)
        shared = {net: enc_a.var_of[net] for net in a.inputs}
        shared.update(_pinned_keys(b, key_b, table, cnf))
        enc_b = CircuitEncoder(cnf, b, shared, table=table)
        for encoder, key in ((enc_a, key_a), (enc_b, key_b)):
            for net, value in (key or {}).items():
                if net not in encoder.view.key_inputs:
                    lit = encoder.var_of[net]
                    cnf.add_clause([lit if value else -lit])

        unmerged = miter_xors(cnf, (
            ((net_a, net_b), enc_a.var_of[net_a], enc_b.var_of[net_b])
            for net_a, net_b in zip(a.outputs, b.outputs)
        ))
        span.annotate(merged=len(a.outputs) - len(unmerged),
                      unmerged=len(unmerged), solved=bool(unmerged))
        if not unmerged:
            return EquivalenceResult(True, None, None)
        cnf.add_clause([x for _, x in unmerged])

        solver = Solver()
        solver.add_cnf(cnf)
        if not solver.solve():
            return EquivalenceResult(True, None, None)
        model = solver.model()
    counterexample = {net: int(model[enc_a.var_of[net]]) for net in a.inputs}
    differing = dict(pair for pair, x in unmerged if model[x])
    return EquivalenceResult(False, counterexample, differing)


def _pinned_keys(circuit: Circuit, key: Optional[Mapping[str, int]],
                 table, cnf: CNF) -> Dict[str, int]:
    """*circuit*'s key inputs pinned in *key*, bound to constants."""
    return {
        net: table.constant(cnf, value)
        for net, value in (key or {}).items() if net in circuit.key_inputs
    }


def check_sequential_equivalence(
    circuit_a: Circuit,
    circuit_b: Circuit,
    frames: int,
    key_a: Optional[Mapping[str, int]] = None,
    key_b: Optional[Mapping[str, int]] = None,
) -> EquivalenceResult:
    """Bounded sequential equivalence from reset, over *frames* cycles.

    Unlike :func:`check_equivalence` — which compares combinational
    cores under *matched state encodings* — this unrolls both machines
    from the all-zero reset state and compares only primary outputs,
    so it tolerates re-encoded or restructured state (e.g. a design
    where retiming moved logic across registers).  UNSAT proves no
    input sequence of the given length distinguishes the machines.
    Both :func:`~repro.netlist.transform.unrolled_view` copies hash into
    one table over shared per-frame inputs, with the key inputs pinned
    by *key_a* / *key_b* bound to constants, so outputs whose copies
    share one literal in every frame need no SAT call.  The
    counterexample maps ``"<input>@<frame>"`` to its bit for every
    frame of the distinguishing sequence.
    """
    view_a = unrolled_view(circuit_a, frames)
    view_b = unrolled_view(circuit_b, frames)
    if sorted(circuit_a.inputs) != sorted(circuit_b.inputs):
        raise NetlistError("input interfaces differ")
    if len(circuit_a.outputs) != len(circuit_b.outputs):
        raise NetlistError("output counts differ")
    for circuit, key in ((circuit_a, key_a), (circuit_b, key_b)):
        missing = set(circuit.key_inputs) - set(key or {})
        if missing:
            raise NetlistError(
                f"unpinned key inputs {sorted(missing)[:4]}"
            )

    # Deferred import: repro.sat.tseitin imports this package.
    from ..sat.tseitin import CircuitEncoder, NodeTable, miter_xors

    with trace_span("netlist.sequential_equivalence",
                    frames=frames) as span:
        cnf = CNF()
        table = NodeTable()
        enc_a = CircuitEncoder(cnf, view_a,
                               _pinned_keys(circuit_a, key_a, table, cnf),
                               table=table)
        shared = {tag: enc_a.var_of[tag] for tag in view_a.inputs}
        shared.update(_pinned_keys(circuit_b, key_b, table, cnf))
        enc_b = CircuitEncoder(cnf, view_b, shared, table=table)
        unmerged = miter_xors(cnf, (
            (None, enc_a.var_of[(net_a, t)], enc_b.var_of[(net_b, t)])
            for t in range(frames)
            for net_a, net_b in zip(circuit_a.outputs, circuit_b.outputs)
        ))
        span.annotate(merged=len(view_a.outputs) - len(unmerged),
                      unmerged=len(unmerged), solved=bool(unmerged))
        if not unmerged:
            return EquivalenceResult(True, None, None)
        cnf.add_clause([x for _, x in unmerged])
        solver = Solver()
        solver.add_cnf(cnf)
        if not solver.solve():
            return EquivalenceResult(True, None, None)
        model = solver.model()
    counterexample = {
        f"{net}@{t}": int(model[enc_a.var_of[(net, t)]])
        for net, t in view_a.inputs
    }
    return EquivalenceResult(False, counterexample, None)
