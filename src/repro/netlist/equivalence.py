"""SAT-based combinational equivalence checking.

Builds the classic miter between two netlists — shared inputs, XORed
outputs, OR-reduced to a single difference bit — and asks the CDCL
solver whether any input makes them disagree.  UNSAT proves
equivalence; SAT yields a counterexample input pattern.

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

from ..sat.cnf import CNF
from ..sat.solver import Solver
from .circuit import Circuit, NetlistError
from .compiled import compile_circuit
from .transform import extract_combinational

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


def _comb(circuit: Circuit) -> Circuit:
    if circuit.flip_flops():
        return extract_combinational(circuit).circuit
    return circuit


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
    a = _comb(circuit_a)
    b = _comb(circuit_b)
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

    # Fast path: one full bit-parallel pass of random patterns through
    # the compiled evaluator first (as many patterns as it has lanes).
    # A Boolean disagreement is a counterexample and skips the SAT miter
    # entirely; agreement falls through to the exhaustive proof.  (Only
    # when the key dicts pin key inputs alone — pinning arbitrary
    # internal nets is a SAT-level construct.)
    if (set(key_a or {}) <= set(a.key_inputs)
            and set(key_b or {}) <= set(b.key_inputs)):
        compiled_a = compile_circuit(a)
        rng = random.Random(0xC0FFEE)
        patterns = [
            {net: rng.randint(0, 1) for net in a.inputs}
            for _ in range(compiled_a.lanes)
        ]
        got_a = compiled_a.query_outputs(
            [dict(pattern, **(key_a or {})) for pattern in patterns]
        )
        got_b = compile_circuit(b, compiled_a.lanes).query_outputs(
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
    from ..sat.tseitin import CircuitEncoder

    cnf = CNF()
    enc_a = CircuitEncoder(cnf, a)
    shared = {net: enc_a.var_of[net] for net in a.inputs}
    enc_b = CircuitEncoder(cnf, b, net_vars=shared)
    for encoder, key in ((enc_a, key_a), (enc_b, key_b)):
        for net, value in (key or {}).items():
            var = encoder.var_of[net]
            cnf.add_clause([var if value else -var])

    xor_vars = []
    for net_a, net_b in zip(a.outputs, b.outputs):
        x = cnf.new_var()
        cnf.add_xor(x, enc_a.var_of[net_a], enc_b.var_of[net_b])
        xor_vars.append(x)
    diff = cnf.new_var()
    cnf.add_or(diff, xor_vars)
    cnf.add_clause([diff])

    solver = Solver()
    solver.add_cnf(cnf)
    if not solver.solve():
        return EquivalenceResult(True, None, None)
    model = solver.model()
    counterexample = {net: int(model[enc_a.var_of[net]]) for net in a.inputs}
    differing = {}
    for net_a, net_b, x in zip(a.outputs, b.outputs, xor_vars):
        if model[x]:
            differing[net_a] = net_b
    return EquivalenceResult(False, counterexample, differing)


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
    """
    # Deferred import: attacks depends on netlist, not vice versa.
    from ..attacks.unroll import _unroll
    from .transform import extract_combinational

    if frames < 1:
        raise NetlistError("need at least one frame")
    if sorted(circuit_a.inputs) != sorted(circuit_b.inputs):
        raise NetlistError("input interfaces differ")
    if len(circuit_a.outputs) != len(circuit_b.outputs):
        raise NetlistError("output counts differ")

    cnf = CNF()
    solver = Solver()
    copies = []
    for circuit, key in ((circuit_a, key_a), (circuit_b, key_b)):
        extraction = extract_combinational(circuit)
        missing = set(extraction.circuit.key_inputs) - set(key or {})
        if missing:
            raise NetlistError(
                f"unpinned key inputs {sorted(missing)[:4]}"
            )
        shared_pis = copies[0].pi_vars if copies else None
        copy = _unroll(
            cnf,
            extraction.circuit,
            extraction.pseudo_inputs,
            extraction.pseudo_outputs,
            list(circuit.outputs),
            frames,
            shared_pis=shared_pis,
        )
        for net, value in (key or {}).items():
            var = copy.key_vars[net]
            cnf.add_clause([var if value else -var])
        copies.append(copy)

    xor_vars = []
    for t in range(frames):
        for net_a, net_b in zip(circuit_a.outputs, circuit_b.outputs):
            x = cnf.new_var()
            cnf.add_xor(
                x, copies[0].po_vars[t][net_a], copies[1].po_vars[t][net_b]
            )
            xor_vars.append(x)
    diff = cnf.new_var()
    cnf.add_or(diff, xor_vars)
    cnf.add_clause([diff])
    solver.add_cnf(cnf)
    if not solver.solve():
        return EquivalenceResult(True, None, None)
    model = solver.model()
    # Report the first frame's inputs of the distinguishing sequence.
    counterexample = {
        f"{net}@{t}": int(model[copies[0].pi_vars[t][net]])
        for t in range(frames)
        for net in copies[0].pi_vars[t]
    }
    return EquivalenceResult(False, counterexample, None)
