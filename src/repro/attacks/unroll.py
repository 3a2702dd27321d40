"""Sequential SAT attack by time-frame unrolling.

The classic SAT attack assumes scan access (pseudo-PI/PO visibility).
When scan is locked or absent, the attacker can still unroll the
sequential circuit over T time frames — chaining each frame's flip-flop
inputs to the next frame's flip-flop outputs, with the reset state
pinned — and search for a *distinguishing input sequence*: per-frame
primary inputs making two key candidates disagree at some primary
output in some frame.  This is the model-checking-flavoured attack
family the logic-locking literature developed after [11] (e.g. KC2),
and the natural "what about sequential attacks?" question the paper
leaves open.

The reproduction's answer: unrolling does not help against GKs.  The GK
key bits are combinationally non-influential in *every* time frame, so
the unrolled miter is exactly as UNSAT as the combinational one — while
sequential XOR locking falls to this attack without any scan access.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Dict, List, Mapping, Optional, Sequence

from ..netlist.circuit import Circuit, Gate, NetlistError
from ..netlist.transform import extract_combinational
from ..sat.cnf import CNF
from ..sat.solver import Solver
from ..sat.tseitin import encode_gate_function
from ..sim.cyclesim import CycleSimulator

__all__ = ["UnrolledCopy", "SequentialAttackResult", "sequential_sat_attack"]


@dataclass
class UnrolledCopy:
    """Variable map of one T-frame unrolled copy of a locked design."""

    frames: int
    key_vars: Dict[str, int]
    #: pi_vars[t][net] — per-frame primary input variables
    pi_vars: List[Dict[str, int]]
    #: po_vars[t][net] — per-frame primary output variables
    po_vars: List[Dict[str, int]]


def _encode_frame(
    cnf: CNF,
    comb: Circuit,
    order: Sequence[Gate],
    net_vars: Mapping[str, int],
) -> Dict[str, int]:
    """One frame: a plain Tseitin copy of *comb*, one variable per net.

    Nets in *net_vars* keep their variables (a gate driving one is not
    encoded); the rest are numbered in input, then gate (*order*), then
    output order.  Not hashed: the search, and so the unrolled attack's
    DIP counts, follow this numbering.
    """
    var_of = dict(net_vars)

    def var(net: str) -> int:
        if net not in var_of:
            var_of[net] = cnf.new_var()
        return var_of[net]

    for net in comb.inputs + comb.key_inputs:
        var(net)
    for gate in order:
        if gate.output in var_of:
            continue
        out = var(gate.output)
        operands = [var(net) for net in gate.input_nets()]
        encode_gate_function(cnf, gate.function, out, operands,
                             gate.truth_table)
    for net in comb.outputs:
        var(net)
    return var_of


def _unroll(
    cnf: CNF,
    comb: Circuit,
    pseudo_in: Mapping[str, str],
    pseudo_out: Mapping[str, str],
    original_pos: Sequence[str],
    frames: int,
    shared_pis: Optional[List[Dict[str, int]]] = None,
    shared_keys: Optional[Mapping[str, int]] = None,
) -> UnrolledCopy:
    """Encode *frames* chained copies of the combinational core."""
    keys: Dict[str, int] = dict(shared_keys or {})
    for net in comb.key_inputs:
        if net not in keys:
            keys[net] = cnf.new_var()

    pi_vars: List[Dict[str, int]] = []
    po_vars: List[Dict[str, int]] = []
    state_vars: Dict[str, int] = {}  # ff name -> var of current Q value
    for ff in pseudo_in:
        var = cnf.new_var()
        state_vars[ff] = var
        cnf.add_clause([-var])  # reset state: all flip-flops at 0

    real_pis = [n for n in comb.inputs if n not in set(pseudo_in.values())]
    order = comb.topological_order()
    for t in range(frames):
        net_vars: Dict[str, int] = dict(keys)
        for ff, q_net in pseudo_in.items():
            net_vars[q_net] = state_vars[ff]
        if shared_pis is not None:
            for net in real_pis:
                net_vars[net] = shared_pis[t][net]
        var_of = _encode_frame(cnf, comb, order, net_vars)
        pi_vars.append({net: var_of[net] for net in real_pis})
        po_vars.append({net: var_of[net] for net in original_pos})
        state_vars = {
            ff: var_of[d_net] for ff, d_net in pseudo_out.items()
        }
    return UnrolledCopy(
        frames=frames, key_vars=keys, pi_vars=pi_vars, po_vars=po_vars
    )


@dataclass
class SequentialAttackResult:
    """Outcome of the unrolling attack."""

    completed: bool = False
    iterations: int = 0
    unsat_at_first_iteration: bool = False
    key: Optional[Dict[str, int]] = None
    distinguishing_sequences: List[List[Dict[str, int]]] = field(
        default_factory=list
    )


def sequential_sat_attack(
    locked_sequential: Circuit,
    original: Circuit,
    frames: int = 4,
    max_iterations: int = 64,
) -> SequentialAttackResult:
    """Run the T-frame unrolling attack (no scan access assumed).

    *original* plays the activated chip: it answers each distinguishing
    input sequence with the reference PO trace from reset.
    """
    if not locked_sequential.flip_flops():
        raise NetlistError("sequential attack needs a sequential netlist")
    if not locked_sequential.key_inputs:
        raise NetlistError("netlist has no key inputs; nothing to attack")
    extraction = extract_combinational(locked_sequential)
    comb = extraction.circuit
    original_pos = list(locked_sequential.outputs)
    oracle_pos = list(original.outputs)

    solver = Solver()

    def add_copy(shared_pis=None, shared_keys=None) -> UnrolledCopy:
        cnf = CNF(num_vars=solver.num_vars)
        copy = _unroll(
            cnf, comb, extraction.pseudo_inputs, extraction.pseudo_outputs,
            original_pos, frames, shared_pis=shared_pis,
            shared_keys=shared_keys,
        )
        solver.add_cnf(cnf)
        return copy

    copy1 = add_copy()
    copy2 = add_copy(shared_pis=copy1.pi_vars)

    miter = CNF(num_vars=solver.num_vars)
    xor_vars = []
    for t in range(frames):
        for net in original_pos:
            x = miter.new_var()
            miter.add_xor(x, copy1.po_vars[t][net], copy2.po_vars[t][net])
            xor_vars.append(x)
    diff = miter.new_var()
    miter.add_or(diff, xor_vars)
    solver.add_cnf(miter)

    result = SequentialAttackResult()
    for _ in range(max_iterations):
        if not solver.solve([diff]):
            result.completed = True
            break
        model = solver.model()
        sequence = [
            {net: int(model[var]) for net, var in copy1.pi_vars[t].items()}
            for t in range(frames)
        ]
        result.distinguishing_sequences.append(sequence)
        result.iterations += 1

        # Query the activated chip from reset with this sequence.
        reference = CycleSimulator(original, reset_value=0)
        responses = reference.run(sequence)

        # Pin both key copies to reproduce the observed PO trace.
        for copy in (copy1, copy2):
            cnf = CNF(num_vars=solver.num_vars)
            pinned = _unroll(
                cnf, comb, extraction.pseudo_inputs,
                extraction.pseudo_outputs, original_pos, frames,
                shared_keys=copy.key_vars,
            )
            for t in range(frames):
                for net, value in sequence[t].items():
                    var = pinned.pi_vars[t][net]
                    cnf.add_clause([var if value else -var])
                for net_l, net_o in zip(original_pos, oracle_pos):
                    value = responses[t][net_o]
                    var = pinned.po_vars[t][net_l]
                    cnf.add_clause([var if value else -var])
            solver.add_cnf(cnf)

    result.unsat_at_first_iteration = (
        result.completed and result.iterations == 0
    )
    if result.completed and solver.solve([]):
        model = solver.model()
        result.key = {
            net: int(model[var]) for net, var in copy1.key_vars.items()
        }
    return result
