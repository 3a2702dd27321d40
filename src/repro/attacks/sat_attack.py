"""The SAT attack on logic locking (Subramanyan et al. [11]).

The attack builds a miter of two copies of the locked netlist sharing
primary inputs but with independent keys, and asks a SAT solver for a
**distinguishing input pattern** (DIP): an input making the copies
disagree for some key pair.  Each DIP is resolved against the oracle
(the activated chip) and both copies are constrained to match the
observed response, pruning every key inconsistent with it.  When no DIP
remains, any key satisfying the accumulated constraints is functionally
correct — for ordinary locking.  :class:`KeyConeMiter` builds that
formula over the keys' fan-out cone only (see its docstring).

Against the paper's GK-locked designs, the very first DIP query returns
UNSAT (the GK key inputs are combinationally non-influential), so the
attack "succeeds" immediately with an arbitrary key — and the function
it certifies is the *glitch-blind* one, which is wrong wherever a GK
transmits data on a glitch.  :func:`verify_key_against_oracle` makes
that failure observable, reproducing Sec. VI's result.
"""

from __future__ import annotations

import random
import time
from dataclasses import dataclass, field
from typing import Dict, List, Mapping, Optional

from ..netlist.circuit import Circuit, NetlistError
from ..netlist.compiled import compile_circuit
from ..netlist.transform import extract_combinational
from ..obs import metrics as _metrics
from ..obs.spans import trace_span
from ..sat.cnf import CNF
from ..sat.solver import Solver
from ..sat.tseitin import CircuitEncoder
from .oracle import OracleProtocol

__all__ = ["IterationStats", "KeyConeMiter", "MITER_ENCODING_VERSION",
           "SatAttackResult", "sat_attack", "verify_key_against_oracle"]

#: Version of :class:`KeyConeMiter`'s variable numbering.  Warm-start
#: clause pools are stored by variable number, so
#: :func:`~repro.attacks.warm_start.shared_clause_key` is salted with this:
#: bump it whenever the miter's base encoding changes, or a pool saved
#: under the old numbering would be seeded into unrelated variables.
MITER_ENCODING_VERSION = 2


@dataclass(frozen=True)
class IterationStats:
    """Cumulative effort after one DIP iteration (1-based *index*).

    Counter fields are cumulative over the whole attack so far, so each
    sequence is monotonically non-decreasing across iterations — the
    property the oracle-guided-attack literature reports (queries,
    solver effort, clause growth per iteration) and the one our
    regression tests pin down.
    """

    index: int
    seconds: float  # wall time since the attack started
    solver_decisions: int
    solver_conflicts: int
    solver_propagations: int
    oracle_queries: int
    clauses: int  # problem clauses in the solver's database


@dataclass
class SatAttackResult:
    """Outcome of one SAT attack run."""

    completed: bool  # the DIP loop terminated (UNSAT) within budget
    key: Optional[Dict[str, int]]  # a key consistent with all DIPs
    iterations: int  # number of DIPs found
    unsat_at_first_iteration: bool  # the GK signature (Sec. VI)
    dips: List[Dict[str, int]] = field(default_factory=list)
    oracle_queries: int = 0
    solver_conflicts: int = 0
    solver_decisions: int = 0
    iteration_stats: List[IterationStats] = field(default_factory=list)

    @property
    def found_any_dip(self) -> bool:
        return self.iterations > 0


def _comb_view(locked_netlist: Circuit) -> Circuit:
    if locked_netlist.flip_flops():
        return extract_combinational(locked_netlist).circuit
    return locked_netlist


def _interface_map(comb: Circuit, oracle: OracleProtocol) -> Dict[str, str]:
    """Locked-netlist output net -> oracle output net.

    Locking may rename a flip-flop's D net (a GK splices its MUX in
    front of the FF), but both combinational extractions list outputs in
    the same order: original POs first, then pseudo-POs sorted by FF
    name.  Inputs must agree by name (locking never renames Q nets or
    PIs).
    """
    if sorted(comb.inputs) != sorted(oracle.inputs):
        raise NetlistError("oracle input interface does not match")
    if len(comb.outputs) != len(oracle.outputs):
        raise NetlistError("oracle output interface does not match")
    return dict(zip(comb.outputs, oracle.outputs))


class KeyConeMiter:
    """The SAT attack's two-copy miter, built over the keys' fan-out cone.

    Copy 1 encodes the whole combinational view *comb*.  Copy 2 encodes
    only the gates in the fan-out cone of some key input, with fresh key
    variables; every other net, the primary inputs included, is bound
    to copy 1's variable.  ``diff`` is the OR of per-output XORs over the
    outputs inside the cone, and :meth:`pin` adds one oracle
    observation to both copies.  *oracle_output_of* maps each output of
    *comb* to the oracle's name for it.

    :meth:`pin` runs one ternary evaluation of the pattern with every
    key at X.  Each net that comes out 0/1 is bound to a single
    constant-true literal (or its negation), so the encoder emits
    clauses only for the X-valued gates, once per copy over that copy's
    key variables.

    Soundness, against the full two-copy encoding:

    * Nets outside the cone are functions of the primary inputs alone,
      so both copies agree on them in every model; sharing their
      variables, and dropping the outputs among them from ``diff``,
      removes no model.
    * Ternary simulation is conservative, so a net that is 0/1 with the
      keys at X has that value under every key; binding it to a
      constant is exact.
    * X-valued nets are encoded exactly, over the copy's own keys.
    * A key-independent output that disagrees with the oracle pins the
      constant-true literal false, so the formula is UNSAT, just as
      the full encoding is.
    """

    def __init__(
        self,
        solver: Solver,
        comb: Circuit,
        oracle_output_of: Mapping[str, str],
    ) -> None:
        self.solver = solver
        self.comb = comb
        self.oracle_output_of = oracle_output_of
        cone = set(comb.key_inputs)
        for net in comb.key_inputs:
            cone.update(
                comb.gates[name].output for name in comb.fanout_cone(net)
            )
        copy1 = self._encode({})
        copy2 = self._encode({
            net: var for net, var in copy1.var_of.items() if net not in cone
        })
        self.pi_vars = {net: copy1.var_of[net] for net in comb.inputs}
        #: per copy, key input -> variable
        self.key_vars = [
            {net: copy.var_of[net] for net in comb.key_inputs}
            for copy in (copy1, copy2)
        ]

        cnf = CNF(num_vars=solver.num_vars)
        self.true_lit = cnf.new_var()
        cnf.add_clause([self.true_lit])
        xor_vars = []
        for net in comb.outputs:
            if net in cone:
                x = cnf.new_var()
                cnf.add_xor(x, copy1.var_of[net], copy2.var_of[net])
                xor_vars.append(x)
        #: assumed true per DIP query: some in-cone output differs
        self.diff = cnf.new_var()
        cnf.add_or(self.diff, xor_vars)
        solver.add_cnf(cnf)

    def _encode(self, net_vars: Mapping[str, int]) -> CircuitEncoder:
        cnf = CNF(num_vars=self.solver.num_vars)
        encoder = CircuitEncoder(cnf, self.comb, net_vars=net_vars)
        self.solver.add_cnf(cnf)
        return encoder

    def pin(self, pattern: Mapping[str, int], response: Mapping) -> None:
        """Constrain both copies to answer *response* on *pattern*."""
        comb = self.comb
        values = compile_circuit(comb).evaluate(
            dict(pattern, **dict.fromkeys(comb.key_inputs))
        )
        true = self.true_lit
        constants = {
            net: true if value else -true
            for net, value in values.items() if value is not None
        }
        cnf = CNF(num_vars=self.solver.num_vars)
        for key_vars in self.key_vars:
            encoder = CircuitEncoder(
                cnf, comb, net_vars=dict(constants, **key_vars)
            )
            for net in comb.outputs:
                lit = encoder.var_of[net]
                if not response[self.oracle_output_of[net]]:
                    lit = -lit
                if lit != true:  # else a constant output that agrees
                    cnf.add_clause([lit])
        self.solver.add_cnf(cnf)

    def dip(self, model: Mapping[int, bool]) -> Dict[str, int]:
        """The primary-input pattern of a model of the miter."""
        return {net: int(model[var]) for net, var in self.pi_vars.items()}

    def key(self, model: Mapping[int, bool]) -> Dict[str, int]:
        """Copy 1's key in a model of the miter."""
        return {net: int(model[var]) for net, var in self.key_vars[0].items()}


def sat_attack(
    locked_netlist: Circuit,
    oracle: OracleProtocol,
    max_iterations: int = 256,
    solver: Optional[Solver] = None,
) -> SatAttackResult:
    """Run the DIP loop against *locked_netlist* using *oracle*.

    Sequential netlists are first reduced to their combinational core
    (pseudo-PI/PO transformation), matching the paper's preprocessing.
    The oracle must expose the same input/output interface (it will, if
    built from the corresponding original design).

    *solver*, when given, replaces the default fresh :class:`Solver`
    (e.g. one seeded by :func:`~repro.attacks.warm_start.warm_solver`);
    it must have no clauses added yet.
    """
    comb = _comb_view(locked_netlist)
    if not comb.key_inputs:
        raise NetlistError("netlist has no key inputs; nothing to attack")
    oracle_output_of = _interface_map(comb, oracle)

    if solver is None:
        solver = Solver()

    t_start = time.perf_counter()
    # Touch the loop counters so they appear in metric tables even for
    # the paper's headline case (UNSAT at iteration 1: zero of each).
    _metrics.inc("attack.sat.iterations", 0)
    _metrics.inc("attack.sat.oracle_queries", 0)
    with trace_span(
        "attack.sat", design=comb.name, key_bits=len(comb.key_inputs)
    ) as attack_span:
        with trace_span("attack.sat.encode"):
            miter = KeyConeMiter(solver, comb, oracle_output_of)

        result = SatAttackResult(
            completed=False, key=None, iterations=0,
            unsat_at_first_iteration=False,
        )
        for iteration in range(max_iterations):
            with trace_span("attack.sat.iteration", index=iteration + 1):
                if not solver.solve([miter.diff]):
                    result.completed = True
                    break
                dip = miter.dip(solver.model())
                result.dips.append(dip)
                result.iterations += 1
                response = oracle.query(dip)
                result.oracle_queries += 1
                _metrics.inc("attack.sat.oracle_queries")
                miter.pin(dip, response)
                result.iteration_stats.append(IterationStats(
                    index=result.iterations,
                    seconds=time.perf_counter() - t_start,
                    solver_decisions=solver.num_decisions,
                    solver_conflicts=solver.num_conflicts,
                    solver_propagations=solver.num_propagations,
                    oracle_queries=result.oracle_queries,
                    clauses=solver.num_clauses,
                ))
                _metrics.inc("attack.sat.iterations")

        result.unsat_at_first_iteration = (
            result.completed and result.iterations == 0
        )
        result.solver_conflicts = solver.num_conflicts
        result.solver_decisions = solver.num_decisions
        if result.completed:
            with trace_span("attack.sat.key_extract"):
                if solver.solve([]):
                    result.key = miter.key(solver.model())
                else:
                    # over-constrained: no consistent key at all
                    result.key = None
        attack_span.annotate(
            iterations=result.iterations, completed=result.completed,
            unsat_at_first=result.unsat_at_first_iteration,
        )
    return result


def verify_key_against_oracle(
    locked_netlist: Circuit,
    oracle: OracleProtocol,
    key: Mapping[str, int],
    samples: int = 64,
    rng: Optional[random.Random] = None,
) -> float:
    """Fraction of random patterns on which *key* matches the oracle.

    1.0 means the recovered key reproduces the chip on every sampled
    pattern (the attack truly decrypted the design); for GK-locked
    designs this lands well below 1.0 no matter the key, because the
    combinational netlist itself is glitch-blind.
    """
    rng = rng or random.Random(0)
    comb = _comb_view(locked_netlist)
    oracle_output_of = _interface_map(comb, oracle)
    # Draw every pattern first (the same stream the per-pattern loop
    # consumed), then resolve both sides in lane-wide passes.
    patterns = [
        {net: rng.randint(0, 1) for net in comb.inputs}
        for _ in range(samples)
    ]
    responses = oracle.query_batch(patterns)
    assignments = [dict(pattern, **key) for pattern in patterns]
    candidate = compile_circuit(comb).query_outputs(assignments)
    matches = 0
    for values, response in zip(candidate, responses):
        if all(
            values[net] == response[oracle_output_of[net]]
            for net in comb.outputs
        ):
            matches += 1
    return matches / samples
