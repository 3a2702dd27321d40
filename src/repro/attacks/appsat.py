"""AppSAT: approximate deobfuscation (Shamsi et al. [10]).

The GK paper's introduction notes that point-function schemes "have to
rely on other encryption techniques to increase the corruptibility of
the incorrect key-vectors.  Unfortunately, an attacking method [10]
exploited the dependence on other encryption techniques to crack these
SAT attack-resistant methods."

AppSAT is that method: it interleaves exact DIP iterations with batches
of *random* oracle queries.  Keys that are wrong in the high-corruption
layer (XOR key-gates) fail random queries almost surely and get pruned
fast; once the candidate key's observed error rate drops below a
threshold, the attack stops and declares the design *approximately*
deobfuscated — the remaining error is the point function's single
pattern, which is negligible for piracy purposes.

Against GK-locked designs AppSAT degenerates exactly like the plain SAT
attack: the key bits are combinationally non-influential, every
candidate key has the *same* (high) error against the real chip, and
random-query reconciliation can never repair it — the loop ends with no
consistent key or an arbitrary one that fails validation.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Dict, Optional

from ..netlist.circuit import Circuit, NetlistError
from ..netlist.compiled import compile_circuit
from ..netlist.transform import combinational_circuit, combinational_view
from ..sat.solver import Solver
from .oracle import OracleProtocol
from .sat_attack import KeyConeMiter, _interface_map

__all__ = ["AppSatResult", "appsat_attack"]


@dataclass
class AppSatResult:
    """Outcome of one AppSAT run."""

    key: Optional[Dict[str, int]]
    dip_iterations: int = 0
    random_queries: int = 0
    repaired_queries: int = 0  # random patterns that pruned keys
    #: observed error rate of the returned key on the final random batch
    estimated_error: float = 1.0
    settled: bool = False  # error dropped below the threshold

    @property
    def approximately_correct(self) -> bool:
        return self.settled and self.key is not None


def appsat_attack(
    locked_netlist: Circuit,
    oracle: OracleProtocol,
    rng: Optional[random.Random] = None,
    dips_per_round: int = 2,
    queries_per_round: int = 24,
    error_threshold: float = 0.0,
    max_rounds: int = 24,
    solver: Optional[Solver] = None,
) -> AppSatResult:
    """Run AppSAT against *locked_netlist* with the activated chip.

    Each round: up to *dips_per_round* exact DIP iterations, then
    *queries_per_round* random patterns evaluated under the current
    candidate key.  Mismatching patterns are added as constraints (they
    prune the candidate); when a whole batch matches (observed error <=
    *error_threshold*), the key is declared approximately correct.

    *solver* replaces the default fresh :class:`Solver` (e.g. one seeded
    by :func:`~repro.attacks.warm_start.warm_solver`); it must have no
    clauses added yet.
    """
    rng = rng or random.Random(0)
    # The random phase evaluates candidates on the compiled core, so
    # AppSAT keeps a flip-flop-free circuit rather than a bare view.
    comb = combinational_circuit(locked_netlist)
    if not comb.key_inputs:
        raise NetlistError("netlist has no key inputs; nothing to attack")
    oracle_output_of = _interface_map(comb, oracle)

    if solver is None:
        solver = Solver()

    miter = KeyConeMiter(solver, combinational_view(comb), oracle_output_of)

    def candidate_key() -> Optional[Dict[str, int]]:
        if not solver.solve([]):
            return None
        return miter.key(solver.model())

    result = AppSatResult(key=None)
    no_more_dips = False
    for _round in range(max_rounds):
        # Exact phase: a few DIP iterations.
        for _ in range(dips_per_round):
            if no_more_dips:
                break
            if not solver.solve([miter.diff]):
                no_more_dips = True
                break
            dip = miter.dip(solver.model())
            result.dip_iterations += 1
            miter.pin(dip, oracle.query(dip))

        # Approximate phase: random-query reconciliation.  Patterns are
        # drawn in the same order the per-query loop used, then both
        # sides resolve in lane-wide bit-parallel passes.
        key = candidate_key()
        if key is None:
            return result
        patterns = [
            {net: rng.randint(0, 1) for net in comb.inputs}
            for _ in range(queries_per_round)
        ]
        responses = oracle.query_batch(patterns)
        result.random_queries += queries_per_round
        candidate = compile_circuit(comb).query_outputs(
            [dict(pattern, **key) for pattern in patterns]
        )
        mismatches = 0
        for pattern, response, values in zip(patterns, responses, candidate):
            if any(
                values[net] != response[oracle_output_of[net]]
                for net in comb.outputs
            ):
                mismatches += 1
                result.repaired_queries += 1
                miter.pin(pattern, response)
        error = mismatches / queries_per_round
        result.key = key
        result.estimated_error = error
        if error <= error_threshold:
            result.settled = True
            return result
        if no_more_dips and mismatches == 0:
            result.settled = True
            return result
    return result
