"""Sec. VI's SAT-attack experiment.

"We also ran SAT attack on these encrypted designs ... Not surprisingly,
the attack stopped at the first iteration of searching the DIP and
reported unsatisfiable."

The bench runs the attack against GK-locked versions of the benchmarks
(KEYGENs stripped, GK key wires exposed, combinational extraction — the
paper's exact preprocessing) and, as a positive control, against
XOR-locked versions where the same attack succeeds.  On the GK locks
the first query is refuted with 0 conflicts: the encoder folds each GK
to ``NOT x`` or ``x``, so the two miter copies hash together.
"""

import random

import pytest

from repro.attacks import (
    CombinationalOracle,
    sat_attack,
    verify_key_against_oracle,
)
from repro.core import GkLock, expose_gk_keys
from repro.locking import XorLock

#: benchmarks small enough for the pure-Python CDCL to attack quickly
_ATTACKED = ("s1238", "s5378", "s9234")


@pytest.mark.parametrize("name", _ATTACKED)
def test_sat_attack_on_gk(benchmark, instances, name):
    inst = instances[name]
    locked = GkLock(inst.clock).lock(inst.circuit, 8, random.Random(21))
    exposed = expose_gk_keys(locked)
    oracle = CombinationalOracle(inst.circuit)

    result = benchmark.pedantic(
        sat_attack, args=(exposed, oracle), rounds=1, iterations=1
    )
    accuracy = verify_key_against_oracle(exposed, oracle, result.key,
                                         samples=24)
    print(f"\n  {name}: GK-locked -> UNSAT at iteration "
          f"{result.iterations + 1} (0 DIPs found, "
          f"{result.solver_conflicts} conflicts); recovered-key "
          f"functional accuracy {accuracy:.2f}")
    # the paper's result, verbatim
    assert result.unsat_at_first_iteration
    # and without search: every GK folds to NOT x or x in both copies,
    # so the miter has no XOR to refute
    assert result.solver_conflicts == 0
    assert accuracy < 0.9  # the certified netlist is functionally wrong


def test_sat_attack_positive_control(benchmark, s1238):
    """The same attack cracks conventional XOR locking."""
    locked = XorLock().lock(s1238.circuit, 8, random.Random(22))
    oracle = CombinationalOracle(s1238.circuit)
    result = benchmark.pedantic(
        sat_attack, args=(locked.circuit, oracle), rounds=1, iterations=1
    )
    accuracy = verify_key_against_oracle(
        locked.circuit, oracle, result.key, samples=24
    )
    print(f"\n  s1238: XOR-locked -> cracked in {result.iterations} DIPs, "
          f"accuracy {accuracy:.2f}")
    assert result.completed and result.iterations > 0
    assert accuracy == 1.0
