"""The SAT attack's search, pinned to exact counts.

Warm-start clause pools are stored by variable number, salted with
:data:`~repro.attacks.sat_attack.MITER_ENCODING_VERSION`.  This test
pins what that numbering and the solver's search produce on twelve
seeded instances built here: exposed GK locks of small generated
sequential designs (the paper's UNSAT-at-first-query case) and 4-bit
SARLock locks of small combinational ones (15 DIPs each).  For each
attack it checks the DIP iterations, the solver's conflicts and
decisions, its variable and clause counts and the recovered key.

If a change moves any of these numbers, it has changed the miter's
encoding or the solver's search: decide whether
``MITER_ENCODING_VERSION`` must be bumped (it must whenever the miter's
variable numbering changes) before writing the new numbers here.
"""

import random

import pytest

from repro.attacks import CombinationalOracle
from repro.attacks.sat_attack import sat_attack
from repro.bench.generator import GeneratorSpec, random_sequential_circuit
from repro.core import GkLock, expose_gk_keys
from repro.locking import SarLock
from repro.sat.solver import Solver
from repro.sta.clock import ClockSpec
from repro.sta.timing import analyze

#: Headroom over the critical path so the 1-ns glitch fits.
GLITCH_ROOM_NS = 2.0


def _design(seed, flip_flops, gates, inputs):
    return random_sequential_circuit(GeneratorSpec(
        name=f"d{seed}", num_inputs=inputs, num_outputs=6,
        num_flip_flops=flip_flops, num_combinational=gates, seed=seed,
        locality=0.5, window=12, ff_depth_bias=3.0,
    ))


def _clock_with_glitch_room(circuit):
    probe = analyze(circuit, ClockSpec(period=1000.0))
    critical = max(
        e.arrival_max + circuit.gates[e.ff].cell.setup
        for e in probe.endpoints.values()
    )
    return ClockSpec(period=round(critical * 1.08 + GLITCH_ROOM_NS, 2))


def _gk_case(seed):
    design = _design(seed, flip_flops=8, gates=40, inputs=6)
    locked = GkLock(_clock_with_glitch_room(design)).lock(
        design, 4, random.Random(seed))
    return expose_gk_keys(locked), CombinationalOracle(design)


def _sarlock_case(seed):
    design = _design(seed, flip_flops=0, gates=20, inputs=8)
    locked = SarLock().lock(design, 4, random.Random(seed))
    return locked.circuit, CombinationalOracle(design)


def _sar_key(bits):
    return {f"keyin_s{i}": int(bit) for i, bit in enumerate(bits)}


# (seed, iterations, conflicts, decisions, solver vars, solver clauses, key)
GK_RUNS = [
    (1, 0, 17, 64, 61, 145, {"keyout$0": 0, "keyout$46": 0}),
    (2, 0, 18, 80, 60, 142, {"keyout$0": 0, "keyout$46": 0}),
    (3, 0, 18, 69, 64, 156, {"keyout$0": 0, "keyout$50": 0}),
    (4, 0, 15, 57, 63, 152, {"keyout$0": 1, "keyout$52": 0}),
    (5, 0, 19, 62, 66, 165, {"keyout$0": 1, "keyout$50": 0}),
    (6, 0, 18, 81, 56, 129, {"keyout$0": 0, "keyout$50": 0}),
]
SARLOCK_RUNS = [
    (1, 15, 27, 217, 129, 350, _sar_key("0010")),
    (2, 15, 28, 211, 132, 361, _sar_key("0001")),
    (3, 15, 34, 241, 133, 361, _sar_key("0011")),
    (4, 15, 29, 182, 132, 357, _sar_key("0101")),
    (5, 15, 31, 200, 131, 355, _sar_key("1101")),
    (6, 15, 27, 210, 127, 341, _sar_key("0110")),
]


def _attack(netlist, oracle):
    solver = Solver()
    result = sat_attack(netlist, oracle, solver=solver)
    return (result.iterations, result.solver_conflicts,
            result.solver_decisions, solver.num_vars, solver.num_clauses,
            result.key)


@pytest.mark.parametrize("seed,iterations,conflicts,decisions,num_vars,"
                         "clauses,key", GK_RUNS,
                         ids=[f"seed{run[0]}" for run in GK_RUNS])
def test_gk_attack_search_is_pinned(seed, iterations, conflicts, decisions,
                                    num_vars, clauses, key):
    netlist, oracle = _gk_case(seed)
    assert netlist.flip_flops()  # the encoder walks the sequential netlist
    assert _attack(netlist, oracle) == (
        iterations, conflicts, decisions, num_vars, clauses, key)


@pytest.mark.parametrize("seed,iterations,conflicts,decisions,num_vars,"
                         "clauses,key", SARLOCK_RUNS,
                         ids=[f"seed{run[0]}" for run in SARLOCK_RUNS])
def test_sarlock_attack_search_is_pinned(seed, iterations, conflicts,
                                         decisions, num_vars, clauses, key):
    netlist, oracle = _sarlock_case(seed)
    assert _attack(netlist, oracle) == (
        iterations, conflicts, decisions, num_vars, clauses, key)
