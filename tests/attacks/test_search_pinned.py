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
variable numbering changes) before writing the new numbers here.  The
variable and clause columns are those of encoding version 6.  Version
4's copies encode only the keys' cone of influence; the move from
version 3 (whole copies) rewrote those two columns alone, and every
iteration, conflict, decision and key held, as the cone argument
predicts (a variable outside the cone is never decided and never in a
conflict).  Version 5 renumbered only ``.bench``-loaded netlists, none
of which is pinned here.  Version 6's node table rewrites
``XOR(a, XOR(a, c))`` to ``c`` and ``MUX(s, NOT b, b)`` to
``XNOR(s, b)``, which folds every GK to ``NOT x`` or ``x`` in both
copies: the GK rows went to 0 conflicts and 0 decisions (the first
query is refuted by the miter's own unit clause, every output having
merged), with fewer variables and clauses, and any key is consistent,
so the solver's default polarity returns the all-zero one.  Of the
SARLock rows only seed 2's variables and clauses moved (124 -> 123,
335 -> 331: the XOR rewrite fires on it); its search held.

The 2-frame unrolled attack (:func:`sequential_sat_attack`, no scan
access) runs the same loop on the same miter over its unrolled copy; it
is pinned on the same GK locks and on 4-bit XOR and SARLock locks of
the same sequential designs (iterations, conflicts, decisions and the
key, which must also be 2-frame equivalent to the design).  It keeps no
warm-start pool, so these numbers move with its encoding alone.  Under
version 6 the GK rows went to 0 conflicts, 0 decisions and the all-zero
key, for the reason above; the XOR and SARLock rows held.
"""

import random

import pytest

from repro.attacks import CombinationalOracle
from repro.attacks.sat_attack import sat_attack
from repro.attacks.unroll import sequential_sat_attack
from repro.bench.generator import GeneratorSpec, random_sequential_circuit
from repro.core import GkLock, expose_gk_keys
from repro.locking import SarLock, XorLock
from repro.netlist.equivalence import check_sequential_equivalence
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


def _gk_lock(seed):
    design = _design(seed, flip_flops=8, gates=40, inputs=6)
    locked = GkLock(_clock_with_glitch_room(design)).lock(
        design, 4, random.Random(seed))
    return expose_gk_keys(locked), design


def _gk_case(seed):
    netlist, design = _gk_lock(seed)
    return netlist, CombinationalOracle(design)


def _sarlock_case(seed):
    design = _design(seed, flip_flops=0, gates=20, inputs=8)
    locked = SarLock().lock(design, 4, random.Random(seed))
    return locked.circuit, CombinationalOracle(design)


def _sar_key(bits):
    return {f"keyin_s{i}": int(bit) for i, bit in enumerate(bits)}


def _xor_key(bits):
    return {f"keyin_x{i}": int(bit) for i, bit in enumerate(bits)}


# (seed, iterations, conflicts, decisions, solver vars, solver clauses, key)
GK_RUNS = [
    (1, 0, 0, 0, 36, 56, {"keyout$0": 0, "keyout$46": 0}),
    (2, 0, 0, 0, 33, 49, {"keyout$0": 0, "keyout$46": 0}),
    (3, 0, 0, 0, 46, 89, {"keyout$0": 0, "keyout$50": 0}),
    (4, 0, 0, 0, 32, 44, {"keyout$0": 0, "keyout$52": 0}),
    (5, 0, 0, 0, 48, 99, {"keyout$0": 0, "keyout$50": 0}),
    (6, 0, 0, 0, 35, 53, {"keyout$0": 0, "keyout$50": 0}),
]
SARLOCK_RUNS = [
    (1, 15, 27, 217, 119, 317, _sar_key("0010")),
    (2, 15, 28, 211, 123, 331, _sar_key("0001")),
    (3, 15, 34, 241, 124, 332, _sar_key("0011")),
    (4, 15, 29, 182, 115, 304, _sar_key("0101")),
    (5, 15, 31, 200, 116, 307, _sar_key("1101")),
    (6, 15, 27, 210, 119, 316, _sar_key("0110")),
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


def _gk_key(first, second, bits):
    return {f"keyout${first}": int(bits[0]), f"keyout${second}": int(bits[1])}


# (lock, seed, iterations, conflicts, decisions, key); frames = 2
SEQUENTIAL_RUNS = [
    ("gk", 1, 0, 0, 0, _gk_key(0, 46, "00")),
    ("gk", 2, 0, 0, 0, _gk_key(0, 46, "00")),
    ("gk", 3, 0, 0, 0, _gk_key(0, 50, "00")),
    ("gk", 4, 0, 0, 0, _gk_key(0, 52, "00")),
    ("gk", 5, 0, 0, 0, _gk_key(0, 50, "00")),
    ("gk", 6, 0, 0, 0, _gk_key(0, 50, "00")),
    ("xor", 1, 5, 30, 168, _xor_key("0110")),
    ("xor", 2, 2, 18, 71, _xor_key("0100")),
    ("xor", 3, 3, 13, 67, _xor_key("1100")),
    ("sarlock", 1, 14, 28, 260, _sar_key("0010")),
    ("sarlock", 2, 15, 32, 303, _sar_key("0001")),
    ("sarlock", 3, 14, 33, 285, _sar_key("0011")),
]


@pytest.mark.parametrize("lock,seed,iterations,conflicts,decisions,key",
                         SEQUENTIAL_RUNS,
                         ids=[f"{run[0]}-seed{run[1]}"
                              for run in SEQUENTIAL_RUNS])
def test_sequential_attack_search_is_pinned(lock, seed, iterations,
                                            conflicts, decisions, key):
    if lock == "gk":
        netlist, design = _gk_lock(seed)
    else:
        design = _design(seed, flip_flops=8, gates=40, inputs=6)
        scheme = XorLock() if lock == "xor" else SarLock()
        netlist = scheme.lock(design, 4, random.Random(seed)).circuit
    result = sequential_sat_attack(netlist, design, frames=2)
    assert (result.iterations, result.solver_conflicts,
            result.solver_decisions, result.key) == (
        iterations, conflicts, decisions, key)
    assert result.completed
    assert result.unsat_at_first_iteration == (lock == "gk")
    if lock != "gk":
        assert check_sequential_equivalence(design, netlist, 2, key_b=key)
