"""Extension: the sequential (unrolling) SAT attack, no scan access.

The paper defends against the scan-enabled combinational SAT attack; a
natural follow-up threat is time-frame unrolling, which needs no scan
chain at all.  The bench shows the attack is real — it cracks
sequentially XOR-locked designs from reset — and that the GK's defense
carries over: the key bits are combinationally non-influential in every
frame, so the unrolled miter is UNSAT immediately too.

Runs on a mid-size generated design (the unrolled miter grows with
frames x gates x DIPs, which a pure-Python CDCL pays for on the full
benchmarks), plus one hard miter pinned on the s1238 stand-in: the
3-frame attack of ``examples/attack_lab.py`` on 4 XOR key bits, whose
UNSAT proof after 2 distinguishing sequences runs past the solver's
first activity rescales (about 20 s, 26k conflicts and 36 MB; about
90 s and 0.5 GB while the order heap kept every stale entry).
"""

import random
import resource
import time
from importlib import import_module

import pytest

from repro.attacks import sequential_sat_attack
from repro.bench import (
    GeneratorSpec, iwls_benchmark, random_sequential_circuit,
)
from repro.core import GkLock, expose_gk_keys
from repro.locking import XorLock
from repro.sat import Solver
from repro.sta import ClockSpec, analyze


@pytest.fixture(scope="module")
def mid_design():
    spec = GeneratorSpec(
        name="mid", num_inputs=6, num_outputs=4, num_flip_flops=6,
        num_combinational=50, seed=12,
    )
    circuit = random_sequential_circuit(spec)
    probe = analyze(circuit, ClockSpec(period=1000.0))
    critical = max(
        e.arrival_max + circuit.gates[e.ff].cell.setup
        for e in probe.endpoints.values()
    )
    # a relaxed clock so a 1ns glitch fits (the generated design is tiny)
    return circuit, ClockSpec(period=round(critical + 2.0, 2))


def test_unroll_attack_on_xor(benchmark, mid_design):
    circuit, _clock = mid_design
    locked = XorLock().lock(circuit, 4, random.Random(31))
    result = benchmark.pedantic(
        sequential_sat_attack,
        args=(locked.circuit, circuit),
        kwargs={"frames": 3},
        rounds=1,
        iterations=1,
    )
    print("\n" + "=" * 72)
    print("Sequential SAT attack (3-frame unroll, no scan) vs XOR locking")
    print(f"  completed={result.completed} after {result.iterations} "
          f"distinguishing sequences; exact key recovered = "
          f"{result.key == locked.key}")
    assert result.completed
    assert result.key == locked.key


def test_unroll_attack_on_gk(benchmark, mid_design):
    circuit, clock = mid_design
    locked = GkLock(clock).lock(circuit, 4, random.Random(32))
    exposed = expose_gk_keys(locked)
    result = benchmark.pedantic(
        sequential_sat_attack,
        args=(exposed, circuit),
        kwargs={"frames": 3},
        rounds=1,
        iterations=1,
    )
    print("\n" + "=" * 72)
    print("Sequential SAT attack (3-frame unroll, no scan) vs GK locking")
    print(f"  UNSAT at first iteration = {result.unsat_at_first_iteration}")
    assert result.unsat_at_first_iteration


class PeakHeapSolver(Solver):
    """A solver that notes its order heap's size after every backtrack."""

    made = []

    def __init__(self):
        super().__init__()
        self.peak_heap = len(self._order)
        PeakHeapSolver.made.append(self)

    def _cancel_until(self, level):
        super()._cancel_until(level)
        self.peak_heap = max(self.peak_heap, len(self._order))


def test_unroll_attack_on_xor_s1238_hard_miter(monkeypatch):
    """attack_lab's last stage: s1238 with 4 XOR key bits, 3 frames.
    Two distinguishing sequences, then a hard UNSAT proof; the exact
    key comes back."""
    # dip_loop builds its solver through this module's name
    monkeypatch.setattr(import_module("repro.attacks.sat_attack"), "Solver",
                        PeakHeapSolver)
    PeakHeapSolver.made.clear()
    circuit = iwls_benchmark("s1238").circuit
    locked = XorLock().lock(circuit, 4, random.Random(31))
    start = time.perf_counter()
    result = sequential_sat_attack(locked.circuit, circuit, frames=3)
    seconds = time.perf_counter() - start
    (solver,) = PeakHeapSolver.made
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    print("\n" + "=" * 72)
    print("Sequential SAT attack (3-frame unroll) vs XOR locking on s1238")
    print(f"  {seconds:.1f} s, {result.iterations} distinguishing sequences, "
          f"{result.solver_conflicts} conflicts in the DIP loop "
          f"({solver.num_conflicts} with the key extraction), "
          f"{solver.num_rescales} activity rescales")
    print(f"  peak order heap {solver.peak_heap} entries for "
          f"{solver.num_vars} variables; process peak RSS "
          f"{peak_rss_mb:.0f} MB")
    assert result.completed and result.iterations == 2
    assert result.key == locked.key
