"""The cone re-time is exact: ``TimingAnalysis.retimed`` equals a fresh
:func:`~repro.sta.timing.analyze` after every edit.

(a) Small :func:`~repro.bench.generator.random_sequential_circuit`
    designs take random sequences of XOR key-gate splices, each kept or
    rolled back exactly as :class:`~repro.locking.hybrid.HybridGkXor`
    does.  A kept splice keeps ``timing.retimed([gate])``; a rolled-back
    one keeps the analysis it started from.  After every step that
    analysis must equal a fresh full one in ``arrival_max``,
    ``arrival_min``, ``critical_pred`` and ``endpoints``, under clocks
    with and without skew and with and without wire delays and an input
    arrival offset.
(b) The hybrid itself places the same XOR gates, key and netlist when
    every re-time is replaced by a fresh ``analyze``.  The Table II
    goldens pin only overhead, which does not see where the XORs land.

Example volume comes from the ``tests/hypothesis_profiles.py`` profiles
(``HYPOTHESIS_PROFILE=ci`` runs 200+ examples per property).
"""

import io
import random

import pytest
from hypothesis import given, strategies as st

from repro.bench import iwls_benchmark
from repro.bench.generator import GeneratorSpec, random_sequential_circuit
from repro.locking import HybridGkXor
from repro.locking.xor_lock import (
    insert_xor_keygate,
    lockable_nets,
    remove_xor_keygate,
)
from repro.netlist.verilog_io import write_verilog
from repro.sta import ClockSpec, analyze, synthetic_clock_tree_skew
from repro.sta.timing import TimingAnalysis

from hypothesis_profiles import active_profile

MAX_STEPS = 8


def _key_name(index: int) -> str:
    return f"keyin_t{index}"


@st.composite
def timed_designs(draw):
    """A small sequential design with the clock, wire map and input
    arrival it is timed under."""
    circuit = random_sequential_circuit(GeneratorSpec(
        name="inc",
        num_inputs=draw(st.integers(1, 5)),
        num_outputs=draw(st.integers(1, 3)),
        num_flip_flops=draw(st.integers(1, 5)),
        num_combinational=draw(st.integers(2, 40)),
        seed=draw(st.integers(0, 2 ** 16)),
    ))
    skew = {}
    if draw(st.booleans()):
        skew = synthetic_clock_tree_skew(
            (ff.name for ff in circuit.flip_flops()),
            max_skew=draw(st.floats(0.05, 2.0)),
            seed=str(draw(st.integers(0, 99))),
        )
    clock = ClockSpec(period=draw(st.floats(1.0, 20.0)), skew=skew)
    wires = {}
    if draw(st.booleans()):
        # Annotate some original nets and the key inputs the edits may
        # add; the splices' own new nets stay unannotated, as after a
        # placement that predates the edit.
        rng = random.Random(draw(st.integers(0, 2 ** 16)))
        nets = sorted(circuit.nets())
        nets += [_key_name(i) for i in range(MAX_STEPS)]
        wires = {net: rng.uniform(0.0, 0.4) for net in nets
                 if rng.random() < 0.6}
    input_arrival = draw(st.sampled_from([0.0, 0.35, 1.7]))
    return circuit, clock, wires, input_arrival


def assert_same_timing(kept: TimingAnalysis, fresh: TimingAnalysis) -> None:
    assert kept.arrival_max == fresh.arrival_max
    assert kept.arrival_min == fresh.arrival_min
    assert kept.critical_pred == fresh.critical_pred
    assert kept.endpoints == fresh.endpoints


@active_profile()
@given(timed_designs(), st.data())
def test_retimed_equals_fresh_analysis_after_every_splice(design, data):
    circuit, clock, wires, input_arrival = design
    timing = analyze(circuit, clock, wire_delay=wires,
                     input_arrival=input_arrival)
    kept = 0
    for _step in range(data.draw(st.integers(1, MAX_STEPS))):
        net = data.draw(st.sampled_from(lockable_nets(circuit)))
        key_net = circuit.add_key_input(_key_name(kept))
        gate_name = insert_xor_keygate(circuit, net, key_net,
                                       data.draw(st.integers(0, 1)))
        trial = timing.retimed([gate_name])
        if data.draw(st.booleans()):
            timing = trial
            kept += 1
        else:  # the hybrid's rollback; the old analysis stays valid
            remove_xor_keygate(circuit, gate_name)
        fresh = analyze(circuit, clock, wire_delay=wires,
                        input_arrival=input_arrival)
        assert_same_timing(timing, fresh)
    assert timing.wire_delay is wires
    assert timing.input_arrival == input_arrival


def test_retimed_leaves_the_receiver_unchanged():
    circuit = random_sequential_circuit(GeneratorSpec(
        name="inc", num_inputs=3, num_outputs=2, num_flip_flops=3,
        num_combinational=30, seed=5,
    ))
    clock = ClockSpec(period=10.0)
    timing = analyze(circuit, clock, input_arrival=0.5)
    before = (dict(timing.arrival_max), dict(timing.arrival_min),
              dict(timing.critical_pred), dict(timing.endpoints))
    key_net = circuit.add_key_input("keyin_t0")
    gate_name = insert_xor_keygate(circuit, lockable_nets(circuit)[0],
                                   key_net, 1)
    trial = timing.retimed([gate_name])
    assert (timing.arrival_max, timing.arrival_min, timing.critical_pred,
            timing.endpoints) == before
    assert trial.arrival_max[key_net] == 0.5
    assert trial.critical_pred[key_net] is None
    assert key_net not in timing.arrival_max


def _fresh_retime(self, gates):
    return analyze(self.circuit, self.clock, wire_delay=self.wire_delay,
                   input_arrival=self.input_arrival)


def _hybrid_lock(bench, instance_seed, key_bits):
    instance = iwls_benchmark(bench, seed=instance_seed)
    locked = HybridGkXor(instance.clock).lock(
        instance.circuit, key_bits, random.Random(instance_seed + 99))
    text = io.StringIO()
    write_verilog(locked.circuit, text)
    return locked.metadata["xor_gates"], locked.key, text.getvalue()


# Instance seeds at which some XOR trials break a GK window and are
# rolled back, so both branches of the loop run.
@pytest.mark.parametrize("bench,instance_seed,key_bits", [
    ("s1238", 2, 16), ("s1238", 4, 16), ("s1238", 5, 16),
    ("s5378", 2, 32), ("s5378", 7, 32), ("s5378", 8, 32),
])
def test_hybrid_places_the_same_xors_as_with_full_sta(
        bench, instance_seed, key_bits, monkeypatch):
    incremental = _hybrid_lock(bench, instance_seed, key_bits)
    monkeypatch.setattr(TimingAnalysis, "retimed", _fresh_retime)
    full = _hybrid_lock(bench, instance_seed, key_bits)
    assert incremental == full
