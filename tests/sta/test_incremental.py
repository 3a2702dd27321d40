"""The cone re-times are exact: ``TimingAnalysis.retimed`` equals a
fresh :func:`~repro.sta.timing.analyze` after every edit, and
``RegionTiming`` equals it inside its region.

(a) Small :func:`~repro.bench.generator.random_sequential_circuit`
    designs take random sequences of edits, each kept or rolled back:
    XOR key-gate splices (one or two per re-time) and whole GKs with
    their KEYGENs, whose toggle flip-flops are new launch points, rolled
    back as :class:`~repro.core.flow.GkLock` does.  A kept edit keeps
    ``timing.retimed(gates)``; a rolled-back one keeps the analysis it
    started from.  After every step that analysis must equal a fresh
    full one in ``arrival_max``, ``arrival_min``, ``critical_pred`` and
    ``endpoints`` (in endpoint order too), under clocks with and without
    skew and with and without wire delays and an input arrival offset.
    Half the draws edit a clone and re-time the original's
    :meth:`~repro.sta.timing.TimingAnalysis.detached` analysis onto it,
    as the GK flow's step 5 does.
(b) ``RegionTiming`` trials over XOR splices, kept or rolled back as
    :class:`~repro.locking.hybrid.HybridGkXor` does, give a fresh
    analysis's max arrival at every gate of the region.
(c) A no-P&R GK lock's post-insertion analysis, re-timed from the plan,
    equals a fresh ``analyze`` of the locked netlist.
(d) The hybrid itself places the same XOR gates, key and netlist when
    every trial and the GK flow's step 5 run a fresh full ``analyze``.
    The Table II goldens pin only overhead, which does not see where the
    XORs land.

Example volume comes from the ``tests/hypothesis_profiles.py`` profiles
(``HYPOTHESIS_PROFILE=ci`` runs 200+ examples per property).
"""

import io
import random

import pytest
from hypothesis import given, strategies as st

from repro import obs
from repro.bench import iwls_benchmark
from repro.bench.generator import GeneratorSpec, random_sequential_circuit
from repro.core import GkLock
from repro.core.gk import insert_gk
from repro.core.keygen import insert_keygen
from repro.locking import HybridGkXor
from repro.locking import hybrid
from repro.locking.xor_lock import (
    insert_xor_keygate,
    lockable_nets,
    remove_xor_keygate,
)
from repro.netlist.verilog_io import write_verilog
from repro.sta import ClockSpec, analyze, synthetic_clock_tree_skew
from repro.sta.timing import RegionTiming, TimingAnalysis

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
    assert list(kept.endpoints) == list(fresh.endpoints)


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


def _insert_gk(circuit, data, index):
    """One GK and its KEYGEN at a drawn flip-flop, as the GK flow splices
    them.  Returns what :meth:`GkLock._rollback` takes and the edited
    gates: all of them, or only those the edit reaches through no other
    (the toggle flip-flop, whose new Q reaches the rest, the TIE cells,
    the pre-inverter)."""
    ff = data.draw(st.sampled_from(sorted(circuit.flip_flop_names())))
    k1 = circuit.add_key_input(f"keyin_g{2 * index}")
    k2 = circuit.add_key_input(f"keyin_g{2 * index + 1}")
    key_out = circuit.new_net("keyout")
    delay = st.floats(0.0, 2.0)
    gk = insert_gk(circuit, ff, key_out,
                   d_path_a=data.draw(delay), d_path_b=data.draw(delay),
                   variant=data.draw(st.sampled_from(["3a", "3b"])),
                   pre_invert=data.draw(st.booleans()))
    keygen = insert_keygen(circuit, k1, k2, data.draw(delay),
                           data.draw(delay), key_out=key_out)
    if data.draw(st.booleans()):
        edited = gk.gate_names + keygen.gate_names + (gk.ff,)
    else:
        edited = (keygen.toggle_ff, keygen.tie0_gate, keygen.tie1_gate,
                  *filter(None, [gk.pre_inverter]))
    return (gk, keygen, k1, k2), edited


@active_profile()
@given(timed_designs(), st.data())
def test_retimed_equals_fresh_analysis_after_gk_insertions(design, data):
    circuit, clock, wires, input_arrival = design
    timing = analyze(circuit, clock, wire_delay=wires,
                     input_arrival=input_arrival)
    if data.draw(st.booleans()):  # the GK flow's step 5: plan, clone, edit
        timing = timing.detached()
        circuit = circuit.clone()
    gks = xors = 0
    for _step in range(data.draw(st.integers(1, 4))):
        if data.draw(st.booleans()):  # one or two GKs, gates in any order
            inserted, gates = [], []
            for _gk in range(data.draw(st.integers(1, 2))):
                undo, edited = _insert_gk(circuit, data, gks + len(inserted))
                inserted.append(undo)
                gates += edited
            trial = timing.retimed(data.draw(st.permutations(gates)),
                                   circuit=circuit)
            if data.draw(st.booleans()):
                timing = trial
                gks += len(inserted)
            else:
                for undo in reversed(inserted):
                    GkLock._rollback(circuit, *undo)
        else:  # a multi-gate edit: two splices, one re-time
            gates = []
            for _splice in range(data.draw(st.integers(1, 2))):
                net = data.draw(st.sampled_from(lockable_nets(circuit)))
                key_net = circuit.add_key_input(_key_name(xors + len(gates)))
                gates.append(insert_xor_keygate(
                    circuit, net, key_net, data.draw(st.integers(0, 1))))
            trial = timing.retimed(gates, circuit=circuit)
            if data.draw(st.booleans()):
                timing = trial
                xors += len(gates)
            else:
                for gate_name in reversed(gates):
                    remove_xor_keygate(circuit, gate_name)
        if timing.circuit is None:  # nothing kept yet, still detached
            continue
        assert_same_timing(timing, analyze(circuit, clock, wire_delay=wires,
                                           input_arrival=input_arrival))


@active_profile()
@given(timed_designs(), st.data())
def test_region_trials_equal_fresh_analysis_inside_the_region(design, data):
    """The region is the fan-in of a few drawn sink gates (and the sinks
    themselves), as the hybrid's is the GK data inputs' fan-in and the
    arms reading them."""
    circuit, clock, wires, input_arrival = design
    combinational = [gate.name for gate in circuit.topological_order()]
    if not combinational:
        return
    sinks = data.draw(st.lists(st.sampled_from(combinational), min_size=1,
                               max_size=3, unique=True))
    ffs = circuit.flip_flop_names()
    region = set(sinks)
    for sink in sinks:
        for net in circuit.gates[sink].input_nets():
            region |= circuit.fanin_cone(net) - ffs
    arrivals = RegionTiming(
        analyze(circuit, clock, wire_delay=wires, input_arrival=input_arrival),
        region)
    kept = 0
    for _step in range(data.draw(st.integers(1, MAX_STEPS))):
        net = data.draw(st.sampled_from(lockable_nets(circuit)))
        key_net = circuit.add_key_input(_key_name(kept))
        gate_name = insert_xor_keygate(circuit, net, key_net,
                                       data.draw(st.integers(0, 1)))
        trial = arrivals.trial(gate_name)
        fresh = analyze(circuit, clock, wire_delay=wires,
                        input_arrival=input_arrival)
        timed = {gate_name} if circuit.gates[gate_name].output in trial else set()
        for name in arrivals.region | timed:
            out = circuit.gates[name].output
            assert trial[out] == fresh.arrival_max[out]
        if data.draw(st.booleans()):
            arrivals.keep()
            kept += 1
        else:
            remove_xor_keygate(circuit, gate_name)
    assert arrivals.region <= set(circuit.gates)


@pytest.mark.parametrize("bench,instance_seed,key_bits", [
    ("s1238", 2, 16), ("s1238", 5, 8), ("s5378", 2, 16), ("s5378", 8, 32),
])
def test_gk_lock_post_analysis_equals_a_fresh_one(
        bench, instance_seed, key_bits):
    instance = iwls_benchmark(bench, seed=instance_seed)
    with obs.capture() as sink:
        locked, post = GkLock(instance.clock).lock_timed(
            instance.circuit, key_bits, random.Random(instance_seed))
    # one analysis for the plan, one cone re-time for step 5
    assert len(sink.spans_named("sta.analyze")) == 1
    assert len(sink.spans_named("sta.retime")) == 1
    assert post.circuit is locked.circuit
    assert_same_timing(post, analyze(locked.circuit, instance.clock))
    assert locked.metadata["broken_windows"] == []


def _fresh_retime(self, gates, circuit=None):
    return analyze(circuit if circuit is not None else self.circuit,
                   self.clock, wire_delay=self.wire_delay,
                   input_arrival=self.input_arrival)


class _FullStaTrials:
    """The hybrid's trials, each timing the whole edited netlist."""

    trials = 0

    def __init__(self, analysis, region):
        self.analysis = analysis

    def trial(self, gate_name):
        type(self).trials += 1
        return _fresh_retime(self.analysis, [gate_name]).arrival_max

    def keep(self):
        pass


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
    monkeypatch.setattr(hybrid, "RegionTiming", _FullStaTrials)
    monkeypatch.setattr(_FullStaTrials, "trials", 0)
    full = _hybrid_lock(bench, instance_seed, key_bits)
    assert incremental == full
    # every trial of the reference ran a full analysis; some were rejected
    assert _FullStaTrials.trials > len(full[0])
