"""Tests for the GkLock design flow (paper Sec. IV-B, Sec. VI).

These are the central claims of the reproduction:

* the locked chip with the correct key is timing-equivalent to the
  original (the glitch carries the data);
* the zero-delay RTL view of the *same* netlist is NOT equivalent
  (glitch blindness — the property the SAT attack falls into);
* every wrong key mode corrupts;
* the flow's STA triage classifies the deliberate delays as false
  violations and reports no true ones.
"""

import random

import pytest

from repro.core import GkLock, KEYGEN_MODES, expose_gk_keys
from repro.locking import LockingError
from repro.sim import CycleSimulator
from repro.sim.harness import compare_with_original, random_input_sequence


@pytest.fixture(scope="module")
def locked_s1238():
    from repro.bench import iwls_benchmark

    inst = iwls_benchmark("s1238")
    locked = GkLock(inst.clock).lock(inst.circuit, 8, random.Random(42))
    return inst, locked


class TestLockStructure:
    def test_key_accounting(self, locked_s1238):
        _inst, locked = locked_s1238
        assert locked.key_size == 8  # 4 GKs x 2 key bits
        assert len(locked.metadata["gks"]) == 4
        assert set(locked.key) == set(locked.circuit.key_inputs)

    def test_correct_keys_are_transitional(self, locked_s1238):
        """Sec. VI: all GKs transmit on the glitch level, so every
        correct 2-bit key selects a transition mode."""
        _inst, locked = locked_s1238
        for record in locked.metadata["gks"]:
            mode = KEYGEN_MODES[record.correct_key]
            assert mode in ("shift_a", "shift_b")
            assert mode == record.config.correct_mode

    def test_odd_width_rejected(self, locked_s1238, rng):
        inst, _locked = locked_s1238
        with pytest.raises(LockingError, match="even"):
            GkLock(inst.clock).lock(inst.circuit, 7, rng)

    def test_too_many_gks_rejected(self, locked_s1238, rng):
        inst, _locked = locked_s1238
        with pytest.raises(LockingError, match="feasible"):
            GkLock(inst.clock).lock(inst.circuit, 2 * 18 + 2, rng)

    def test_original_untouched(self, locked_s1238):
        inst, locked = locked_s1238
        assert inst.circuit.stats().num_key_inputs == 0
        assert locked.original is inst.circuit

    def test_protected_gates_exist(self, locked_s1238):
        _inst, locked = locked_s1238
        for name in locked.metadata["protected_gates"]:
            assert name in locked.circuit.gates

    def test_triage_reports_only_false_violations(self, locked_s1238):
        _inst, locked = locked_s1238
        assert locked.metadata["true_violations"] == []
        # the deliberate KEYGEN->GK->FF delays are flagged as expected
        assert len(locked.metadata["false_violations"]) >= 1
        gk_ffs = {r.gk.ff for r in locked.metadata["gks"]}
        assert set(locked.metadata["false_violations"]) <= gk_ffs


class TestTimingBehaviour:
    def test_correct_key_timing_equivalent(self, locked_s1238):
        inst, locked = locked_s1238
        seq = random_input_sequence(inst.circuit, 12, random.Random(7))
        result = compare_with_original(
            inst.circuit, locked.circuit, inst.clock.period, seq, locked.key
        )
        assert result.equivalent
        assert result.violations == 0

    def test_rtl_view_is_glitch_blind(self, locked_s1238):
        """CycleSimulator of the locked netlist under the CORRECT key
        differs from the original: the glitch does not exist at RTL."""
        inst, locked = locked_s1238
        rng = random.Random(8)
        seq = random_input_sequence(inst.circuit, 6, rng)
        ref = CycleSimulator(inst.circuit)
        rtl = CycleSimulator(locked.circuit)
        mismatch = False
        for step in seq:
            ref.step(step)
            rtl.step({**step, **locked.key})
            gk_ffs = {r.gk.ff for r in locked.metadata["gks"]}
            if any(ref.state[ff] != rtl.state.get(ff) for ff in gk_ffs
                   if ref.state[ff] is not None):
                mismatch = True
        assert mismatch

    @pytest.mark.parametrize("wrong_bits", [(0, 0), (1, 1)])
    def test_constant_modes_corrupt(self, locked_s1238, wrong_bits):
        inst, locked = locked_s1238
        record = locked.metadata["gks"][0]
        key = dict(locked.key)
        key[record.keygen.k1_net], key[record.keygen.k2_net] = wrong_bits
        seq = random_input_sequence(inst.circuit, 10, random.Random(9))
        result = compare_with_original(
            inst.circuit, locked.circuit, inst.clock.period, seq, key
        )
        assert not result.equivalent

    def test_decoy_transition_corrupts(self, locked_s1238):
        inst, locked = locked_s1238
        record = locked.metadata["gks"][0]
        decoy_bits = [
            bits for bits, mode in KEYGEN_MODES.items()
            if mode == record.config.decoy_mode
        ][0]
        key = dict(locked.key)
        key[record.keygen.k1_net], key[record.keygen.k2_net] = decoy_bits
        seq = random_input_sequence(inst.circuit, 10, random.Random(10))
        result = compare_with_original(
            inst.circuit, locked.circuit, inst.clock.period, seq, key
        )
        assert not result.equivalent

    def test_random_wrong_key_corrupts(self, locked_s1238):
        inst, locked = locked_s1238
        wrong = locked.random_wrong_key(random.Random(11))
        seq = random_input_sequence(inst.circuit, 10, random.Random(12))
        result = compare_with_original(
            inst.circuit, locked.circuit, inst.clock.period, seq, wrong
        )
        assert result.mismatch_count > 0


class TestExposeGkKeys:
    def test_keygens_removed(self, locked_s1238):
        _inst, locked = locked_s1238
        exposed = expose_gk_keys(locked)
        exposed.validate()
        for record in locked.metadata["gks"]:
            assert record.keygen.toggle_ff not in exposed.gates
            assert record.keygen.mux_gate not in exposed.gates
            # the GK key wire became a primary key input
            assert record.keygen.key_out in exposed.key_inputs

    def test_one_key_bit_per_gk(self, locked_s1238):
        _inst, locked = locked_s1238
        exposed = expose_gk_keys(locked)
        assert len(exposed.key_inputs) == len(locked.metadata["gks"])

    def test_ff_count_back_to_original(self, locked_s1238):
        inst, locked = locked_s1238
        exposed = expose_gk_keys(locked)
        assert len(exposed.flip_flops()) == len(inst.circuit.flip_flops())

    def test_non_gk_locked_rejected(self, toy_combinational, rng):
        from repro.locking import XorLock

        locked = XorLock().lock(toy_combinational, 2, rng)
        with pytest.raises(ValueError, match="GK-locked"):
            expose_gk_keys(locked)


class TestDeterminismAndSeeds:
    def test_same_seed_same_lock(self, locked_s1238):
        inst, locked = locked_s1238
        again = GkLock(inst.clock).lock(inst.circuit, 8, random.Random(42))
        assert again.key == locked.key
        assert sorted(again.circuit.gates) == sorted(locked.circuit.gates)

    def test_different_seed_different_sites(self, locked_s1238):
        inst, locked = locked_s1238
        other = GkLock(inst.clock).lock(inst.circuit, 8, random.Random(77))
        ffs_a = {r.gk.ff for r in locked.metadata["gks"]}
        ffs_b = {r.gk.ff for r in other.metadata["gks"]}
        assert ffs_a != ffs_b or other.key != locked.key


class TestBrokenWindows:
    """Step 5 re-checks every GK's Eq. (5) window on the analysis it
    returns.  The routed flow re-places the whole design after
    insertion, which can push a GK's data arrival past its window while
    no endpoint shows a true violation; these three s5378 locks each
    have one such GK."""

    @pytest.mark.parametrize("instance_seed,key_bits,lock_seed,ff", [
        (2, 16, 18, "ff79"), (11, 16, 27, "ff111"), (13, 32, 45, "ff22"),
    ])
    def test_routed_lock_reports_its_broken_window(
            self, instance_seed, key_bits, lock_seed, ff):
        from repro import obs
        from repro.bench import iwls_benchmark

        inst = iwls_benchmark("s5378", seed=instance_seed)
        with obs.capture() as sink:
            locked, post = GkLock(inst.clock, run_pnr=True).lock_timed(
                inst.circuit, key_bits, random.Random(lock_seed))
        records = locked.metadata["gks"]
        assert locked.metadata["broken_windows"] == [ff]
        assert locked.metadata["true_violations"] == []
        assert [r.gk.ff for r in records
                if not r.window_holds(locked.circuit, inst.clock,
                                      post.arrival_max)] == [ff]
        assert sink.metric_value("flow.gk.broken_windows") == 1
        (span,) = sink.spans_named("flow.sta.post")
        assert span.attrs["broken_windows"] == 1
        # without P&R the same locks keep every window
        plain = GkLock(inst.clock).lock(inst.circuit, key_bits,
                                        random.Random(lock_seed))
        assert plain.metadata["broken_windows"] == []

    def test_unrouted_lock_reports_none(self, locked_s1238):
        _inst, locked = locked_s1238
        assert locked.metadata["broken_windows"] == []
