"""Tests for the hybrid GK + XOR scheme (Table II last column)."""

import random

import pytest

from repro.locking import HybridGkXor, LockingError
from repro.netlist import overhead
from repro.sim.harness import compare_with_original, random_input_sequence


@pytest.fixture(scope="module")
def hybrid_s1238():
    from repro.bench import iwls_benchmark

    inst = iwls_benchmark("s1238")
    locked = HybridGkXor(inst.clock).lock(inst.circuit, 8, random.Random(11))
    return inst, locked


class TestStructure:
    def test_key_split_half_and_half(self, hybrid_s1238):
        _inst, locked = hybrid_s1238
        assert locked.key_size == 8
        assert len(locked.metadata["gks"]) == 2  # 4 bits -> 2 GKs
        assert len(locked.metadata["xor_gates"]) == 4

    def test_xors_land_in_gk_cones(self, hybrid_s1238):
        """The paper: XOR gates go on 'the paths encrypted by GK'."""
        _inst, locked = hybrid_s1238
        circuit = locked.circuit
        cone_gates = set()
        for record in locked.metadata["gks"]:
            cone_gates |= circuit.fanin_cone(record.live_x_net(circuit))
        in_cone = sum(
            1
            for xor in locked.metadata["xor_gates"]
            if xor["gate"] in cone_gates
        )
        assert in_cone >= len(locked.metadata["gks"])  # every GK covered

    def test_width_must_be_multiple_of_four(self, hybrid_s1238, rng):
        inst, _locked = hybrid_s1238
        with pytest.raises(LockingError, match="multiple of 4"):
            HybridGkXor(inst.clock).lock(inst.circuit, 6, rng)

    def test_cheaper_than_gk_only_at_same_width(self, hybrid_s1238):
        """Table II: the hybrid has lower overhead than all-GK at equal
        key width (XOR gates are one cell; GKs are ~20)."""
        from repro.core import GkLock

        inst, locked = hybrid_s1238
        all_gk = GkLock(inst.clock).lock(inst.circuit, 8, random.Random(11))
        oh_hybrid = overhead(inst.circuit, locked.circuit)
        oh_gk = overhead(inst.circuit, all_gk.circuit)
        assert oh_hybrid.cells_added < oh_gk.cells_added
        assert oh_hybrid.area_added < oh_gk.area_added


class TestBehaviour:
    def test_correct_key_timing_equivalent(self, hybrid_s1238):
        inst, locked = hybrid_s1238
        seq = random_input_sequence(inst.circuit, 10, random.Random(2))
        result = compare_with_original(
            inst.circuit, locked.circuit, inst.clock.period, seq, locked.key
        )
        assert result.equivalent
        assert result.violations == 0

    def test_wrong_xor_bit_corrupts(self, hybrid_s1238):
        inst, locked = hybrid_s1238
        xor_key = locked.metadata["xor_gates"][0]["key"]
        wrong = dict(locked.key)
        wrong[xor_key] = 1 - wrong[xor_key]
        seq = random_input_sequence(inst.circuit, 10, random.Random(3))
        result = compare_with_original(
            inst.circuit, locked.circuit, inst.clock.period, seq, wrong
        )
        assert not result.equivalent

    def test_wrong_gk_bits_corrupt(self, hybrid_s1238):
        inst, locked = hybrid_s1238
        record = locked.metadata["gks"][0]
        wrong = dict(locked.key)
        wrong[record.keygen.k1_net] = 1 - wrong[record.keygen.k1_net]
        wrong[record.keygen.k2_net] = 1 - wrong[record.keygen.k2_net]
        seq = random_input_sequence(inst.circuit, 10, random.Random(4))
        result = compare_with_original(
            inst.circuit, locked.circuit, inst.clock.period, seq, wrong
        )
        assert not result.equivalent

    def test_gk_windows_survived_xor_insertion(self, hybrid_s1238):
        """Every XOR insertion was timing-verified: no true violations."""
        inst, locked = hybrid_s1238
        from repro.sta import analyze

        post = analyze(locked.circuit, inst.clock)
        protected = set(locked.metadata["protected_gates"])
        for endpoint in post.setup_violations():
            path = post.critical_path_to(endpoint.data_net)
            through = {
                post.circuit.driver_of(net).name
                for net in path
                if post.circuit.driver_of(net) is not None
            }
            assert through & protected  # only the deliberate delays


class TestPnr:
    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_xor_trials_see_the_routed_wires(self, seed, monkeypatch):
        """Under P&R the GKs are planned and verified with routed wire
        delays, so every GK trigger must still sit in its Eq. (5)
        window under the post-insertion routed analysis once the XORs
        are in.  Checked against zero-wire timing, s5378 broke a window
        at instance seeds 1, 2 and 3."""
        from repro.bench import iwls_benchmark
        from repro.core import flow
        from repro.sta import analyze

        routes = []

        def recorded(layout):
            routes.append(route(layout))
            return routes[-1]

        route = flow.route
        monkeypatch.setattr(flow, "route", recorded)
        inst = iwls_benchmark("s5378", seed=seed)
        scheme = HybridGkXor(inst.clock, run_pnr=True)
        locked = scheme.lock(inst.circuit, 32, random.Random(seed + 99))
        # the second route is GkLock's post-insertion P&R
        assert len(routes) == 2
        routed = analyze(locked.circuit, inst.clock,
                         wire_delay=routes[-1].wire_delay)
        assert all(record.window_holds(locked.circuit, inst.clock,
                                       routed.arrival_max)
                   for record in locked.metadata["gks"])
        assert len(locked.metadata["xor_gates"]) == 16

    @pytest.mark.parametrize("seed, broken", [(4, "ff83"), (14, "ff91")])
    def test_broken_gk_window_is_named_before_any_trial(self, seed, broken,
                                                        monkeypatch):
        """When the GK half's routed step 5 already reports a GK outside
        its window, the lock names that flip-flop instead of blaming
        every XOR trial for it, and runs no trial."""
        from repro.bench import iwls_benchmark
        from repro.sta.timing import RegionTiming

        trials = []
        monkeypatch.setattr(RegionTiming, "trial",
                            lambda self, gate: trials.append(gate))
        inst = iwls_benchmark("s5378", seed=seed)
        scheme = HybridGkXor(inst.clock, run_pnr=True)
        with pytest.raises(LockingError, match=broken) as raised:
            scheme.lock(inst.circuit, 32, random.Random(seed + 99))
        assert "XOR key-gates without" not in str(raised.value)
        assert trials == []
