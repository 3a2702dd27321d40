"""Tests for the TCF timed-SAT substrate and attack (Sec. V-B)."""

import itertools
import random

import pytest

from repro.attacks import (
    SimulatedTwoVectorOracle,
    find_delay_test,
    tcf_attack,
    two_vector_response,
)
from repro.core.gk import build_gk_demo
from repro.netlist import Builder
from repro.netlist.transform import timed_view
from repro.sat import CNF, CircuitEncoder, Solver


def small_comb():
    b = Builder("tcf")
    a, bb = b.inputs("a", "b")
    n1 = b.and2(a, bb)
    n2 = b.xor(n1, a)
    b.po(n2, "y")
    return b.circuit


class TestEncodeTimed:
    def test_model_matches_event_simulation(self):
        """Every (V1, V2) pair: the timed CNF's sampled output equals the
        event simulator's measurement — the TCF is a faithful timing
        model (the positive control for Sec. V-B)."""
        circuit = small_comb()
        dt = 0.05
        sample_time = 0.4
        ticks = int(round(sample_time / dt))
        for v1_bits in itertools.product((0, 1), repeat=2):
            for v2_bits in itertools.product((0, 1), repeat=2):
                v1 = dict(zip(["a", "b"], v1_bits))
                v2 = dict(zip(["a", "b"], v2_bits))
                chip = two_vector_response(circuit, v1, v2, sample_time)
                cnf = CNF()
                copy = CircuitEncoder(cnf, timed_view(circuit, ticks, dt))
                solver = Solver()
                solver.add_cnf(cnf)
                assumptions = []
                for net in circuit.inputs:
                    var1, var2 = copy.var_of[(net, 0)], copy.var_of[(net, 1)]
                    assumptions.append(var1 if v1[net] else -var1)
                    assumptions.append(var2 if v2[net] else -var2)
                assert solver.solve(assumptions)
                got = int(solver.model_lit(copy.var_of["y"]))
                assert got == chip["y"], (v1, v2)

    def test_sequential_rejected(self, toy_sequential):
        from repro.netlist import NetlistError

        with pytest.raises(NetlistError, match="combinational"):
            timed_view(toy_sequential, 4, 0.1)


class TestDelayTestGeneration:
    """TCF as [3] used it: ATPG for delay defects."""

    def test_finds_two_vector_test(self):
        circuit = small_comb()
        and_gate = [g for g in circuit.gates.values() if g.function == "AND2"][0]
        test = find_delay_test(circuit, and_gate.name, extra_delay=0.3,
                               sample_time=0.3)
        assert test is not None
        v1, v2 = test
        # verify physically: good chip and slow chip answer differently
        good = two_vector_response(circuit, v1, v2, 0.3)
        slow_lib_circuit = circuit.clone()
        slow = slow_lib_circuit.gates[and_gate.name]
        import dataclasses

        slow.cell = dataclasses.replace(
            slow.cell, name="AND2_SLOW", delay=slow.cell.delay + 0.3
        )
        bad = two_vector_response(slow_lib_circuit, v1, v2, 0.3)
        assert good["y"] != bad["y"]

    def test_untestable_defect_returns_none(self):
        """With a sample time far beyond every path, no two-vector test
        can expose a small extra delay."""
        circuit = small_comb()
        and_gate = [g for g in circuit.gates.values() if g.function == "AND2"][0]
        test = find_delay_test(circuit, and_gate.name, extra_delay=0.05,
                               sample_time=5.0)
        assert test is None


class TestTcfAttackOnGk:
    """Sec. V-B: CNF+TCF cannot model the glitch — a static key variable
    never transitions, so no DIP exists."""

    def test_no_dip_on_gk(self):
        gk = build_gk_demo(0.2, 0.3)
        attacker_view = gk.clone("view")
        attacker_view.inputs.remove("key")
        attacker_view.key_inputs.append("key")
        oracle = Builder("oracle")
        x = oracle.input("x")
        oracle.po(oracle.buf(x), "y")
        result = tcf_attack(
            attacker_view, SimulatedTwoVectorOracle(oracle.circuit),
            sample_time=0.6, dt=0.05, max_iterations=8,
        )
        assert result.completed
        assert result.unsat_at_first_iteration
        assert result.iterations == 0

    def test_tcf_cracks_delay_keys(self):
        """Contrast (the paper's point about [3]): a *delay* key IS
        visible to the timed model — the slow arm's stale value at the
        sample tick distinguishes the two key values."""
        b = Builder("dl")
        a = b.input("a")
        k = b.key_input("k")
        from repro.synth import insert_delay_chain

        chain = insert_delay_chain(b.circuit, a, 0.5, prefix="slow")
        out = b.mux2(a, chain.output_net, k)
        b.po(out, "y")
        locked = b.circuit
        # activated chip: correct key selects the FAST arm (k=0)
        result = tcf_attack(
            locked, SimulatedTwoVectorOracle(locked, {"k": 0}),
            sample_time=0.3, dt=0.05, max_iterations=16,
        )
        assert result.completed
        assert result.iterations >= 1  # a timed DIP existed
        assert result.key == {"k": 0}


class TestTwoVectorOracleSeam:
    """The timed attack's oracle is pluggable, mirroring the untimed
    attack's OracleProtocol seam."""

    def delay_locked(self):
        b = Builder("dl2")
        a = b.input("a")
        k = b.key_input("k")
        from repro.synth import insert_delay_chain

        chain = insert_delay_chain(b.circuit, a, 0.5, prefix="slow")
        b.po(b.mux2(a, chain.output_net, k), "y")
        return b.circuit

    def test_explicit_oracle_matches_default_path(self):
        """Any TwoVectorOracleProtocol object plugs in: a stub tester
        that answers from the event simulator directly gives the same
        DIPs and key as the default SimulatedTwoVectorOracle, and each
        oracle counts one query per DIP."""

        class StubTester:
            query_count = 0

            def two_vector(self, v1, v2, sample_time):
                self.query_count += 1
                return two_vector_response(locked, v1, v2, sample_time,
                                           key={"k": 0})

        locked = self.delay_locked()
        simulated = SimulatedTwoVectorOracle(locked, {"k": 0})
        baseline = tcf_attack(locked, simulated, sample_time=0.3, dt=0.05,
                              max_iterations=16)
        stub = StubTester()
        explicit = tcf_attack(locked, stub, sample_time=0.3, dt=0.05,
                              max_iterations=16)
        assert explicit.completed and baseline.completed
        assert explicit.key == baseline.key == {"k": 0}
        assert explicit.dips == baseline.dips
        assert stub.query_count == explicit.iterations
        assert simulated.query_count == baseline.iterations

    def test_simulated_oracle_needs_key_for_keyed_circuit(self):
        from repro.netlist import NetlistError

        locked = self.delay_locked()
        oracle = SimulatedTwoVectorOracle(locked)  # key withheld
        with pytest.raises(NetlistError, match="key"):
            oracle.two_vector({"a": 0}, {"a": 1}, 0.3)
