"""Tests for the attack oracles."""

import random

import pytest

from repro.attacks import CombinationalOracle, TimingOracle, random_pattern
from repro.core import GkLock
from repro.netlist import NetlistError
from repro.sim import evaluate_combinational


class TestCombinationalOracle:
    def test_combinational_passthrough(self, toy_combinational):
        oracle = CombinationalOracle(toy_combinational)
        response = oracle.query({"a": 1, "b": 1, "c": 0})
        want = evaluate_combinational(toy_combinational, {"a": 1, "b": 1, "c": 0})
        assert response == {net: want[net] for net in toy_combinational.outputs}
        assert oracle.query_count == 1

    def test_sequential_design_extracted(self, toy_sequential):
        oracle = CombinationalOracle(toy_sequential)
        # pseudo PIs appear in the interface
        assert len(oracle.inputs) == len(toy_sequential.inputs) + 2
        assert len(oracle.outputs) == len(toy_sequential.outputs) + 2
        pattern = {net: 0 for net in oracle.inputs}
        response = oracle.query(pattern)
        assert set(response) == set(oracle.outputs)

    def test_keyed_design_rejected(self, toy_combinational, rng):
        from repro.locking import XorLock

        locked = XorLock().lock(toy_combinational, 1, rng)
        with pytest.raises(NetlistError, match="original"):
            CombinationalOracle(locked.circuit)

    def test_random_pattern(self, rng):
        pattern = random_pattern(["x", "y"], rng)
        assert set(pattern) == {"x", "y"}


class TestTimingOracle:
    def test_runs_with_correct_key(self, s1238):
        locked = GkLock(s1238.clock).lock(s1238.circuit, 2, random.Random(1))
        oracle = TimingOracle(locked, s1238.clock.period)
        seq = [
            {net: 0 for net in s1238.circuit.inputs} for _ in range(3)
        ]
        trace = oracle.run(seq)
        assert len(trace.outputs) == 3
        assert oracle.run_count == 1


class TestOracleProtocol:
    def test_concrete_oracles_satisfy_the_protocols(self, toy_combinational,
                                                    s1238):
        from repro.attacks import (
            OracleProtocol,
            SimulatedTwoVectorOracle,
            TwoVectorOracleProtocol,
        )

        assert isinstance(CombinationalOracle(toy_combinational),
                          OracleProtocol)
        assert isinstance(SimulatedTwoVectorOracle(toy_combinational),
                          TwoVectorOracleProtocol)

    def test_minimal_stub_satisfies_the_protocol(self):
        from repro.attacks import OracleProtocol

        class Stub:
            inputs = ["a"]
            outputs = ["y"]
            query_count = 0

            def query(self, assignment):
                return {"y": 0}

            def query_batch(self, assignments):
                return [{"y": 0} for _ in assignments]

        assert isinstance(Stub(), OracleProtocol)
        assert not isinstance(object(), OracleProtocol)

    def test_oracles_share_one_compiled_instance(self, toy_combinational):
        """Both oracles hold the circuit's memoized compiled IR, so two
        oracles over the same design share one compiled instance."""
        from repro.netlist import compile_circuit

        first = CombinationalOracle(toy_combinational)
        second = CombinationalOracle(toy_combinational)
        assert first._compiled is second._compiled
        assert first._compiled is compile_circuit(toy_combinational)
