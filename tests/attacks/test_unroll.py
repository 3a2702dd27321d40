"""Tests for the sequential (time-frame unrolling) SAT attack."""

import random

import pytest

from repro.attacks.unroll import sequential_sat_attack
from repro.core import GkLock, expose_gk_keys
from repro.locking import XorLock
from repro.netlist import NetlistError
from repro.sta import ClockSpec


class TestAgainstXor:
    def test_cracks_sequential_xor_without_scan(self, toy_sequential, rng):
        locked = XorLock().lock(toy_sequential, 2, rng)
        result = sequential_sat_attack(locked.circuit, toy_sequential,
                                       frames=4)
        assert result.completed
        assert result.key == locked.key
        assert result.iterations >= 1

    def test_distinguishing_sequences_recorded(self, toy_sequential, rng):
        locked = XorLock().lock(toy_sequential, 2, rng)
        result = sequential_sat_attack(locked.circuit, toy_sequential,
                                       frames=3)
        assert result.dips
        for sequence in result.dips:
            assert len(sequence) == 3
            assert all(set(frame) == {"a", "b"} for frame in sequence)

    def test_deep_state_needs_enough_frames(self, rng):
        """A key-gate behind a 3-deep shift register is invisible to a
        1-frame unroll but falls with enough frames."""
        from repro.netlist import Builder

        b = Builder("shift")
        b.clock("clk")
        a = b.input("a")
        q1 = b.dff(a, name="s1")
        q2 = b.dff(q1, name="s2")
        q3 = b.dff(q2, name="s3")
        b.po(q3, "y")
        circuit = b.circuit
        locked = XorLock(sites=[q2]).lock(circuit, 1, rng)
        shallow = sequential_sat_attack(locked.circuit, circuit, frames=1)
        assert shallow.iterations == 0  # the corrupt bit never reaches y
        deep = sequential_sat_attack(locked.circuit, circuit, frames=4)
        assert deep.key == locked.key


class TestAgainstGk:
    def test_gk_unsat_in_every_frame(self, toy_sequential):
        locked = GkLock(ClockSpec(period=3.0)).lock(
            toy_sequential, 2, random.Random(4)
        )
        exposed = expose_gk_keys(locked)
        result = sequential_sat_attack(exposed, toy_sequential, frames=4)
        assert result.unsat_at_first_iteration

    def test_gk_on_benchmark(self, s1238):
        locked = GkLock(s1238.clock).lock(s1238.circuit, 4, random.Random(5))
        exposed = expose_gk_keys(locked)
        result = sequential_sat_attack(exposed, s1238.circuit, frames=2)
        assert result.unsat_at_first_iteration


class TestInterface:
    def test_combinational_rejected(self, toy_combinational, rng):
        locked = XorLock().lock(toy_combinational, 1, rng)
        with pytest.raises(NetlistError, match="sequential"):
            sequential_sat_attack(locked.circuit, toy_combinational)

    def test_keyless_rejected(self, toy_sequential):
        with pytest.raises(NetlistError, match="no key inputs"):
            sequential_sat_attack(toy_sequential, toy_sequential)
