"""Tests for the SAT attack [11] and the paper's Sec. VI result."""

import random

import pytest

from repro.attacks import (
    CombinationalOracle,
    sat_attack,
    verify_key_against_oracle,
)
from repro.core import GkLock, expose_gk_keys
from repro.locking import SarLock, XorLock
from repro.netlist import Builder, NetlistError


def medium_comb():
    """A 12-gate combinational circuit with enough structure to lock."""
    b = Builder("med")
    a, bb, c, d = b.inputs("a", "b", "c", "d")
    n1 = b.nand2(a, bb)
    n2 = b.nor2(c, d)
    n3 = b.xor(n1, n2)
    n4 = b.and2(n3, a)
    n5 = b.or2(n4, d)
    n6 = b.xnor(n5, bb)
    b.po(n6, "y1")
    b.po(b.inv(n3), "y2")
    return b.circuit


class TestAgainstXorLocking:
    def test_recovers_exact_key(self, rng):
        c = medium_comb()
        locked = XorLock().lock(c, 4, rng)
        oracle = CombinationalOracle(c)
        result = sat_attack(locked.circuit, oracle)
        assert result.completed
        assert result.key is not None
        assert verify_key_against_oracle(
            locked.circuit, oracle, result.key, samples=32
        ) == 1.0

    def test_needs_dips(self, rng):
        c = medium_comb()
        locked = XorLock().lock(c, 4, rng)
        oracle = CombinationalOracle(c)
        result = sat_attack(locked.circuit, oracle)
        assert result.found_any_dip
        assert not result.unsat_at_first_iteration
        assert result.oracle_queries == result.iterations
        assert len(result.dips) == result.iterations

    def test_sequential_design_via_extraction(self, toy_sequential, rng):
        locked = XorLock().lock(toy_sequential, 2, rng)
        oracle = CombinationalOracle(toy_sequential)
        result = sat_attack(locked.circuit, oracle)
        assert result.completed
        assert verify_key_against_oracle(
            locked.circuit, oracle, result.key, samples=32
        ) == 1.0


class TestAgainstSarLock:
    def test_one_key_eliminated_per_dip(self, rng):
        """SARLock's signature: the DIP count approaches the number of
        wrong keys (here 2^3 - 1 = 7)."""
        c = medium_comb()
        locked = SarLock().lock(c, 3, rng)
        oracle = CombinationalOracle(c)
        result = sat_attack(locked.circuit, oracle)
        assert result.completed
        assert result.iterations >= 5  # near-exhaustive enumeration

    def test_more_keys_mean_more_dips(self, rng):
        c = medium_comb()
        oracle = CombinationalOracle(c)
        small = sat_attack(SarLock().lock(c, 2, rng).circuit, oracle)
        big = sat_attack(SarLock().lock(c, 4, rng).circuit, oracle)
        assert big.iterations > small.iterations


class TestAgainstGk:
    """The paper's experimental result (Sec. VI): 'the attack stopped at
    the first iteration of searching the DIP and reported unsatisfiable'."""

    @pytest.fixture(scope="class")
    def gk_setup(self):
        from repro.bench import iwls_benchmark

        inst = iwls_benchmark("s1238")
        locked = GkLock(inst.clock).lock(inst.circuit, 8, random.Random(21))
        exposed = expose_gk_keys(locked)
        oracle = CombinationalOracle(inst.circuit)
        return inst, locked, exposed, oracle

    def test_unsat_at_first_iteration(self, gk_setup):
        _inst, _locked, exposed, oracle = gk_setup
        result = sat_attack(exposed, oracle)
        assert result.completed
        assert result.iterations == 0
        assert result.unsat_at_first_iteration
        assert result.oracle_queries == 0  # the oracle was never needed

    def test_recovered_netlist_is_functionally_wrong(self, gk_setup):
        """Invalidation, not slowdown: the attack terminates but what it
        certifies is the glitch-blind function."""
        _inst, _locked, exposed, oracle = gk_setup
        result = sat_attack(exposed, oracle)
        accuracy = verify_key_against_oracle(
            exposed, oracle, result.key, samples=32
        )
        assert accuracy < 0.5

    def test_unit_gk_no_dip(self, rng):
        """Even a single GK on a trivial host yields no DIP."""
        b = Builder("unit")
        b.clock("clk")
        a = b.input("a")
        q = b.dff(b.inv(a), name="ff")
        b.po(q, "y")
        host = b.circuit
        from repro.sta import ClockSpec

        locked = GkLock(ClockSpec(period=3.0)).lock(host, 2, rng)
        exposed = expose_gk_keys(locked)
        oracle = CombinationalOracle(host)
        result = sat_attack(exposed, oracle)
        assert result.unsat_at_first_iteration


class TestOverConstrained:
    """An oracle no key can reproduce: the key gate sits on ``y1`` only,
    and the oracle's ``y2`` is the inverse of the netlist's.  ``y2`` is
    outside the key cone, so the first DIP's constant ``y2`` disagrees
    with the oracle and leaves no consistent key."""

    @pytest.fixture
    def setup(self):
        locked = Builder("locked")
        a, c = locked.inputs("a", "b")
        k = locked.key_input("k0")
        locked.po(locked.xor(locked.and2(a, c), k), "y1")
        locked.po(locked.or2(a, c), "y2")
        chip = Builder("chip")
        a, c = chip.inputs("a", "b")
        chip.po(chip.and2(a, c), "y1")
        chip.po(chip.nor2(a, c), "y2")
        return locked.circuit, CombinationalOracle(chip.circuit)

    def test_sat_attack_finds_no_key(self, setup):
        locked, oracle = setup
        result = sat_attack(locked, oracle)
        assert result.completed
        assert result.key is None

    def test_appsat_finds_no_key(self, setup):
        from repro.attacks import appsat_attack

        locked, oracle = setup
        assert appsat_attack(locked, oracle).key is None


class TestInterfaceChecks:
    def test_keyless_netlist_rejected(self, toy_combinational):
        oracle = CombinationalOracle(toy_combinational)
        with pytest.raises(NetlistError, match="no key inputs"):
            sat_attack(toy_combinational, oracle)

    def test_mismatched_oracle_rejected(self, toy_combinational, rng):
        locked = XorLock().lock(toy_combinational, 1, rng)
        b = Builder("other")
        x = b.input("x")
        b.po(b.inv(x), "y")
        with pytest.raises(NetlistError, match="interface"):
            sat_attack(locked.circuit, CombinationalOracle(b.circuit))
