"""Tests for the AppSAT approximate attack [10] and compound locking."""

import random

import pytest

from repro.attacks import CombinationalOracle, appsat_attack
from repro.core import GkLock, expose_gk_keys
from repro.locking import CompoundLock, LockingError, SarLock, XorLock
from repro.netlist import Builder, check_equivalence


def medium_comb():
    b = Builder("med")
    a, bb, c, d = b.inputs("a", "b", "c", "d")
    n1 = b.nand2(a, bb)
    n2 = b.nor2(c, d)
    n3 = b.xor(n1, n2)
    b.po(b.and2(n3, a), "y1")
    b.po(b.or2(n3, d), "y2")
    return b.circuit


class TestCompoundLock:
    def test_key_bits_accumulate(self, rng):
        c = medium_comb()
        compound = CompoundLock([XorLock(), SarLock()]).lock(c, 7, rng)
        assert compound.key_size == 7
        assert compound.scheme == "xor+sarlock"
        assert compound.original is c
        assert ("xor", 4) in compound.metadata["stages"]
        assert ("sarlock", 3) in compound.metadata["stages"]

    def test_correct_key_preserves_function(self, rng):
        import itertools

        from repro.sim import evaluate_combinational

        c = medium_comb()
        compound = CompoundLock([XorLock(), SarLock()]).lock(c, 6, rng)
        for bits in itertools.product((0, 1), repeat=4):
            pattern = dict(zip(c.inputs, bits))
            want = evaluate_combinational(c, pattern)
            got = evaluate_combinational(
                compound.circuit, {**pattern, **compound.key}
            )
            for po_a, po_b in zip(c.outputs, compound.circuit.outputs):
                assert want[po_a] == got[po_b]

    def test_empty_compound_rejected(self):
        with pytest.raises(LockingError):
            CompoundLock([])

    def test_too_few_bits_rejected(self, rng):
        with pytest.raises(LockingError):
            CompoundLock([XorLock(), SarLock()]).lock(medium_comb(), 1, rng)


class TestAppSat:
    def test_approximately_deobfuscates_compound(self, rng):
        """AppSAT's published result: the high-corruption layer falls;
        the point function's residual error is negligible."""
        from repro.attacks import verify_key_against_oracle

        c = medium_comb()
        compound = CompoundLock([XorLock(), SarLock()]).lock(c, 8, rng)
        oracle = CombinationalOracle(c)
        result = appsat_attack(
            compound.circuit, oracle, rng=random.Random(1)
        )
        assert result.approximately_correct
        assert result.estimated_error == 0.0
        accuracy = verify_key_against_oracle(
            compound.circuit, oracle, result.key, samples=64
        )
        # at most the point function's single pattern may still differ
        assert accuracy >= 1.0 - 2.0 / 16.0

    def test_recovers_exact_xor_layer_on_benchmark(self, s1238):
        """On a wide-input design the XOR bits are uniquely determined
        and AppSAT pins them exactly, leaving only SARLock residue."""
        compound = CompoundLock([XorLock(), SarLock()]).lock(
            s1238.circuit, 12, random.Random(8)
        )
        oracle = CombinationalOracle(s1238.circuit)
        result = appsat_attack(
            compound.circuit, oracle, rng=random.Random(9)
        )
        assert result.approximately_correct
        xor_keys = {
            k: v for k, v in compound.key.items() if k.startswith("keyin_x")
        }
        assert all(result.key[k] == v for k, v in xor_keys.items())

    def test_exact_on_pure_xor(self, rng):
        """The settled key is functionally exact, though not always the
        lock's own: here ``keyin_x2`` and ``keyin_x3`` sit in series on
        one path, so flipping both keeps the function."""
        c = medium_comb()
        locked = XorLock().lock(c, 4, rng)
        oracle = CombinationalOracle(c)
        result = appsat_attack(locked.circuit, oracle, rng=random.Random(2))
        assert result.approximately_correct
        assert check_equivalence(c, locked.circuit, key_b=result.key)

    def test_degenerates_on_gk(self, s1238):
        """Against GKs every key has the same (wrong) behaviour: the
        'settled' key still fails the chip on a fresh validation batch."""
        from repro.attacks import verify_key_against_oracle

        locked = GkLock(s1238.clock).lock(s1238.circuit, 8, random.Random(3))
        exposed = expose_gk_keys(locked)
        oracle = CombinationalOracle(s1238.circuit)
        result = appsat_attack(
            exposed, oracle, rng=random.Random(4), max_rounds=3,
            queries_per_round=8,
        )
        # the DIP phase is immediately UNSAT; random queries keep
        # failing, or the loop exhausts without settling on a valid key
        if result.key is not None:
            accuracy = verify_key_against_oracle(
                exposed, oracle, result.key, samples=24
            )
            assert accuracy < 0.5
        assert result.dip_iterations == 0

    def test_keyless_rejected(self, toy_combinational):
        from repro.netlist import NetlistError

        with pytest.raises(NetlistError, match="no key inputs"):
            appsat_attack(
                toy_combinational, CombinationalOracle(toy_combinational)
            )
