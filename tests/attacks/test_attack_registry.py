"""Tests for the attack registry and the AttackOutcome normal form."""

import random

import pytest

from repro.attacks.outcome import AttackOutcome, score_recovery
from repro.attacks.registry import (
    AttackContext,
    attack_info,
    attack_infos,
    attack_names,
    incompatibility,
    register_attack,
    run_attack,
)
from repro.locking import XorLock
from repro.locking.registry import scheme_info


class TestNames:
    def test_all_seven_families_registered(self):
        names = attack_names()
        assert names == sorted(names)
        for expected in ("sat", "appsat", "removal", "enhanced_removal",
                         "tcf", "scan", "sequential"):
            assert expected in names

    def test_every_attack_described_and_tagged(self):
        for info in attack_infos():
            assert info.description, f"{info.name} lacks a description"
            assert info.tags, f"{info.name} lacks capability tags"

    def test_declared_params_are_the_ones_the_runner_reads(self):
        """``params`` is what scenario validation trusts, so it must
        name exactly the ``context.param`` reads in the runner (plus
        ``warm_start``, read by the shared solver helper)."""
        import inspect
        import re

        for info in attack_infos():
            source = inspect.getsource(info.runner)
            reads = set(re.findall(r'context\.param\(\s*"(\w+)"', source))
            if "_solver(context" in source:
                reads.add("warm_start")
            assert set(info.params) == reads, info.name

    def test_unknown_attack_names_the_choices(self):
        with pytest.raises(KeyError, match="choose from"):
            attack_info("rubber-hose")

    def test_duplicate_name_rejected(self):
        with pytest.raises(ValueError, match="registered twice"):
            register_attack("sat")(lambda ctx: None)


class TestAttackContext:
    def _context(self, toy_combinational, params=None):
        locked = XorLock().lock(toy_combinational, 2, random.Random(1))
        return AttackContext(locked=locked, seed=7, params=params or {})

    def test_rng_deterministic_and_salted(self, toy_combinational):
        ctx = self._context(toy_combinational)
        assert ctx.rng(1).random() == ctx.rng(1).random()
        assert ctx.rng(1).random() != ctx.rng(2).random()

    def test_param_coerces_to_default_type(self, toy_combinational):
        ctx = self._context(toy_combinational, {"samples": "40"})
        assert ctx.param("samples", 300) == 40
        assert isinstance(ctx.param("samples", 300), int)
        assert ctx.param("absent", 1.5) == 1.5

    def test_target_is_locked_circuit_for_non_gk(self, toy_combinational):
        ctx = self._context(toy_combinational)
        assert ctx.target() is ctx.locked.circuit


class TestIncompatibility:
    def test_gk_specific_attack_needs_gk_family(self):
        reason = incompatibility(scheme_info("xor"), attack_info("scan"))
        assert reason is not None and "GK" in reason
        assert incompatibility(
            scheme_info("gk"), attack_info("scan")
        ) is None

    def test_general_attacks_apply_everywhere(self):
        for scheme in ("xor", "gk", "sarlock", "kgate"):
            assert incompatibility(
                scheme_info(scheme), attack_info("sat")
            ) is None


class TestRunAttack:
    def test_removal_returns_normalized_outcome(self, toy_combinational):
        locked = XorLock().lock(toy_combinational, 2, random.Random(1))
        outcome = run_attack(
            "removal", AttackContext(locked=locked, seed=3)
        )
        assert isinstance(outcome, AttackOutcome)
        assert outcome.attack == "removal"
        assert outcome.completed
        assert outcome.wall_time >= 0.0

    def test_sat_cracks_xor_toy(self, toy_combinational):
        locked = XorLock().lock(toy_combinational, 2, random.Random(1))
        outcome = run_attack("sat", AttackContext(locked=locked, seed=3))
        assert outcome.completed
        assert outcome.success
        assert outcome.key_correct is True
        assert outcome.corruption == 0.0
        assert outcome.oracle_queries > 0


class TestOutcomeSerialization:
    def test_round_trip(self):
        outcome = AttackOutcome(
            attack="sat", completed=True, success=True,
            key={"keyin_0": 1}, key_correct=True, oracle_queries=5,
            wall_time=0.25, corruption=0.0, detail={"iterations": 3},
        )
        again = AttackOutcome.from_dict(outcome.to_dict())
        assert again == outcome

    def test_round_trip_preserves_none_fields(self):
        outcome = AttackOutcome(attack="removal", completed=True)
        again = AttackOutcome.from_dict(outcome.to_dict())
        assert again.key is None
        assert again.key_correct is None
        assert again.corruption is None


class TestScoreRecovery:
    def test_correct_key_scores_clean(self, toy_combinational):
        locked = XorLock().lock(toy_combinational, 2, random.Random(1))
        correct, corruption = score_recovery(
            toy_combinational, locked.circuit, locked.key
        )
        assert correct is True
        assert corruption == 0.0

    def test_wrong_key_scores_corrupt(self, toy_combinational, rng):
        locked = XorLock().lock(toy_combinational, 2, random.Random(1))
        wrong = locked.random_wrong_key(rng)
        correct, corruption = score_recovery(
            toy_combinational, locked.circuit, wrong
        )
        assert correct is False
        assert corruption is not None and corruption > 0.0

    def test_no_key_scores_none(self, toy_combinational):
        locked = XorLock().lock(toy_combinational, 2, random.Random(1))
        assert score_recovery(
            toy_combinational, locked.circuit, None
        ) == (None, None)
