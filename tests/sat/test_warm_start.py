"""Warm-started SAT attacks: the solver's clause pool and its persistence.

* **Solver pool** — seeded clauses must be invisible to the encoder
  (seeding must not bump ``num_vars``: encoders allocate fresh
  variables above it, and a bump would shift the new encoding past the
  pool, orphaning every seeded clause), and persisted pools must be
  restricted to base-encoding variables, the only ones whose meaning
  is stable across runs.
* **Persistence** — pools are keyed by netlist, attack family, oracle
  fingerprint and miter encoding version.
* **Warm attacks** — end to end through :func:`warm_solver`, the
  attack registry's ``warm_start`` param and the campaign's ``attack``
  kind: a warm run recovers an oracle-equivalent key in 0 DIP
  iterations.
"""

import io
import json
import random

import pytest

from repro.attacks import (
    CombinationalOracle,
    sat_attack,
    verify_key_against_oracle,
)
from repro.attacks.registry import AttackContext, run_attack
from repro.attacks.sat_attack import MITER_ENCODING_VERSION
from repro.attacks.warm_start import (
    load_shared_clauses,
    oracle_fingerprint,
    shared_clause_key,
    store_shared_clauses,
    warm_solver,
)
from repro.bench import iwls_benchmark
from repro.campaign.cache import NetlistCache
from repro.campaign.matrix import JobSpec
from repro.campaign.worker import execute_job
from repro.locking import XorLock
from repro.netlist import Builder, parse_bench, write_bench
from repro.netlist.transform import combinational_view
from repro.sat import Solver

#: Lock seed whose cold attack on :func:`medium_comb` needs a DIP and
#: whose warm attack needs none.
LOCK_SEED = 0xC0FFEE


def php(pigeons, holes):
    """Pigeonhole clauses: UNSAT when pigeons > holes, with search."""
    def var(p, h):
        return p * holes + h + 1

    clauses = [
        [var(p, h) for h in range(holes)] for p in range(pigeons)
    ]
    for h in range(holes):
        for p1 in range(pigeons):
            for p2 in range(p1 + 1, pigeons):
                clauses.append([-var(p1, h), -var(p2, h)])
    return clauses


def medium_comb():
    """The attack tests' 12-gate combinational workhorse."""
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


def locked_medium():
    circuit = medium_comb()
    return circuit, XorLock().lock(circuit, 4, random.Random(LOCK_SEED))


def warm_attack(cache, circuit, locked):
    """One SAT attack through :func:`warm_solver`; returns the result
    and the solver."""
    oracle = CombinationalOracle(circuit)
    with warm_solver(cache, locked.circuit, "sat", oracle) as solver:
        result = sat_attack(locked.circuit, oracle, solver=solver)
    assert result.completed
    # The seeded pool may steer the attack to a different (equally
    # correct) key when a key bit is functionally don't-care, so the
    # contract is oracle equivalence, not trajectory equality.
    assert verify_key_against_oracle(
        locked.circuit, CombinationalOracle(circuit), result.key,
        samples=64,
    ) == 1.0
    return result, solver


class TestSolverPool:
    def test_seeding_does_not_bump_num_vars(self):
        """Regression: seeded clauses reference the encoding the attack
        is *about to build*; bumping num_vars would shift that encoding
        past the pool and orphan every seeded clause."""
        solver = Solver()
        solver.seed_clauses([(1, -2), (540,)])
        assert solver.num_vars == 0
        solver.add_clause([1, 2])
        assert solver.solve()
        assert solver.num_imported == 2  # imported at the first solve
        with pytest.raises(ValueError):
            solver.seed_clauses([(1,)])

    def test_persistable_restricted_to_base_vars(self):
        solver = Solver()
        solver.seed_clauses([(1, 2), (1, 99)])
        for clause in php(4, 3):
            solver.add_clause(clause)
        base_vars = solver.num_vars
        assert not solver.solve()
        persistable = solver.persistable_clauses()
        assert (1, 2) in persistable  # seeded clauses are kept...
        assert (1, 99) not in persistable  # ...over base variables only
        assert len(persistable) > 1  # the UNSAT proof left short clauses
        assert all(
            abs(lit) <= base_vars
            for clause in persistable for lit in clause
        )

    def test_seeded_pool_preserves_answers(self):
        """Seeding a previous run's persistable pool never changes the
        answer — only the effort (here: conflicts can only stay equal
        or drop on the identical query)."""
        clauses = php(5, 4)
        first = Solver()
        for clause in clauses:
            first.add_clause(clause)
        assert not first.solve()
        pool = first.persistable_clauses()
        assert pool

        second = Solver()
        second.seed_clauses(pool)
        for clause in clauses:
            second.add_clause(clause)
        assert not second.solve()
        assert second.num_conflicts <= first.num_conflicts


class TestPersistence:
    def test_fingerprint_distinguishes_oracles(self):
        circuit = medium_comb()
        b = Builder("med2")
        a, bb, c, d = b.inputs("a", "b", "c", "d")
        n1 = b.nand2(a, bb)
        n2 = b.nor2(c, d)
        n3 = b.xor(n1, n2)
        b.po(b.and2(n3, a), "y1")
        b.po(b.inv(n3), "y2")
        same = oracle_fingerprint(CombinationalOracle(circuit))
        again = oracle_fingerprint(CombinationalOracle(circuit))
        other = oracle_fingerprint(CombinationalOracle(b.circuit))
        assert same == again
        assert same != other

    def test_pool_from_another_encoding_never_seeds(
        self, tmp_path, monkeypatch
    ):
        """Pools hold clauses by variable number: one stored under a
        different miter encoding version must not load into this one."""
        import importlib

        miter_module = importlib.import_module("repro.attacks.sat_attack")
        circuit, locked = locked_medium()
        oracle = CombinationalOracle(circuit)
        cache = NetlistCache(str(tmp_path / "cache"))
        fingerprint = oracle_fingerprint(oracle)

        old = Solver()
        assert sat_attack(locked.circuit, oracle, solver=old).completed
        with monkeypatch.context() as patch:
            patch.setattr(
                miter_module, "MITER_ENCODING_VERSION",
                miter_module.MITER_ENCODING_VERSION - 1,
            )
            old_key = shared_clause_key(locked.circuit, "sat", fingerprint)
            assert store_shared_clauses(
                cache, old_key, old.persistable_clauses()
            ) > 0

        new_key = shared_clause_key(locked.circuit, "sat", fingerprint)
        assert new_key != old_key
        assert load_shared_clauses(cache, new_key) == []

    def test_flip_flop_order_is_the_versioned_one(self):
        """Pools of a ``.bench``-loaded netlist are keyed by its text,
        which a reorder of the view leaves alone, so only the version
        keeps them apart.  Version 5 numbers the pseudo-PIs in Q-net
        order; version 4 used instance-name order, which differs on a
        round trip (the reader names flip-flops ``dff$N``).  Version 6
        keeps that order and adds two node-table rewrites.  A change
        of this order must bump the version and rewrite this test."""
        locked = XorLock().lock(iwls_benchmark("s1238").circuit, 4,
                                random.Random(2019)).circuit
        text = io.StringIO()
        write_bench(locked, text)
        reread = parse_bench(text.getvalue(), name="locked.bench")
        flip_flops = reread.flip_flops()
        by_q_net = sorted(ff.output for ff in flip_flops)
        by_name = [ff.output
                   for ff in sorted(flip_flops, key=lambda g: g.name)]
        view = combinational_view(reread)
        assert view.inputs[len(reread.inputs):] == by_q_net
        assert by_q_net != by_name
        assert MITER_ENCODING_VERSION == 6


class TestWarmAttack:
    def test_warm_attack_replays_key(self, tmp_path):
        """Persist a cold attack's pool through the campaign cache and
        warm-start a second attack from it: its first miter query is
        already UNSAT (0 iterations), because the pool carries the
        oracle knowledge."""
        circuit, locked = locked_medium()
        cache = NetlistCache(str(tmp_path / "cache"))
        cold, cold_solver = warm_attack(cache, circuit, locked)
        assert cold.iterations > 0
        assert cold_solver.num_imported == 0
        warm, seeded = warm_attack(cache, circuit, locked)
        assert seeded.num_imported > 0
        assert warm.iterations == 0

    def test_warm_pool_seeds_a_third_run(self, tmp_path):
        """A warm run's persisted pool keeps the clauses it was seeded
        with, and a third run seeded from it still needs no DIP."""
        circuit, locked = locked_medium()
        cache = NetlistCache(str(tmp_path / "cache"))
        key = shared_clause_key(
            locked.circuit, "sat",
            oracle_fingerprint(CombinationalOracle(circuit)),
        )
        warm_attack(cache, circuit, locked)
        first_pool = load_shared_clauses(cache, key)
        warm_attack(cache, circuit, locked)
        second_pool = load_shared_clauses(cache, key)
        assert first_pool
        assert set(first_pool) <= set(second_pool)
        third, _ = warm_attack(cache, circuit, locked)
        assert third.iterations == 0


class TestRunnerIntegration:
    def test_warm_start_param_threads_through_registry(self, tmp_path):
        """``warm_start`` + a context cache drives the whole loop: run 1
        persists its pool, run 2 seeds from it and needs no DIP."""
        _circuit, locked = locked_medium()
        cache = NetlistCache(str(tmp_path / "cache"))
        runs = [
            run_attack("sat", AttackContext(
                locked=locked, seed=3, params={"warm_start": True},
                cache=cache,
            ))
            for _ in range(2)
        ]
        assert all(run.completed and run.success for run in runs)
        assert runs[0].detail["iterations"] > 0
        assert runs[1].detail["iterations"] == 0

    def test_warm_start_off_by_default(self, tmp_path):
        _circuit, locked = locked_medium()
        cache = NetlistCache(str(tmp_path / "cache"))
        runs = [
            run_attack("sat", AttackContext(
                locked=locked, seed=3, cache=cache,
            ))
            for _ in range(2)
        ]
        assert cache.writes == 0
        assert runs[0].detail == runs[1].detail
        assert runs[1].detail["iterations"] > 0

    def test_campaign_attack_kind_warm_starts(self, tmp_path):
        """The campaign ``attack`` kind with ``warm_start`` persists a
        pool on its first cell and seeds the next cell on the same
        netlist+oracle from it."""
        root = tmp_path / "cache"
        cache = NetlistCache(str(root))
        spec = dict(benchmark="s1238", scheme="xor", key_bits=4, seed=1,
                    warm_start=True)

        def pools():
            entries = (json.loads(path.read_text())["payload"]
                       for path in root.rglob("*.json"))
            return [entry["clauses"] for entry in entries
                    if "clauses" in entry]

        first = execute_job(JobSpec.make("attack", **spec), cache=cache)
        assert first["status"] == "ok", first["error"]
        assert first["payload"]["iterations"] > 0
        assert len(pools()) == 1 and pools()[0]

        # Another cell (a different iteration budget) on the same
        # locked netlist and oracle.
        second = execute_job(
            JobSpec.make("attack", max_iterations=64, **spec), cache=cache
        )
        assert second["status"] == "ok", second["error"]
        assert second["payload"]["iterations"] == 0
        assert second["payload"]["completed"]
        assert second["payload"]["accuracy"] == 1.0
