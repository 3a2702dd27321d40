"""Portfolio SAT: determinism, differential correctness, warm starts.

Three layers, matching the portfolio's three claims:

* **Determinism** — one configuration on one clause stream is
  bit-reproducible (same model, same conflict/decision counts), in
  process and in a child process: :func:`solve_one` is the single code
  path both sides run, so a race child is a faithful stand-in for the
  serial solver it would replace.
* **Differential** — the portfolio's answer equals the serial
  solver's, whether it solves inline, races processes, carries a
  shared pool, or was warm-started: heuristics may change effort,
  never answers.
* **Warm starts** — seeded pools must be invisible to the encoder
  (seeding must not bump ``num_vars``: encoders allocate fresh
  variables above it, and a bump would shift the new encoding past the
  pool, orphaning every seeded clause), and persisted pools must be
  restricted to base-encoding variables, the only ones whose meaning
  is stable across runs.
"""

import itertools
import multiprocessing
import random

import pytest
from hypothesis import given, strategies as st

from repro.attacks import (
    CombinationalOracle,
    sat_attack,
    verify_key_against_oracle,
)
from repro.campaign.cache import NetlistCache
from repro.locking import XorLock
from repro.netlist import Builder
from repro.sat import PortfolioSolver, Solver, SolverConfig
from repro.sat.portfolio import (
    SolveOutcome,
    default_portfolio,
    load_shared_clauses,
    oracle_fingerprint,
    shared_clause_key,
    solve_one,
    store_shared_clauses,
)
from repro.sat.solver import SolverInterrupted


def brute_sat(num_vars, clauses):
    for bits in itertools.product([False, True], repeat=num_vars):
        assignment = {v + 1: bits[v] for v in range(num_vars)}
        if all(
            any(assignment[abs(lit)] == (lit > 0) for lit in clause)
            for clause in clauses
        ):
            return assignment
    return None


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


def random_clauses(rng, num_vars, num_clauses, max_width=3):
    return [
        [
            rng.randint(1, num_vars) * rng.choice([1, -1])
            for _ in range(rng.randint(1, max_width))
        ]
        for _ in range(num_clauses)
    ]


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


def _child_solve(conn, clauses, assumptions, config):
    conn.send(solve_one(clauses, assumptions, config))
    conn.close()


class TestDeterminism:
    @pytest.mark.parametrize("config", default_portfolio(4, base_seed=3),
                             ids=["c0", "c1", "c2", "c3"])
    def test_repeated_runs_identical(self, config):
        clauses = php(5, 4)
        outcomes = [solve_one(clauses, (), config) for _ in range(3)]
        assert outcomes[0] == outcomes[1] == outcomes[2]
        assert outcomes[0].num_conflicts > 0  # the instance has search

    def test_cross_process_identical(self):
        """A race child reproduces the parent bit for bit."""
        clauses = php(5, 4) + random_clauses(random.Random(11), 12, 24)
        config = default_portfolio(4, base_seed=3)[2]
        local = solve_one(clauses, (), config)
        recv, send = multiprocessing.Pipe(duplex=False)
        proc = multiprocessing.Process(
            target=_child_solve, args=(send, clauses, (), config)
        )
        proc.start()
        send.close()
        remote = recv.recv()
        proc.join(timeout=30)
        assert isinstance(remote, SolveOutcome)
        assert remote == local

    def test_assumptions_deterministic(self):
        clauses = random_clauses(random.Random(5), 10, 25)
        config = SolverConfig(polarity="random", seed=9,
                              random_decision_freq=0.05)
        runs = [solve_one(clauses, (1, -3), config) for _ in range(2)]
        assert runs[0] == runs[1]


class TestDifferential:
    @given(data=st.data())
    def test_inline_portfolio_matches_brute_force(self, data):
        num_vars = data.draw(st.integers(1, 9))
        clauses = [
            [
                data.draw(st.integers(1, num_vars))
                * data.draw(st.sampled_from([1, -1]))
                for _ in range(data.draw(st.integers(1, 3)))
            ]
            for _ in range(data.draw(st.integers(1, 25)))
        ]
        expected = brute_sat(num_vars, clauses)
        solver = PortfolioSolver(n=4, use_processes=False)
        for clause in clauses:
            solver.add_clause(clause)
        got = solver.solve()
        assert got == (expected is not None)
        if got:
            model = solver.model()
            for clause in clauses:
                assert any(model[abs(lit)] == (lit > 0) for lit in clause)

    def test_process_race_matches_serial(self):
        """The raced answer equals the serial solver's on a fixed
        corpus (SAT and UNSAT, with and without assumptions)."""
        rng = random.Random(0xD1FF)
        corpus = [
            (random_clauses(rng, 10, rng.randint(5, 30)), ())
            for _ in range(6)
        ]
        corpus.append((php(4, 3), ()))
        corpus.append((php(4, 4), (1,)))
        for clauses, assumptions in corpus:
            serial = Solver()
            ok = True
            for clause in clauses:
                ok = serial.add_clause(clause) and ok
            expected = ok and serial.solve(assumptions)

            raced = PortfolioSolver(n=2, deadline=30.0)
            for clause in clauses:
                raced.add_clause(clause)
            assert raced.solve(assumptions) == expected
            if expected:
                model = raced.model()
                for clause in clauses:
                    assert any(
                        model[abs(lit)] == (lit > 0) for lit in clause
                    )

    def test_incremental_race_sequence(self):
        """Incremental use across races: the pool grows, answers stay
        correct, and the wins ledger accounts for every solve call."""
        solver = PortfolioSolver(n=2, deadline=30.0)
        clauses = php(5, 4)
        for clause in clauses[:8]:
            solver.add_clause(clause)
        assert solver.solve()
        for clause in clauses[8:]:
            solver.add_clause(clause)
        assert not solver.solve()
        assert solver.num_solve_calls == 2
        assert sum(solver.stats.wins.values()) == 2
        assert solver.num_conflicts > 0


class TestAttackDropIn:
    def _attack(self, solver):
        circuit = medium_comb()
        locked = XorLock().lock(circuit, 4, random.Random(0xC0FFEE))
        oracle = CombinationalOracle(circuit)
        return sat_attack(locked.circuit, oracle, solver=solver), locked

    def test_inline_portfolio_recovers_serial_key(self):
        serial, _ = self._attack(None)
        inline, _ = self._attack(PortfolioSolver(n=4, use_processes=False))
        assert inline.completed
        assert inline.key == serial.key
        assert inline.iterations == serial.iterations

    def test_raced_portfolio_recovers_correct_key(self):
        solver = PortfolioSolver(n=2, deadline=30.0)
        result, locked = self._attack(solver)
        assert result.completed
        # A child may win an intermediate query with a different model
        # (hence different DIPs), so assert functional correctness, not
        # an identical trajectory.
        assert verify_key_against_oracle(
            locked.circuit, CombinationalOracle(medium_comb()),
            result.key, samples=64,
        ) == 1.0
        assert solver.stats.races >= 1


class TestWarmStart:
    def test_seeding_does_not_bump_num_vars(self):
        """Regression: seeded clauses reference the encoding the attack
        is *about to build*; bumping num_vars would shift that encoding
        past the pool and orphan every seeded clause."""
        solver = PortfolioSolver(n=2, use_processes=False)
        assert solver.seed_shared_clauses([(1, -2), (540,)]) == 2
        assert solver.num_vars == 0
        assert solver.stats.clauses_seeded == 2

    def test_persistable_restricted_to_base_vars(self):
        solver = PortfolioSolver(n=2, use_processes=False)
        for clause in php(4, 3):
            solver.add_clause(clause)
        base_vars = solver.num_vars
        assert not solver.solve()
        solver._absorb([(1, base_vars + 7)])  # a post-base harvest
        persistable = solver.persistable_clauses()
        assert persistable  # the UNSAT proof left short clauses
        assert all(
            abs(lit) <= base_vars
            for clause in persistable for lit in clause
        )
        assert (1, base_vars + 7) not in persistable
        assert (1, base_vars + 7) in solver.shared_clauses()

    def test_seeded_pool_preserves_answers(self):
        """Seeding a previous run's persistable pool never changes the
        answer — only the effort (here: conflicts can only stay equal
        or drop on the identical query)."""
        clauses = php(5, 4)
        first = PortfolioSolver(n=2, use_processes=False)
        for clause in clauses:
            first.add_clause(clause)
        assert not first.solve()
        pool = first.persistable_clauses()
        assert pool

        second = PortfolioSolver(n=2, use_processes=False)
        second.seed_shared_clauses(pool)
        for clause in clauses:
            second.add_clause(clause)
        assert not second.solve()
        assert second.num_conflicts <= first.num_conflicts

    def test_warm_attack_replays_key(self, tmp_path):
        """End to end: persist a cold attack's pool through the
        campaign cache, warm-start a second attack, same key — and the
        warm run's first miter query is already UNSAT (0 iterations):
        the pool carries the oracle knowledge."""
        circuit = medium_comb()
        locked = XorLock().lock(circuit, 4, random.Random(0xC0FFEE))
        oracle = CombinationalOracle(circuit)
        cache = NetlistCache(str(tmp_path / "cache"))
        key = shared_clause_key(
            locked.circuit, "sat", oracle_fingerprint(oracle)
        )

        cold = PortfolioSolver(n=2, use_processes=False)
        cold_result = sat_attack(locked.circuit, oracle, solver=cold)
        assert cold_result.completed
        stored = store_shared_clauses(
            cache, key, cold.persistable_clauses()
        )
        assert stored > 0

        warm = PortfolioSolver(n=2, use_processes=False)
        seeded = warm.seed_shared_clauses(load_shared_clauses(cache, key))
        assert seeded == stored
        warm_result = sat_attack(
            locked.circuit, CombinationalOracle(circuit), solver=warm
        )
        assert warm_result.completed
        # The seeded pool may steer the attack to a different (equally
        # correct) key when a key bit is functionally don't-care, so
        # the contract is oracle equivalence, not trajectory equality.
        assert verify_key_against_oracle(
            locked.circuit, CombinationalOracle(circuit),
            warm_result.key, samples=64,
        ) == 1.0

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
        circuit = medium_comb()
        locked = XorLock().lock(circuit, 4, random.Random(0xC0FFEE))
        oracle = CombinationalOracle(circuit)
        cache = NetlistCache(str(tmp_path / "cache"))
        fingerprint = oracle_fingerprint(oracle)

        old = PortfolioSolver(n=2, use_processes=False)
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


class TestInterrupt:
    def test_interrupted_solver_resumes_correctly(self):
        """An interrupt leaves the solver consistent: resuming without
        the hook reaches the right answer, keeping what it learned."""
        solver = Solver()
        for clause in php(6, 5):
            solver.add_clause(clause)
        solver.interrupt = lambda: True
        with pytest.raises(SolverInterrupted):
            solver.solve()
        conflicts_so_far = solver.num_conflicts
        assert conflicts_so_far > 0
        solver.interrupt = None
        assert not solver.solve()
        assert solver.num_conflicts > conflicts_so_far

    def test_never_interrupted_when_callback_false(self):
        solver = Solver()
        for clause in php(5, 4):
            solver.add_clause(clause)
        solver.interrupt = lambda: False
        assert not solver.solve()


class TestRunnerIntegration:
    def test_portfolio_param_threads_through_registry(self, tmp_path):
        """``portfolio=N`` + a context cache drives the whole loop:
        run 1 persists its pool, run 2 seeds from it, and the
        portfolio ledger lands in ``outcome.detail``."""
        from repro.attacks.registry import AttackContext, run_attack

        circuit = medium_comb()
        locked = XorLock().lock(circuit, 4, random.Random(3))
        cache = NetlistCache(str(tmp_path / "cache"))

        cold = run_attack("sat", AttackContext(
            locked=locked, seed=3, params={"portfolio": 1}, cache=cache,
        ))
        assert cold.completed and cold.success
        ledger = cold.detail["portfolio"]
        assert ledger["inline_solves"] >= 1  # a 1-wide portfolio is inline
        assert ledger["clauses_seeded"] == 0

        warm = run_attack("sat", AttackContext(
            locked=locked, seed=3, params={"portfolio": 1}, cache=cache,
        ))
        assert warm.completed and warm.success
        assert warm.detail["portfolio"]["clauses_seeded"] > 0

    def test_portfolio_warm_opt_out(self, tmp_path):
        from repro.attacks.registry import AttackContext, run_attack

        circuit = medium_comb()
        locked = XorLock().lock(circuit, 4, random.Random(3))
        cache = NetlistCache(str(tmp_path / "cache"))
        params = {"portfolio": 1, "portfolio_warm": False}
        first = run_attack("sat", AttackContext(
            locked=locked, seed=3, params=dict(params), cache=cache,
        ))
        second = run_attack("sat", AttackContext(
            locked=locked, seed=3, params=dict(params), cache=cache,
        ))
        assert second.detail["portfolio"]["clauses_seeded"] == 0
        assert first.completed and second.completed


class TestConfigSpace:
    def test_default_portfolio_cycles_with_fresh_seeds(self):
        configs = default_portfolio(10, base_seed=100)
        assert len(configs) == 10
        assert configs[0] == SolverConfig()
        # lap 1 repeats the preset axes with bumped seeds
        assert configs[8].restart == configs[0].restart
        assert configs[8].seed != configs[0].seed

    def test_size_validated(self):
        with pytest.raises(ValueError):
            default_portfolio(0)
        with pytest.raises(ValueError):
            PortfolioSolver(configs=[])
