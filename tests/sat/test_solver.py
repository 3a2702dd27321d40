"""Tests for the CDCL SAT solver."""

import itertools
import random

import pytest
from hypothesis import given, strategies as st
from hypothesis_profiles import active_profile

from repro.sat import CNF, Solver, luby


def brute_force(num_vars, clauses):
    for bits in itertools.product([False, True], repeat=num_vars):
        assignment = {v + 1: bits[v] for v in range(num_vars)}
        if all(
            any(assignment[abs(l)] == (l > 0) for l in c) for c in clauses
        ):
            return assignment
    return None


class TestLuby:
    def test_prefix(self):
        assert [luby(i) for i in range(1, 16)] == [
            1, 1, 2, 1, 1, 2, 4, 1, 1, 2, 1, 1, 2, 4, 8,
        ]

    def test_power_boundaries(self):
        assert luby(31) == 16
        assert luby(63) == 32

    def test_zero_rejected(self):
        with pytest.raises(ValueError):
            luby(0)


class TestBasics:
    def test_trivial_sat(self):
        s = Solver()
        s.add_clause([1])
        assert s.solve()
        assert s.model()[1] is True

    def test_trivial_unsat(self):
        s = Solver()
        s.add_clause([1])
        assert not s.add_clause([-1])
        assert not s.solve()

    def test_empty_clause_unsat(self):
        s = Solver()
        s.add_clause([1])
        s.add_clause([-1])
        assert not s.solve()

    def test_tautology_ignored(self):
        s = Solver()
        assert s.add_clause([1, -1])
        assert s.solve()

    def test_dropped_clause_still_allocates_its_variables(self):
        s = Solver()
        assert s.add_clause([1, -1, 2])  # tautology before 2 is read
        s.add_clause([3])
        assert s.add_clause([3, 4])  # satisfied at level 0 before 4
        assert s.num_vars == 4
        assert s.solve()
        assert set(s.model()) == {1, 2, 3, 4}

    def test_duplicate_literals_collapsed(self):
        s = Solver()
        s.add_clause([1, 1, 2, 2])
        assert s.solve()

    def test_model_satisfies_formula(self):
        clauses = [[1, 2], [-1, 3], [-2, -3], [2, 3]]
        s = Solver()
        for c in clauses:
            s.add_clause(c)
        assert s.solve()
        model = s.model()
        for c in clauses:
            assert any(model[abs(l)] == (l > 0) for l in c)

    def test_model_lit(self):
        s = Solver()
        s.add_clause([-4])
        assert s.solve()
        assert s.model_lit(-4) is True
        assert s.model_lit(4) is False
        with pytest.raises(KeyError):
            s.model_lit(99)

    def test_zero_literal_rejected(self):
        with pytest.raises(ValueError):
            Solver().add_clause([0])


class TestAssumptions:
    def test_assumption_forces_value(self):
        s = Solver()
        s.add_clause([1, 2])
        assert s.solve([-1])
        assert s.model()[2] is True

    def test_conflicting_assumptions_unsat(self):
        s = Solver()
        s.add_clause([1, 2])
        assert not s.solve([-1, -2])

    def test_assumption_contradicting_formula(self):
        s = Solver()
        s.add_clause([1])
        assert not s.solve([-1])
        assert s.solve()  # still SAT without the assumption

    def test_incremental_clause_addition(self):
        s = Solver()
        s.add_clause([1, 2])
        assert s.solve([-2])
        s.add_clause([-1])
        assert not s.solve([-2])
        assert s.solve()
        assert s.model()[2] is True

    def test_repeated_solves_consistent(self):
        s = Solver()
        s.add_clause([1, 2, 3])
        for _ in range(5):
            assert s.solve([-1])
            assert s.solve([-1, -2])
            assert not s.solve([-1, -2, -3])

    def test_unsat_without_assumptions_stays_unsat(self):
        """A conflict at decision level 0 refutes the formula itself: the
        next call must not search past the falsified clause."""
        s = Solver()
        for clause in ([2, -1], [-1, 1], [-1, 1, 1, 1], [-1, 1, 1],
                       [1, 1, -2], [2, 1], [-2, -1]):
            assert s.add_clause(clause)
        assert not s.solve()
        assert not s.solve()
        assert not s.solve([1])


class TestHardInstances:
    @pytest.mark.parametrize("holes", [3, 4, 5, 6])
    def test_pigeonhole_unsat(self, holes):
        pigeons = holes + 1
        s = Solver()
        var = lambda p, h: p * holes + h + 1
        for p in range(pigeons):
            s.add_clause([var(p, h) for h in range(holes)])
        for h in range(holes):
            for p1 in range(pigeons):
                for p2 in range(p1 + 1, pigeons):
                    s.add_clause([-var(p1, h), -var(p2, h)])
        assert not s.solve()
        assert s.num_conflicts > 0

    def test_php_sat_when_enough_holes(self):
        holes, pigeons = 5, 5
        s = Solver()
        var = lambda p, h: p * holes + h + 1
        for p in range(pigeons):
            s.add_clause([var(p, h) for h in range(holes)])
        for h in range(holes):
            for p1 in range(pigeons):
                for p2 in range(p1 + 1, pigeons):
                    s.add_clause([-var(p1, h), -var(p2, h)])
        assert s.solve()

    def test_xor_chain(self):
        """Parity constraint chain: forces propagation through many vars."""
        cnf = CNF()
        n = 20
        prev = cnf.new_var()
        cnf.add_clause([prev])  # x0 = 1
        for _ in range(n):
            nxt = cnf.new_var()
            out = cnf.new_var()
            cnf.add_clause([nxt])
            cnf.add_xor(out, prev, nxt)
            prev = out
        s = Solver()
        s.add_cnf(cnf)
        assert s.solve()
        # parity of 1 ^ 1 ^ 1 ... alternates; just check model consistency
        model = s.model()
        assert model[1] is True


@active_profile(min_examples=150)
@given(
    num_vars=st.integers(1, 7),
    data=st.data(),
)
def test_fuzz_against_brute_force(num_vars, data):
    num_clauses = data.draw(st.integers(1, 24))
    clauses = []
    for _ in range(num_clauses):
        width = data.draw(st.integers(1, 3))
        clause = [
            data.draw(st.integers(1, num_vars))
            * data.draw(st.sampled_from([1, -1]))
            for _ in range(width)
        ]
        clauses.append(clause)
    expected = brute_force(num_vars, clauses)
    s = Solver()
    ok = True
    for c in clauses:
        ok = s.add_clause(c) and ok
    got = ok and s.solve()
    assert got == (expected is not None)
    if got:
        model = s.model()
        for c in clauses:
            assert any(model[abs(l)] == (l > 0) for l in c)


@active_profile(min_examples=50)
@given(data=st.data())
def test_fuzz_assumptions(data):
    num_vars = data.draw(st.integers(2, 6))
    num_clauses = data.draw(st.integers(1, 15))
    clauses = []
    for _ in range(num_clauses):
        width = data.draw(st.integers(1, 3))
        clauses.append(
            [
                data.draw(st.integers(1, num_vars))
                * data.draw(st.sampled_from([1, -1]))
                for _ in range(width)
            ]
        )
    assumptions = [
        v * data.draw(st.sampled_from([1, -1]))
        for v in data.draw(
            st.lists(st.integers(1, num_vars), unique=True, max_size=3)
        )
    ]
    expected = brute_force(num_vars, clauses + [[a] for a in assumptions])
    s = Solver()
    ok = True
    for c in clauses:
        ok = s.add_clause(c) and ok
    got = ok and s.solve(assumptions)
    assert got == (expected is not None)
