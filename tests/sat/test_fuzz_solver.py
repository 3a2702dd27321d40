"""Differential fuzzing of the CDCL solver against brute force.

Every property here runs the production :class:`~repro.sat.Solver`
against exhaustive enumeration on random CNFs small enough to
enumerate (<= 12 variables).  The answer properties run the one default
solver through six set-up paths (``CONFIGS``): a path may change *how*
the solver searches — duplicate clauses, clause and watch order, spare
decision variables, a seeded warm-start pool, state left by an earlier
solve — but never *what* it answers.

The certification half targets the clause-export contract warm starts
rely on: everything :meth:`Solver.export_learned` emits must be a
logical consequence of the problem clauses alone — checked by
enumeration — and importing exported clauses into another solver on
the same (or a grown) formula must never change satisfiability.

Example volume is governed by the ``tests/sat/conftest.py`` hypothesis
profiles (``HYPOTHESIS_PROFILE=ci`` -> 200+ examples per property).
"""

import itertools

import pytest
from hypothesis import given, strategies as st
from hypothesis_profiles import active_profile

from repro.sat import CNF, Solver

MAX_VARS = 12


def all_models(num_vars, clauses):
    """Every satisfying assignment, by exhaustive enumeration."""
    models = []
    for bits in itertools.product([False, True], repeat=num_vars):
        assignment = {v + 1: bits[v] for v in range(num_vars)}
        if all(
            any(assignment[abs(lit)] == (lit > 0) for lit in clause)
            for clause in clauses
        ):
            models.append(assignment)
    return models


def brute_sat(num_vars, clauses):
    for bits in itertools.product([False, True], repeat=num_vars):
        assignment = {v + 1: bits[v] for v in range(num_vars)}
        if all(
            any(assignment[abs(lit)] == (lit > 0) for lit in clause)
            for clause in clauses
        ):
            return assignment
    return None


@st.composite
def random_cnf(draw, max_vars=MAX_VARS, max_clauses=40, max_width=4):
    num_vars = draw(st.integers(1, max_vars))
    num_clauses = draw(st.integers(1, max_clauses))
    clauses = []
    for _ in range(num_clauses):
        width = draw(st.integers(1, max_width))
        clauses.append([
            draw(st.integers(1, num_vars))
            * draw(st.sampled_from([1, -1]))
            for _ in range(width)
        ])
    return num_vars, clauses


def build(clauses, solver=None):
    solver = Solver() if solver is None else solver
    ok = True
    for clause in clauses:
        ok = solver.add_clause(clause) and ok
    return solver, ok


def build_redundant(clauses):
    """Through ``add_cnf``, each clause twice, once with its literals
    doubled: duplicates reach the clause database and the watches."""
    cnf = CNF()
    cnf.extend(clause + clause[::-1] for clause in clauses)
    cnf.extend(clauses)
    solver = Solver()
    return solver, solver.add_cnf(cnf)


def build_reversed(clauses):
    """Clauses and their literals in reverse: other watches, other ties."""
    return build([clause[::-1] for clause in reversed(clauses)])


def build_with_spare_vars(clauses):
    """Unconstrained variables past the formula's enter the decisions."""
    solver = Solver()
    for _ in range(MAX_VARS + 4):
        solver.new_var()
    return build(clauses, solver)


def build_seeded(clauses):
    """A warm start: seeded with a donor's pool on the same formula."""
    donor, ok = build(clauses)
    solver = Solver()
    if ok:
        donor.solve()
        solver.seed_clauses(donor.persistable_clauses())
    return build(clauses, solver)


def build_half_solved(clauses):
    """The first half solved before the rest arrives, as in a miter."""
    cut = len(clauses) // 2
    solver, ok = build(clauses[:cut])
    if ok:
        solver.solve()
    solver, rest_ok = build(clauses[cut:], solver)
    return solver, ok and rest_ok


#: The set-up paths under test, all on the one default solver.  Ids
#: keep a failing path nameable in the CI log.
CONFIGS = {
    f"config{i}": builder
    for i, builder in enumerate([
        build, build_redundant, build_reversed, build_with_spare_vars,
        build_seeded, build_half_solved,
    ])
}


@pytest.mark.parametrize("name", sorted(CONFIGS))
@active_profile()
@given(cnf=random_cnf())
def test_every_config_agrees_with_brute_force(name, cnf):
    num_vars, clauses = cnf
    expected = brute_sat(num_vars, clauses)
    solver, ok = CONFIGS[name](clauses)
    got = ok and solver.solve()
    assert got == (expected is not None)
    if got:
        model = solver.model()
        for clause in clauses:
            assert any(model[abs(lit)] == (lit > 0) for lit in clause)


@pytest.mark.parametrize("name", sorted(CONFIGS))
@active_profile()
@given(cnf=random_cnf(max_vars=8, max_clauses=24), data=st.data())
def test_assumptions_certified_by_enumeration(name, cnf, data):
    """SAT and UNSAT answers under assumptions, both cross-checked.

    The UNSAT direction is the certification: when the solver rejects,
    enumeration confirms no assignment extends the assumptions — the
    final-answer analogue of the SAT attack's terminating UNSAT query.
    """
    num_vars, clauses = cnf
    assumptions = [
        var * data.draw(st.sampled_from([1, -1]))
        for var in data.draw(
            st.lists(st.integers(1, num_vars), unique=True, max_size=4)
        )
    ]
    expected = brute_sat(
        num_vars, clauses + [[lit] for lit in assumptions]
    )
    solver, ok = CONFIGS[name](clauses)
    got = ok and solver.solve(assumptions)
    assert got == (expected is not None)
    if got:
        model = solver.model()
        for lit in assumptions:
            assert model[abs(lit)] == (lit > 0)
    # The formula without assumptions must still answer correctly on
    # the same (incremental) solver afterwards.
    if ok:
        assert solver.solve() == (brute_sat(num_vars, clauses) is not None)


@active_profile()
@given(cnf=random_cnf(max_vars=10), data=st.data())
def test_incremental_addition_matches_batch(cnf, data):
    """Clauses added across solve calls answer like a batch solver."""
    num_vars, clauses = cnf
    cut = data.draw(st.integers(0, len(clauses)))
    solver, ok = build(clauses[:cut])
    if ok:
        assert solver.solve() == (
            brute_sat(num_vars, clauses[:cut]) is not None
        )
    for clause in clauses[cut:]:
        ok = solver.add_clause(clause) and ok
    got = ok and solver.solve()
    assert got == (brute_sat(num_vars, clauses) is not None)


@active_profile()
@given(cnf=random_cnf(max_vars=9, max_clauses=30))
def test_exported_clauses_are_implied(cnf):
    """Everything export_learned emits is implied by the formula.

    Implication is checked semantically: every model (by enumeration)
    of the problem clauses satisfies every exported clause.  This is
    the soundness condition that makes cross-solver injection and
    cross-run warm starts valid.
    """
    num_vars, clauses = cnf
    solver, ok = build(clauses)
    if not ok:
        return  # root-level contradiction: nothing to export
    solver.solve()
    exported = solver.export_learned(max_length=8)
    models = all_models(num_vars, clauses)
    for clause in exported:
        for model in models:
            assert any(
                model[abs(lit)] == (lit > 0)
                for lit in clause
                if abs(lit) in model
            ), f"exported clause {clause} not implied"


@active_profile()
@given(cnf=random_cnf(max_vars=10), data=st.data())
def test_import_never_changes_satisfiability(cnf, data):
    """Injecting exports mid-growth never flips the answer.

    Models a warm start's clause flow: solve a prefix of the formula,
    export learned clauses, import them into a fresh solver that then
    receives the *rest* of the formula (the monotone-growth pattern of
    the SAT attack's miter).  The grown formula's answer
    must match brute force — imported clauses may only prune search,
    never models.
    """
    num_vars, clauses = cnf
    cut = data.draw(st.integers(1, len(clauses)))
    donor, ok = build(clauses[:cut])
    if not ok:
        return
    donor.solve()
    exported = donor.export_learned(max_length=8)

    receiver, ok = build(clauses[:cut])
    if ok:
        receiver.import_clauses(exported)
        assert receiver.num_imported == len(exported)
    for clause in clauses[cut:]:
        ok = receiver.add_clause(clause) and ok
    got = ok and receiver.solve()
    assert got == (brute_sat(num_vars, clauses) is not None)
    if got:
        model = receiver.model()
        for clause in clauses:
            assert any(model[abs(lit)] == (lit > 0) for lit in clause)


@pytest.mark.parametrize("name", sorted(CONFIGS))
@active_profile()
@given(cnf=random_cnf(max_vars=8, max_clauses=20))
def test_unsat_certified_under_every_config(name, cnf):
    """UNSAT answers are certified: enumeration finds no model."""
    num_vars, clauses = cnf
    solver, ok = CONFIGS[name](clauses)
    got = ok and solver.solve()
    if not got:
        assert brute_sat(num_vars, clauses) is None
