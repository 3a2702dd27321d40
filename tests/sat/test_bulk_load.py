"""``Solver.add_cnf`` against loading the same clauses one at a time.

:meth:`~repro.sat.Solver.add_cnf` is the miter's only way into the
solver, so its bulk load must leave the solver exactly as allocating
``cnf.num_vars`` variables and then calling
:meth:`~repro.sat.Solver.add_clause` per clause does: the same return
value, variables and problem clauses, and then the same answer, model,
search counts and learned clauses.  The property draws the cases the
clause filter treats specially (tautologies, repeated literals, units,
an empty clause) and adds a second batch after a first solve, when
some literals are fixed at level 0, as the SAT attack's DIP pins are.

The pigeonhole pin runs one long search through the bulk load: Luby
restarts and learned-clause reductions, which none of the pinned
attack searches (``tests/attacks/test_search_pinned.py``) reaches.
"""

from hypothesis import given, strategies as st
from hypothesis_profiles import active_profile

from repro.sat import CNF, Solver

#: Variables of the first batch; the second may add up to 4 more.
MAX_VARS = 8


def one_at_a_time(solver, cnf):
    """Load *cnf* the reference way: allocate, then one clause a call."""
    while solver.num_vars < cnf.num_vars:
        solver.new_var()
    ok = True
    for clause in cnf.clauses:
        ok = solver.add_clause(clause) and ok
    return ok


@st.composite
def batches(draw, first_var, num_vars):
    """A CNF over variables 1..*num_vars* whose fresh variables start
    at *first_var*: plain clauses, units, tautologies, clauses with a
    repeated literal and, in one batch of four, an empty clause."""
    literal = st.builds(
        lambda var, sign: var * sign,
        st.integers(1, num_vars), st.sampled_from([1, -1]),
    )
    cnf = CNF(num_vars=first_var - 1)
    clauses = []
    for _ in range(draw(st.integers(0, 30))):
        clause = draw(st.lists(literal, min_size=1, max_size=4))
        shape = draw(st.sampled_from(
            ["plain", "plain", "unit", "tautology", "repeated"]
        ))
        if shape == "unit":
            clause = clause[:1]
        elif shape == "tautology":
            clause.insert(draw(st.integers(0, len(clause))), -clause[0])
        elif shape == "repeated":
            clause.append(draw(st.sampled_from(clause)))
        clauses.append(clause)
    if draw(st.integers(0, 3)) == 0:
        clauses.insert(draw(st.integers(0, len(clauses))), [])
    cnf.extend(clauses)
    return cnf


def searched(solver):
    """Solve, and everything the search leaves observable."""
    sat = solver.solve()
    return (sat, solver.model() if sat else None, solver.num_conflicts,
            solver.num_decisions, solver.num_propagations,
            solver.export_learned())


@active_profile()
@given(data=st.data())
def test_bulk_load_matches_one_clause_at_a_time(data):
    bulk, reference = Solver(), Solver()
    first_var = 1
    for grow in (0, 4):
        num_vars = data.draw(st.integers(max(1, first_var - 1),
                                         MAX_VARS + grow))
        cnf = data.draw(batches(first_var, num_vars))
        assert bulk.add_cnf(cnf) == one_at_a_time(reference, cnf)
        assert (bulk.num_vars, bulk.num_clauses) == (
            reference.num_vars, reference.num_clauses)
        assert searched(bulk) == searched(reference)
        first_var = bulk.num_vars + 1


def test_level_zero_filter():
    """What the one clause filter keeps, worked out by hand: a
    tautology and a clause true at level 0 are dropped, repeated and
    false literals left out, and each unit is fixed and propagated as
    it comes, so later clauses see its implications."""
    clauses = [[-1, 2], [3, -3, 4], [5, 5, 6], [1], [-2, 3, 7], [2, 8],
               [-7, -7]]
    for load in (Solver.add_cnf, one_at_a_time):
        cnf = CNF()
        cnf.extend(clauses)
        solver = Solver()
        assert load(solver, cnf)
        # kept: [-1, 2], [5, 6] and [3, 7]; [1] implies 2, which drops
        # [2, 8] and shortens [-2, 3, 7]; [-7] then implies 3
        assert solver.num_clauses == 3
        assert solver.export_learned() == [(1,), (2,), (-7,), (3,)]
        # [-3] is false at level 0: the empty clause, UNSAT
        conflicting = CNF()
        conflicting.add_clause([-3])
        assert not load(solver, conflicting)
        assert (solver.num_vars, solver.num_clauses) == (8, 3)


def test_pigeonhole_search_is_pinned():
    """PHP(8, 7) through ``add_cnf``: UNSAT after exactly this search."""
    holes, pigeons = 7, 8
    cnf = CNF()

    def var(p, h):
        return p * holes + h + 1

    for p in range(pigeons):
        cnf.add_clause([var(p, h) for h in range(holes)])
    for h in range(holes):
        for p1 in range(pigeons):
            for p2 in range(p1 + 1, pigeons):
                cnf.add_clause([-var(p1, h), -var(p2, h)])
    solver = Solver()
    assert solver.add_cnf(cnf)
    assert not solver.solve()
    assert (solver.num_conflicts, solver.num_decisions,
            solver.num_propagations) == (3649, 4497, 44533)
