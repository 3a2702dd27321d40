"""The solver's order heap: one live entry per variable, and the same
decisions as a lazy heap.

:class:`~repro.sat.Solver` keeps, per variable, the key of its freshest
heap entry, pushes a variable on backtrack only when no live entry
holds its current activity, and rebuilds the heap at each activity
rescale and whenever it would outgrow ``_HEAP_SLACK`` (2) entries per
variable.  A lazy heap instead pushes every variable it unassigns and
skips entries of assigned variables at pop time.  Since only assigned
variables are bumped, both pick the unassigned variable of highest
activity, lowest index on ties, until the first rescale.

Checked here: after every backtrack every unassigned variable has a
live entry at its current activity and the heap is within its bound
(on PHP(8, 7), whose pinned search ends with 42 entries for 56
variables, after 303 rebuilds at the bound of 112, where the lazy heap
ended with 46,439; and on random 3-SAT); every decision on random 3-SAT
picks that variable; and a forced rescale rebuilds the heap with each
unassigned variable once and leaves the answers brute force gives.
"""

import itertools
import random

from hypothesis import given, strategies as st
from hypothesis_profiles import active_profile

from repro.sat import CNF, Solver
from repro.sat.solver import _HEAP_SLACK, _NO_ENTRY


def unassigned(solver):
    return [var for var in range(solver.num_vars)
            if solver._values[2 * var] == 2]


def assert_heap_invariant(solver):
    """Every unassigned variable has a live entry at its current
    activity, the heap is within its bound, and a variable whose
    record is clear has no live entry."""
    order = solver._order
    assert len(order) <= _HEAP_SLACK * solver.num_vars
    entries = set(order)
    for var in unassigned(solver):
        key = -solver._activity[var]
        assert solver._heap_key[var] == key, var
        assert (key, var) in entries, var
    for var in range(solver.num_vars):
        if solver._heap_key[var] != _NO_ENTRY:
            assert (solver._heap_key[var], var) in entries, var


class CheckedSolver(Solver):
    """A solver that checks the heap after every backtrack and records,
    per decision, the variable decided and the unassigned variable of
    highest activity (lowest index on ties) it should have been."""

    def __init__(self):
        super().__init__()
        self.picks = []
        self.rebuilds = []
        self.peak_heap = 0
        self._decisions_seen = 0

    def _cancel_until(self, level):
        super()._cancel_until(level)
        assert_heap_invariant(self)
        self.peak_heap = max(self.peak_heap, len(self._order))

    def _rebuild_order(self):
        super()._rebuild_order()
        self.rebuilds.append(sorted(var for _key, var in self._order))
        assert self.rebuilds[-1] == unassigned(self)

    def _propagate(self):
        if self.num_decisions != self._decisions_seen:
            # a decision was just enqueued: the trail's last literal
            self._decisions_seen = self.num_decisions
            decided = self._trail[-1] >> 1
            candidates = unassigned(self) + [decided]
            best = max(candidates,
                       key=lambda var: (self._activity[var], -var))
            self.picks.append((decided, best))
        return super()._propagate()


def pigeonhole(pigeons, holes):
    cnf = CNF()

    def var(p, h):
        return p * holes + h + 1

    for p in range(pigeons):
        cnf.add_clause([var(p, h) for h in range(holes)])
    for h in range(holes):
        for p1 in range(pigeons):
            for p2 in range(p1 + 1, pigeons):
                cnf.add_clause([-var(p1, h), -var(p2, h)])
    return cnf


def brute_sat(num_vars, clauses):
    return any(
        all(any(bits[abs(lit) - 1] == (lit > 0) for lit in clause)
            for clause in clauses)
        for bits in itertools.product([False, True], repeat=num_vars)
    )


def test_pigeonhole_heap_stays_bounded():
    """PHP(8, 7): UNSAT after the pinned search, the heap within its
    bound after every backtrack, every decision the best unassigned
    variable, and no rescale on the way."""
    solver = CheckedSolver()
    assert solver.add_cnf(pigeonhole(8, 7))
    assert not solver.solve()
    assert (solver.num_conflicts, solver.num_decisions) == (3649, 4497)
    assert solver.num_rescales == 0
    assert len(solver.picks) == 4497
    assert all(decided == best for decided, best in solver.picks)
    assert solver.peak_heap <= _HEAP_SLACK * 56
    assert len(solver._order) <= _HEAP_SLACK * 56
    # rebuilds for size alone keep the same search
    assert solver.rebuilds


def test_forced_rescale_rebuilds_the_heap():
    """An activity increment just under the rescale threshold makes the
    first bumps rescale: each rescale rebuilds the heap with each
    unassigned variable once (checked in ``_rebuild_order``), and the
    answer is brute force's."""
    cnf = pigeonhole(4, 3)
    solver = CheckedSolver()
    solver.add_cnf(cnf)
    solver._var_inc = 5e99
    assert not solver.solve()
    assert not brute_sat(cnf.num_vars, cnf.clauses)
    assert solver.num_rescales >= 1
    assert len(solver.rebuilds) >= solver.num_rescales


@st.composite
def random_3sat(draw, min_vars=6, max_vars=30):
    """A uniform random 3-SAT formula at 3.5-5 clauses per variable,
    around the satisfiability threshold, where the search meets
    conflicts and the activities part."""
    num_vars = draw(st.integers(min_vars, max_vars))
    ratio = draw(st.floats(3.5, 5.0))
    rng = random.Random(draw(st.integers(0, 2 ** 32)))
    return num_vars, [
        [var * rng.choice((1, -1))
         for var in rng.sample(range(1, num_vars + 1), 3)]
        for _ in range(round(ratio * num_vars))
    ]


def satisfies(model, clauses):
    return all(any(model[abs(lit)] == (lit > 0) for lit in clause)
               for clause in clauses)


@active_profile()
@given(cnf=random_3sat(), data=st.data())
def test_each_decision_is_the_best_unassigned_variable(cnf, data):
    """On random 3-SAT, solved three times under random assumptions
    without a rescale, each decision picks the unassigned variable of
    highest activity, lowest index on ties: exactly what a lazy heap
    that re-pushes every unassigned variable picks."""
    num_vars, clauses = cnf
    solver = CheckedSolver()
    formula = CNF(num_vars)
    formula.extend(clauses)
    solver.add_cnf(formula)
    literal = st.builds(lambda var, sign: var * sign,
                        st.integers(1, num_vars), st.sampled_from([1, -1]))
    for _ in range(3):
        assumptions = data.draw(st.lists(literal, max_size=3))
        if solver.solve(assumptions):
            model = solver.model()
            assert satisfies(model, clauses)
            assert all(model[abs(lit)] == (lit > 0) for lit in assumptions)
    assert solver.num_rescales == 0
    assert all(decided == best for decided, best in solver.picks)


@active_profile()
@given(cnf=random_3sat(max_vars=12),
       increment=st.sampled_from([9e98, 5e99, 9e99]))
def test_forced_rescales_keep_the_answer(cnf, increment):
    """With an activity increment near the rescale threshold (about two
    in five of these draws rescale), the heap invariant holds after
    every backtrack and rebuild, and the answer (and any model) agrees
    with brute force."""
    num_vars, clauses = cnf
    solver = CheckedSolver()
    formula = CNF(num_vars)
    formula.extend(clauses)
    solver.add_cnf(formula)
    solver._var_inc = increment
    sat = solver.solve()
    assert sat == brute_sat(num_vars, clauses)
    if sat:
        assert satisfies(solver.model(), clauses)
