"""A CDCL SAT solver.

The SAT attack [11] needs an incremental SAT solver, and no solver
package is installable in this offline environment, so the repo carries
its own: a MiniSat-style conflict-driven clause-learning solver with

* two-watched-literal unit propagation,
* first-UIP conflict analysis with reason-side clause minimization,
* VSIDS variable activities with phase saving, decided from an order
  heap that holds one live entry per variable,
* Luby-sequence restarts, and
* periodic learned-clause database reduction.

The public interface speaks DIMACS-style signed literals (``+v`` /
``-v``) and supports incremental use: clauses may be added between
:meth:`Solver.solve` calls, and solving under *assumptions* is
supported (the SAT attack uses both).  :meth:`Solver.add_cnf` loads a
whole :class:`~repro.sat.cnf.CNF` in one pass (every new variable
allocated at once, literals mapped inline) and leaves the solver as
one :meth:`Solver.add_clause` per clause would.

This is a general-purpose solver; it is deliberately independent of the
netlist layer (see :mod:`repro.sat.tseitin` for the bridge).
"""

from __future__ import annotations

import heapq
import time
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from ..obs import context as _obs
from ..obs.spans import trace_span
from .cnf import CNF

__all__ = ["Solver", "luby"]

_UNASSIGNED = 2  # literal values: 1 true, 0 false, 2 unassigned

#: Search constants: restart after 100 x luby(i) conflicts, and the
#: MiniSat-style VSIDS activity decays for variables and clauses.
_RESTART_BASE = 100
_VAR_DECAY = 0.95
_CLAUSE_DECAY = 0.999

#: The order heap is rebuilt once it would hold more than this many
#: entries per variable (dead entries pile up between rebuilds).
_HEAP_SLACK = 2
#: The heap-key record of a variable without a live heap entry: keys
#: are negated activities, never positive.
_NO_ENTRY = 1.0


def luby(index: int) -> int:
    """The Luby restart sequence: 1 1 2 1 1 2 4 1 1 2 1 1 2 4 8 ...

    *index* is 1-based (``luby(1) == 1``).
    """
    if index < 1:
        raise ValueError("luby index is 1-based")
    x = index - 1
    size, level = 1, 0
    while size < x + 1:
        level += 1
        size = 2 * size + 1
    while size - 1 != x:
        size = (size - 1) // 2
        level -= 1
        x %= size
    return 1 << level


class _Clause:
    """A clause; the first two literals are the watched ones."""

    __slots__ = ("lits", "learnt", "activity")

    def __init__(self, lits: List[int], learnt: bool) -> None:
        self.lits = lits
        self.learnt = learnt
        self.activity = 0.0


class Solver:
    """Incremental CDCL solver over DIMACS-style integer literals.

    Internally a literal is ``2 * var + sign`` over 0-based variables,
    and ``_values`` holds one truth value per internal literal (1 true,
    0 false, 2 unassigned; ``_values[2 * var]`` is the variable's).

    The order heap holds ``(-activity, var)`` entries; ``_heap_key[var]``
    is the key of the variable's live (freshest) entry, or
    ``_NO_ENTRY``, and any other entry of it is dead and skipped when
    it pops.  Every unassigned variable has a live entry at its current
    activity: a backtrack pushes only variables without one, and the
    heap is rebuilt at each activity rescale and whenever it would
    outgrow ``_HEAP_SLACK`` entries per variable.  Since only
    assigned variables are bumped, a decision picks the unassigned
    variable of highest activity, lowest index on ties (DESIGN.md
    section 11, "One heap entry per variable").
    """

    def __init__(self) -> None:
        self._num_vars = 0
        self._clauses: List[_Clause] = []
        self._learnts: List[_Clause] = []
        #: per internal literal: list of (blocker, clause) watch entries;
        #: a true blocker lets propagation skip the clause entirely
        self._watches: List[List[Tuple[int, _Clause]]] = []
        self._values: List[int] = []  # per internal literal: 1/0/2
        #: per var: the literal a decision on it assigns (phase saving:
        #: its last value, false at first)
        self._phase: List[int] = []
        self._level: List[int] = []
        self._reason: List[Optional[_Clause]] = []
        self._activity: List[float] = []
        self._var_inc = 1.0
        self._var_decay = 1.0 / _VAR_DECAY
        self._cla_inc = 1.0
        self._cla_decay = 1.0 / _CLAUSE_DECAY
        self._trail: List[int] = []
        self._trail_lim: List[int] = []
        self._qhead = 0
        self._order: List[Tuple[float, int]] = []  # min-heap of (-act, var)
        self._heap_key: List[float] = []  # per var: its live entry's key
        self._unsat = False
        self._model: Dict[int, bool] = {}
        self.num_conflicts = 0
        self.num_decisions = 0
        self.num_propagations = 0
        self.num_learned = 0  # clauses ever learned (survives _reduce_db)
        self.num_imported = 0  # clauses accepted via import_clauses
        self.num_solve_calls = 0
        self.num_restarts = 0
        self.num_rescales = 0  # variable-activity rescales
        self.num_reduced = 0  # learned clauses _reduce_db deleted
        #: warm-start clauses held for import at the first solve (see
        #: :meth:`seed_clauses`)
        self._seeded: List[Tuple[int, ...]] = []
        #: variable count at the first solve: the base encoding's extent
        self._base_vars: Optional[int] = None

    # ------------------------------------------------------------------
    # Variables and literals
    # ------------------------------------------------------------------

    def new_var(self) -> int:
        """Allocate and return the next variable (1-based)."""
        self._allocate(self._num_vars + 1)
        return self._num_vars

    def _allocate(self, num_vars: int) -> None:
        """Allocate variables up to *num_vars*, all at once.

        Each new ``(0.0, var)`` entry ranks at or after every entry the
        order heap holds (activities are never negative, and the new
        variables are the highest), so appending them in order keeps
        the heap invariant and pushes exactly as ``heappush`` would.
        """
        old = self._num_vars
        count = num_vars - old
        if count <= 0:
            return
        self._num_vars = num_vars
        self._values.extend([_UNASSIGNED] * (2 * count))
        self._phase.extend(range(2 * old + 1, 2 * num_vars, 2))
        self._level.extend([0] * count)
        self._reason.extend([None] * count)
        self._activity.extend([0.0] * count)
        self._watches.extend([] for _ in range(2 * count))
        self._order.extend((0.0, var) for var in range(old, num_vars))
        self._heap_key.extend([0.0] * count)

    @property
    def num_vars(self) -> int:
        return self._num_vars

    @property
    def num_clauses(self) -> int:
        """Problem (non-learned) clauses currently in the database."""
        return len(self._clauses)

    @property
    def num_learnt_clauses(self) -> int:
        """Learned clauses currently retained."""
        return len(self._learnts)

    @staticmethod
    def _to_internal(lit: int) -> int:
        var = abs(lit) - 1
        return 2 * var + (1 if lit < 0 else 0)

    @staticmethod
    def _to_external(ilit: int) -> int:
        var = (ilit >> 1) + 1
        return -var if ilit & 1 else var

    # ------------------------------------------------------------------
    # Clause management
    # ------------------------------------------------------------------

    def add_clause(self, literals: Iterable[int]) -> bool:
        """Add a clause; returns False if the formula became trivially UNSAT."""
        if self._unsat:
            return False
        clause = list(literals)
        if 0 in clause:
            raise ValueError("0 is not a literal")
        self._allocate(max(map(abs, clause), default=0))
        self._cancel_until(0)
        return self._add_clauses((clause,))

    def add_cnf(self, cnf: CNF) -> bool:
        """Add every clause of *cnf* in one pass.

        The same as allocating ``cnf.num_vars`` variables and calling
        :meth:`add_clause` per clause: the same clauses kept, literals
        fixed and watches set, in the same order.
        """
        self._allocate(cnf.num_vars)
        if self._unsat:
            return not cnf.clauses
        self._cancel_until(0)
        return self._add_clauses(cnf.clauses)

    def _add_clauses(self, clauses: Iterable[Sequence[int]]) -> bool:
        """Add *clauses* (over allocated variables) at level 0.

        Each clause is filtered as it comes: it is dropped if it is a
        tautology or has a literal true at level 0, and repeated
        literals and literals false at level 0 are left out.  What is
        left is the empty clause (the formula is UNSAT: stop and return
        False), a unit (fixed and propagated; a conflict is UNSAT too)
        or a clause watched on its first two literals.
        """
        values = self._values
        watches = self._watches
        problem = self._clauses
        for clause in clauses:
            lits: List[int] = []
            for lit in clause:
                # the internal literal (2 * var + sign)
                ilit = 2 * lit - 2 if lit > 0 else -2 * lit - 1
                value = values[ilit]
                if value == 2:
                    if ilit ^ 1 in lits:
                        break  # tautology
                    if ilit not in lits:
                        lits.append(ilit)
                elif value:
                    break  # satisfied at level 0
            else:
                if len(lits) > 1:
                    kept = _Clause(lits, learnt=False)
                    problem.append(kept)
                    watches[lits[0]].append((lits[1], kept))
                    watches[lits[1]].append((lits[0], kept))
                    continue
                if lits:
                    self._enqueue(lits[0], None)
                    if self._propagate() is None:
                        continue
                self._unsat = True
                return False
        return True

    # ------------------------------------------------------------------
    # Assignment trail and the order heap
    # ------------------------------------------------------------------

    def _enqueue(self, ilit: int, reason: Optional[_Clause]) -> None:
        """Make the unassigned literal *ilit* true at the current level."""
        values = self._values
        values[ilit] = 1
        values[ilit ^ 1] = 0
        var = ilit >> 1
        self._level[var] = len(self._trail_lim)
        self._reason[var] = reason
        self._trail.append(ilit)

    def _cancel_until(self, level: int) -> None:
        """Backtrack to *level*, pushing each unassigned variable that
        has no live heap entry at its current activity.  Reasons are
        left as they are: only an assigned variable's is ever read."""
        trail_lim = self._trail_lim
        if len(trail_lim) <= level:
            return
        trail = self._trail
        bound = trail_lim[level]
        undone = trail[bound:]
        del trail[bound:]
        del trail_lim[level:]
        self._qhead = bound
        values, phase = self._values, self._phase
        activity, heap_key = self._activity, self._heap_key
        pushes = []
        for ilit in undone:
            values[ilit] = values[ilit ^ 1] = _UNASSIGNED
            var = ilit >> 1
            phase[var] = ilit
            key = -activity[var]
            if heap_key[var] != key:
                heap_key[var] = key
                pushes.append((key, var))
        order = self._order
        if len(order) + len(pushes) > _HEAP_SLACK * self._num_vars:
            self._rebuild_order()
        else:
            for entry in pushes:
                heapq.heappush(order, entry)

    def _rebuild_order(self) -> None:
        """Refill the order heap (in place): one live entry per
        unassigned variable, at its current activity."""
        values, activity = self._values, self._activity
        heap_key = self._heap_key
        entries = []
        for var in range(self._num_vars):
            if values[2 * var] == _UNASSIGNED:
                key = heap_key[var] = -activity[var]
                entries.append((key, var))
            else:
                heap_key[var] = _NO_ENTRY
        heapq.heapify(entries)
        self._order[:] = entries

    # ------------------------------------------------------------------
    # Propagation
    # ------------------------------------------------------------------

    def _propagate(self) -> Optional[_Clause]:
        # The solver's hot loop: local aliases and one list read per
        # literal value buy a large constant factor in pure Python.
        values = self._values
        watches = self._watches
        trail = self._trail
        level = self._level
        reason = self._reason
        depth = len(self._trail_lim)
        start = qhead = self._qhead
        while qhead < len(trail):
            p = trail[qhead]
            qhead += 1
            false_lit = p ^ 1
            watchlist = watches[false_lit]
            i = j = 0
            n = len(watchlist)
            while i < n:
                entry = watchlist[i]
                i += 1
                if values[entry[0]] == 1:
                    watchlist[j] = entry  # satisfied via the blocker
                    j += 1
                    continue
                clause = entry[1]
                lits = clause.lits
                if lits[0] == false_lit:
                    lits[0] = lits[1]
                    lits[1] = false_lit
                first = lits[0]
                value = values[first]
                if value == 1:
                    watchlist[j] = (first, clause)
                    j += 1
                    continue
                for k in range(2, len(lits)):
                    lit_k = lits[k]
                    if values[lit_k]:  # true or unassigned: watch it
                        lits[1] = lit_k
                        lits[k] = false_lit
                        watches[lit_k].append((first, clause))
                        break
                else:
                    watchlist[j] = (first, clause)
                    j += 1
                    if value == 0:  # first is false: conflict
                        while i < n:
                            watchlist[j] = watchlist[i]
                            j += 1
                            i += 1
                        del watchlist[j:]
                        self.num_propagations += qhead - start
                        self._qhead = len(trail)
                        return clause
                    # Unit: enqueue `first` (inlined _enqueue).
                    values[first] = 1
                    values[first ^ 1] = 0
                    var = first >> 1
                    level[var] = depth
                    reason[var] = clause
                    trail.append(first)
            del watchlist[j:]
        self.num_propagations += qhead - start
        self._qhead = qhead
        return None

    # ------------------------------------------------------------------
    # Conflict analysis (first UIP)
    # ------------------------------------------------------------------

    def _analyze(self, conflict: _Clause) -> Tuple[List[int], int]:
        learnt: List[int] = [0]  # slot 0 for the asserting literal
        seen = [False] * self._num_vars
        level = self._level
        reason_of = self._reason
        trail = self._trail
        bump_var = self._bump_var
        current = len(self._trail_lim)
        counter = 0
        p: Optional[int] = None
        index = len(trail) - 1
        reason = conflict

        while True:
            if reason.learnt:
                self._bump_clause(reason)
            for q in reason.lits:
                if q == p:
                    continue
                var = q >> 1
                if not seen[var] and level[var] > 0:
                    seen[var] = True
                    bump_var(var)
                    if level[var] >= current:
                        counter += 1
                    else:
                        learnt.append(q)
            while not seen[trail[index] >> 1]:
                index -= 1
            p = trail[index]
            index -= 1
            seen[p >> 1] = False
            counter -= 1
            if counter == 0:
                break
            reason = reason_of[p >> 1]
            assert reason is not None
        learnt[0] = p ^ 1

        # Reason-side minimization: drop literals implied by the rest.
        marked = set(q >> 1 for q in learnt)
        kept = [learnt[0]]
        for q in learnt[1:]:
            reason = reason_of[q >> 1]
            if reason is None:
                kept.append(q)
                continue
            if all(
                (r >> 1) in marked or level[r >> 1] == 0
                for r in reason.lits
                if r != (q ^ 1)
            ):
                continue  # redundant
            kept.append(q)
        learnt = kept
        if len(learnt) > 1:
            backtrack_level = max(level[q >> 1] for q in learnt[1:])
        else:
            backtrack_level = 0
        return learnt, backtrack_level

    def _bump_var(self, var: int) -> None:
        activity = self._activity
        activity[var] += self._var_inc
        if activity[var] > 1e100:
            for i in range(self._num_vars):
                activity[i] *= 1e-100
            self._var_inc *= 1e-100
            self.num_rescales += 1
            self._rebuild_order()  # re-rank every entry by the new scale

    def _bump_clause(self, clause: _Clause) -> None:
        """Bump the learned *clause* (problem clauses have no activity)."""
        clause.activity += self._cla_inc
        if clause.activity > 1e20:
            for c in self._learnts:
                c.activity *= 1e-20
            self._cla_inc *= 1e-20

    def _record_learnt(self, lits: List[int]) -> None:
        self.num_learned += 1
        if len(lits) == 1:
            self._enqueue(lits[0], None)
            return
        # Watch the asserting literal and a literal from the backtrack level.
        best = max(range(1, len(lits)), key=lambda i: self._level[lits[i] >> 1])
        lits[1], lits[best] = lits[best], lits[1]
        clause = _Clause(lits, learnt=True)
        clause.activity = self._cla_inc
        self._learnts.append(clause)
        self._watches[lits[0]].append((lits[1], clause))
        self._watches[lits[1]].append((lits[0], clause))
        self._enqueue(lits[0], clause)

    def _reduce_db(self) -> None:
        """Throw away the less active half of the learned clauses."""
        self._learnts.sort(key=lambda c: c.activity)
        locked = {self._reason[ilit >> 1] for ilit in self._trail}
        keep: List[_Clause] = []
        drop = set()
        half = len(self._learnts) // 2
        for i, clause in enumerate(self._learnts):
            if i < half and clause not in locked and len(clause.lits) > 2:
                drop.add(id(clause))
            else:
                keep.append(clause)
        if not drop:
            return
        self.num_reduced += len(drop)
        self._learnts = keep
        for watchlist in self._watches:
            watchlist[:] = [
                entry for entry in watchlist if id(entry[1]) not in drop
            ]

    # ------------------------------------------------------------------
    # Main search
    # ------------------------------------------------------------------

    def solve(self, assumptions: Sequence[int] = ()) -> bool:
        """Solve the current formula under *assumptions*.

        Returns True (SAT; see :meth:`model`) or False (UNSAT under the
        assumptions).
        """
        self.num_solve_calls += 1
        if self._base_vars is None:
            # Everything added so far is the base encoding, which the
            # seeded clauses were persisted against.
            self._base_vars = self._num_vars
            self.import_clauses(self._seeded)
        if _obs.ACTIVE is None:  # observability off: zero-overhead path
            return self._solve(assumptions)
        return self._solve_observed(assumptions)

    #: the counters a solve call reports as per-call deltas: (span
    #: field, solver attribute, ``sat.solver.*`` registry counter)
    _COUNTERS = (
        ("decisions", "num_decisions", "decisions"),
        ("conflicts", "num_conflicts", "conflicts"),
        ("propagations", "num_propagations", "propagations"),
        ("learned", "num_learned", "learned_clauses"),
        ("restarts", "num_restarts", "restarts"),
        ("rescales", "num_rescales", "rescales"),
        ("reduced", "num_reduced", "reduced_clauses"),
    )

    def _solve_observed(self, assumptions: Sequence[int]) -> bool:
        """:meth:`_solve` wrapped in a span + per-call counter deltas.

        Besides the search counts the span reports ``restarts``,
        ``rescales`` (variable-activity rescales), ``reduced`` (learned
        clauses :meth:`_reduce_db` deleted), ``learnts_kept`` (learned
        clauses held at return) and ``level0_units`` (variables fixed
        at level 0); the registry counts the first three and gauges the
        last two.
        """
        before = [getattr(self, attr) for _, attr, _ in self._COUNTERS]
        t0 = time.perf_counter()
        with trace_span(
            "sat.solve", vars=self._num_vars, clauses=len(self._clauses),
            assumptions=len(assumptions),
        ) as span:
            sat = self._solve(assumptions)
            deltas = {
                field: getattr(self, attr) - old
                for (field, attr, _), old in zip(self._COUNTERS, before)
            }
            span.annotate(result="SAT" if sat else "UNSAT",
                          learnts_kept=len(self._learnts),
                          level0_units=len(self._trail), **deltas)
        session = _obs.ACTIVE
        if session is not None:
            registry = session.registry
            registry.counter("sat.solver.calls").inc()
            for field, _, metric in self._COUNTERS:
                registry.counter(f"sat.solver.{metric}").inc(deltas[field])
            registry.gauge("sat.solver.clauses").set(len(self._clauses))
            registry.gauge("sat.solver.learnts_kept").set(len(self._learnts))
            registry.gauge("sat.solver.level0_units").set(len(self._trail))
            registry.histogram("sat.solve.seconds").observe(
                time.perf_counter() - t0
            )
        return sat

    def _solve(self, assumptions: Sequence[int] = ()) -> bool:
        if self._unsat:
            return False
        self._cancel_until(0)
        if self._propagate() is not None:
            self._unsat = True
            return False
        internal_assumptions = []
        for lit in assumptions:
            self._allocate(abs(lit))
            internal_assumptions.append(self._to_internal(lit))

        values, phase = self._values, self._phase
        trail, trail_lim = self._trail, self._trail_lim
        level, reason = self._level, self._reason
        order, heap_key = self._order, self._heap_key  # refilled in place
        heappop = heapq.heappop
        propagate = self._propagate
        num_vars = self._num_vars
        restart_index = 1
        conflicts_until_restart = _RESTART_BASE * luby(restart_index)
        max_learnts = max(1000, len(self._clauses) // 3)
        conflict_count = 0
        root_level = 0  # decision levels consumed by the assumption prefix

        while True:
            conflict = propagate()
            if conflict is not None:
                self.num_conflicts += 1
                conflict_count += 1
                if len(trail_lim) <= root_level:
                    # Conflict inside/below the assumption prefix: UNSAT;
                    # at level 0 no assumption is involved, so for good
                    # (the trail keeps the conflict, and a later call
                    # would not propagate into it again).
                    if not trail_lim:
                        self._unsat = True
                    self._cancel_until(0)
                    return False
                learnt, backtrack_level = self._analyze(conflict)
                backtrack_level = max(backtrack_level, root_level)
                self._cancel_until(backtrack_level)
                self._record_learnt(learnt)
                self._var_inc *= self._var_decay
                self._cla_inc *= self._cla_decay
                if len(self._learnts) > max_learnts:
                    self._reduce_db()
                    max_learnts = int(max_learnts * 1.3)
                if conflict_count >= conflicts_until_restart:
                    conflict_count = 0
                    restart_index += 1
                    conflicts_until_restart = _RESTART_BASE * luby(
                        restart_index
                    )
                    self.num_restarts += 1
                    self._cancel_until(root_level)
                continue

            # Assumption prefix: one decision level per assumption.
            depth = len(trail_lim)
            if depth < len(internal_assumptions):
                ilit = internal_assumptions[depth]
                value = values[ilit]
                if value == 0:
                    self._cancel_until(0)
                    return False
                trail_lim.append(len(trail))
                root_level = depth + 1
                if value == _UNASSIGNED:
                    self._enqueue(ilit, None)
                continue

            if len(trail) == num_vars:  # every variable assigned: a model
                self._model = {
                    var: value == 1
                    for var, value in enumerate(values[::2], 1)
                }
                self._cancel_until(0)
                return True
            # Decide: pop to the first live entry of an unassigned
            # variable (the invariant guarantees one), then enqueue its
            # saved phase at a new level.
            while True:
                key, var = heappop(order)
                if heap_key[var] == key:
                    heap_key[var] = _NO_ENTRY
                    if values[2 * var] == _UNASSIGNED:
                        break
            self.num_decisions += 1
            trail_lim.append(len(trail))
            ilit = phase[var]
            values[ilit] = 1
            values[ilit ^ 1] = 0
            level[var] = depth + 1
            reason[var] = None
            trail.append(ilit)

    # ------------------------------------------------------------------
    # Clause export and cross-run warm starts
    # ------------------------------------------------------------------

    def export_learned(self, max_length: int = 8) -> List[Tuple[int, ...]]:
        """Short clauses *implied by the problem clauses*, external form.

        Exports the level-0 trail (facts unit-propagation has proven)
        as unit clauses, plus every retained learned clause of length
        <= *max_length*.  Soundness: learned clauses come from
        resolution over problem and previously learned clauses only —
        assumption literals enter a learned clause as literals, never
        as resolved-away facts, and level-0 literals (the only ones
        dropped during minimization) are themselves formula-implied.
        So every exported clause is a logical consequence of the
        clauses added so far and may be injected into any solver
        working on a superset of this formula.
        """
        exported: List[Tuple[int, ...]] = []
        bound = self._trail_lim[0] if self._trail_lim else len(self._trail)
        for ilit in self._trail[:bound]:
            exported.append((self._to_external(ilit),))
        for clause in self._learnts:
            if len(clause.lits) <= max_length:
                exported.append(
                    tuple(self._to_external(lit) for lit in clause.lits)
                )
        return exported

    def import_clauses(
        self, clauses: Iterable[Sequence[int]]
    ) -> int:
        """Add clauses exported from another solver; returns the count.

        Imported clauses enter the database as problem clauses (they
        are implied, so they can never flip a satisfiable formula to
        UNSAT — the certification suite checks exactly this), which
        also exempts them from learned-clause reduction: a clause
        worth shipping between solvers is worth keeping.
        """
        count = 0
        for clause in clauses:
            self.add_clause(clause)
            count += 1
        self.num_imported += count
        return count

    def seed_clauses(self, clauses: Iterable[Sequence[int]]) -> None:
        """Hold an earlier run's :meth:`persistable_clauses` for import
        at the first :meth:`solve`.

        Seeding allocates no variables: the clauses refer to the base
        encoding the caller is about to add, and encoders number new
        variables from :attr:`num_vars` up, so allocating here would
        shift that encoding past every seeded clause.
        """
        if self._base_vars is not None:
            raise ValueError("seed clauses before the first solve")
        self._seeded.extend(tuple(clause) for clause in clauses if clause)

    def persistable_clauses(self) -> List[Tuple[int, ...]]:
        """Seeded clauses plus :meth:`export_learned` (length <= 8) over
        the variables that existed at the first :meth:`solve` only.

        Those variables are the base encoding, for the SAT attack a
        deterministic function of the netlist; every later variable (a
        DIP constraint's auxiliaries) depends on this run's query
        sequence and would alias an unrelated variable in another run.
        Each kept clause is implied by the base encoding plus
        constraints that hold for this run's oracle, so a later run that
        builds the same base encoding against the same oracle may seed
        it soundly.
        """
        base = self._num_vars if self._base_vars is None else self._base_vars
        pool = dict.fromkeys(self._seeded + self.export_learned(8))
        return [
            clause for clause in pool
            if all(abs(lit) <= base for lit in clause)
        ]

    def model(self) -> Dict[int, bool]:
        """Variable -> truth value of the last satisfying assignment."""
        return dict(self._model)

    def model_lit(self, lit: int) -> bool:
        value = self._model.get(abs(lit))
        if value is None:
            raise KeyError(f"variable {abs(lit)} not in model")
        return value if lit > 0 else not value
