"""A CDCL SAT solver.

The SAT attack [11] needs an incremental SAT solver, and no solver
package is installable in this offline environment, so the repo carries
its own: a MiniSat-style conflict-driven clause-learning solver with

* two-watched-literal unit propagation,
* first-UIP conflict analysis with reason-side clause minimization,
* VSIDS variable activities with phase saving,
* Luby-sequence restarts, and
* periodic learned-clause database reduction.

The public interface speaks DIMACS-style signed literals (``+v`` /
``-v``) and supports incremental use: clauses may be added between
:meth:`Solver.solve` calls, and solving under *assumptions* is
supported (the SAT attack uses both).

This is a general-purpose solver; it is deliberately independent of the
netlist layer (see :mod:`repro.sat.tseitin` for the bridge).
"""

from __future__ import annotations

import heapq
import time
from typing import Dict, Iterable, Iterator, List, Optional, Sequence, Tuple

from ..obs import context as _obs
from ..obs.spans import trace_span
from .cnf import CNF

__all__ = ["Solver", "luby"]

_UNASSIGNED = 2  # internal truth values: 1 true, 0 false, 2 unassigned

#: Search constants: restart after 100 x luby(i) conflicts, and the
#: MiniSat-style VSIDS activity decays for variables and clauses.
_RESTART_BASE = 100
_VAR_DECAY = 0.95
_CLAUSE_DECAY = 0.999


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
    """Incremental CDCL solver over DIMACS-style integer literals."""

    def __init__(self) -> None:
        self._num_vars = 0
        self._clauses: List[_Clause] = []
        self._learnts: List[_Clause] = []
        #: per internal literal: list of (blocker, clause) watch entries;
        #: a true blocker lets propagation skip the clause entirely
        self._watches: List[List[Tuple[int, _Clause]]] = []
        self._assigns: List[int] = []  # per var: 0/1/2
        self._polarity: List[int] = []  # phase saving, per var
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
        self._order: List[Tuple[float, int]] = []  # lazy max-heap of (-act, var)
        self._unsat = False
        self._model: Dict[int, bool] = {}
        self.num_conflicts = 0
        self.num_decisions = 0
        self.num_propagations = 0
        self.num_learned = 0  # clauses ever learned (survives _reduce_db)
        self.num_imported = 0  # clauses accepted via import_clauses
        self.num_solve_calls = 0
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
        self._num_vars += 1
        self._assigns.append(_UNASSIGNED)
        self._polarity.append(0)
        self._level.append(0)
        self._reason.append(None)
        self._activity.append(0.0)
        self._watches.append([])
        self._watches.append([])
        heapq.heappush(self._order, (0.0, self._num_vars - 1))
        return self._num_vars

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

    def _ensure_var(self, var: int) -> None:
        while self._num_vars < var:
            self.new_var()

    @staticmethod
    def _to_internal(lit: int) -> int:
        var = abs(lit) - 1
        return 2 * var + (1 if lit < 0 else 0)

    @staticmethod
    def _to_external(ilit: int) -> int:
        var = (ilit >> 1) + 1
        return -var if ilit & 1 else var

    def _lit_value(self, ilit: int) -> int:
        value = self._assigns[ilit >> 1]
        if value == _UNASSIGNED:
            return _UNASSIGNED
        return value ^ (ilit & 1)

    # ------------------------------------------------------------------
    # Clause management
    # ------------------------------------------------------------------

    def add_clause(self, literals: Iterable[int]) -> bool:
        """Add a clause; returns False if the formula became trivially UNSAT."""
        if self._unsat:
            return False
        self._cancel_until(0)
        seen = set()
        lits: List[int] = []
        rest = iter(literals)
        for lit in rest:
            if lit == 0:
                raise ValueError("0 is not a literal")
            self._ensure_var(abs(lit))
            ilit = self._to_internal(lit)
            if ilit ^ 1 in seen:
                return self._allocate_rest(rest)  # tautology
            if ilit in seen:
                continue
            value = self._lit_value(ilit)
            if value == 1:
                return self._allocate_rest(rest)  # satisfied at level 0
            if value == 0:
                continue  # falsified at level 0: drop literal
            seen.add(ilit)
            lits.append(ilit)
        if not lits:
            self._unsat = True
            return False
        if len(lits) == 1:
            self._enqueue(lits[0], None)
            if self._propagate() is not None:
                self._unsat = True
                return False
            return True
        clause = _Clause(lits, learnt=False)
        self._clauses.append(clause)
        self._watches[lits[0]].append((lits[1], clause))
        self._watches[lits[1]].append((lits[0], clause))
        return True

    def _allocate_rest(self, rest: Iterator[int]) -> bool:
        """Allocate the variables of a dropped clause's unread literals,
        so :meth:`model` covers every variable any clause named."""
        for lit in rest:
            self._ensure_var(abs(lit))
        return True

    def add_cnf(self, cnf: CNF) -> bool:
        self._ensure_var(cnf.num_vars)
        ok = True
        for clause in cnf.clauses:
            ok = self.add_clause(clause) and ok
        return ok

    # ------------------------------------------------------------------
    # Assignment trail
    # ------------------------------------------------------------------

    def _enqueue(self, ilit: int, reason: Optional[_Clause]) -> bool:
        value = self._lit_value(ilit)
        if value != _UNASSIGNED:
            return value == 1
        var = ilit >> 1
        self._assigns[var] = 1 - (ilit & 1)
        self._level[var] = self._decision_level()
        self._reason[var] = reason
        self._trail.append(ilit)
        return True

    def _decision_level(self) -> int:
        return len(self._trail_lim)

    def _cancel_until(self, level: int) -> None:
        if self._decision_level() <= level:
            return
        bound = self._trail_lim[level]
        for ilit in reversed(self._trail[bound:]):
            var = ilit >> 1
            self._polarity[var] = self._assigns[var]
            self._assigns[var] = _UNASSIGNED
            self._reason[var] = None
            # Lazy heap: re-push with the *current* activity.  Duplicate
            # entries are fine (stale ones are skipped at pop time) and
            # keeping priorities fresh is what makes VSIDS effective.
            heapq.heappush(self._order, (-self._activity[var], var))
        del self._trail[bound:]
        del self._trail_lim[level:]
        self._qhead = len(self._trail)

    # ------------------------------------------------------------------
    # Propagation
    # ------------------------------------------------------------------

    def _propagate(self) -> Optional[_Clause]:
        # The solver's hot loop: local aliases and inlined literal
        # valuation (value-of-lit == assigns[var] ^ sign, or 2 when
        # unassigned) buy a large constant factor in pure Python.
        assigns = self._assigns
        watches = self._watches
        trail = self._trail
        level = self._level
        reason = self._reason
        while self._qhead < len(trail):
            p = trail[self._qhead]
            self._qhead += 1
            self.num_propagations += 1
            false_lit = p ^ 1
            watchlist = watches[false_lit]
            i = j = 0
            n = len(watchlist)
            while i < n:
                entry = watchlist[i]
                i += 1
                blocker = entry[0]
                bvalue = assigns[blocker >> 1]
                if bvalue != 2 and bvalue ^ (blocker & 1) == 1:
                    watchlist[j] = entry  # satisfied via the blocker
                    j += 1
                    continue
                clause = entry[1]
                lits = clause.lits
                if lits[0] == false_lit:
                    lits[0], lits[1] = lits[1], lits[0]
                first = lits[0]
                value = assigns[first >> 1]
                if value != 2 and value ^ (first & 1) == 1:
                    watchlist[j] = (first, clause)
                    j += 1
                    continue
                moved = False
                for k in range(2, len(lits)):
                    lit_k = lits[k]
                    value_k = assigns[lit_k >> 1]
                    if value_k == 2 or value_k ^ (lit_k & 1) != 0:
                        lits[1] = lit_k
                        lits[k] = false_lit
                        watches[lit_k].append((first, clause))
                        moved = True
                        break
                if moved:
                    continue
                watchlist[j] = (first, clause)
                j += 1
                if value != 2:  # first is false: conflict
                    while i < n:
                        watchlist[j] = watchlist[i]
                        j += 1
                        i += 1
                    del watchlist[j:]
                    self._qhead = len(trail)
                    return clause
                # Unit: enqueue `first` (inlined _enqueue fast path).
                var = first >> 1
                assigns[var] = 1 - (first & 1)
                level[var] = len(self._trail_lim)
                reason[var] = clause
                trail.append(first)
            del watchlist[j:]
        return None

    # ------------------------------------------------------------------
    # Conflict analysis (first UIP)
    # ------------------------------------------------------------------

    def _analyze(self, conflict: _Clause) -> Tuple[List[int], int]:
        learnt: List[int] = [0]  # slot 0 for the asserting literal
        seen = [False] * self._num_vars
        counter = 0
        p: Optional[int] = None
        index = len(self._trail) - 1
        backtrack_level = 0
        reason = conflict

        while True:
            self._bump_clause(reason)
            for q in reason.lits:
                if p is not None and q == p:
                    continue
                var = q >> 1
                if not seen[var] and self._level[var] > 0:
                    seen[var] = True
                    self._bump_var(var)
                    if self._level[var] >= self._decision_level():
                        counter += 1
                    else:
                        learnt.append(q)
                        backtrack_level = max(backtrack_level, self._level[var])
            while not seen[self._trail[index] >> 1]:
                index -= 1
            p = self._trail[index]
            index -= 1
            seen[p >> 1] = False
            counter -= 1
            if counter == 0:
                break
            reason = self._reason[p >> 1]
            assert reason is not None
        learnt[0] = p ^ 1

        # Reason-side minimization: drop literals implied by the rest.
        marked = set(q >> 1 for q in learnt)
        kept = [learnt[0]]
        for q in learnt[1:]:
            reason = self._reason[q >> 1]
            if reason is None:
                kept.append(q)
                continue
            if all(
                (r >> 1) in marked or self._level[r >> 1] == 0
                for r in reason.lits
                if r != (q ^ 1)
            ):
                continue  # redundant
            kept.append(q)
        learnt = kept
        if len(learnt) > 1:
            backtrack_level = max(self._level[q >> 1] for q in learnt[1:])
        else:
            backtrack_level = 0
        return learnt, backtrack_level

    def _bump_var(self, var: int) -> None:
        self._activity[var] += self._var_inc
        if self._activity[var] > 1e100:
            for i in range(self._num_vars):
                self._activity[i] *= 1e-100
            self._var_inc *= 1e-100

    def _bump_clause(self, clause: _Clause) -> None:
        if not clause.learnt:
            return
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
        self._learnts = keep
        for watchlist in self._watches:
            watchlist[:] = [
                entry for entry in watchlist if id(entry[1]) not in drop
            ]

    # ------------------------------------------------------------------
    # Decisions
    # ------------------------------------------------------------------

    def _pick_branch_var(self) -> Optional[int]:
        while self._order:
            _neg_act, var = heapq.heappop(self._order)
            if self._assigns[var] == _UNASSIGNED:
                return var
        return None

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

    def _solve_observed(self, assumptions: Sequence[int]) -> bool:
        """:meth:`_solve` wrapped in a span + per-call counter deltas."""
        before = (self.num_decisions, self.num_conflicts,
                  self.num_propagations, self.num_learned)
        t0 = time.perf_counter()
        with trace_span(
            "sat.solve", vars=self._num_vars, clauses=len(self._clauses),
            assumptions=len(assumptions),
        ) as span:
            sat = self._solve(assumptions)
            decisions, conflicts, propagations, learned = (
                self.num_decisions - before[0],
                self.num_conflicts - before[1],
                self.num_propagations - before[2],
                self.num_learned - before[3],
            )
            span.annotate(result="SAT" if sat else "UNSAT",
                          decisions=decisions, conflicts=conflicts,
                          propagations=propagations, learned=learned)
        session = _obs.ACTIVE
        if session is not None:
            registry = session.registry
            registry.counter("sat.solver.calls").inc()
            registry.counter("sat.solver.decisions").inc(decisions)
            registry.counter("sat.solver.conflicts").inc(conflicts)
            registry.counter("sat.solver.propagations").inc(propagations)
            registry.counter("sat.solver.learned_clauses").inc(learned)
            registry.gauge("sat.solver.clauses").set(len(self._clauses))
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
            self._ensure_var(abs(lit))
            internal_assumptions.append(self._to_internal(lit))

        restart_index = 1
        conflicts_until_restart = _RESTART_BASE * luby(restart_index)
        max_learnts = max(1000, len(self._clauses) // 3)
        conflict_count = 0
        root_level = 0  # decision levels consumed by the assumption prefix

        while True:
            conflict = self._propagate()
            if conflict is not None:
                self.num_conflicts += 1
                conflict_count += 1
                if self._decision_level() <= root_level:
                    # Conflict inside/below the assumption prefix: UNSAT.
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
                    self._cancel_until(root_level)
                continue

            # Assumption prefix: one decision level per assumption.
            if self._decision_level() < len(internal_assumptions):
                ilit = internal_assumptions[self._decision_level()]
                value = self._lit_value(ilit)
                if value == 0:
                    self._cancel_until(0)
                    return False
                self._trail_lim.append(len(self._trail))
                root_level = self._decision_level()
                if value == _UNASSIGNED:
                    self._enqueue(ilit, None)
                continue

            var = self._pick_branch_var()
            if var is None:
                self._model = {
                    v + 1: self._assigns[v] == 1 for v in range(self._num_vars)
                }
                self._cancel_until(0)
                return True
            self.num_decisions += 1
            self._trail_lim.append(len(self._trail))
            ilit = 2 * var + (1 if self._polarity[var] == 0 else 0)
            self._enqueue(ilit, None)

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
