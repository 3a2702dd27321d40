"""Portfolio SAT: race diverse solver configurations, share clauses.

ManySAT-style portfolio solving for the repo's CDCL
(:class:`~repro.sat.solver.Solver`): N deterministic
:class:`~repro.sat.solver.SolverConfig` variants attack the same
formula in parallel processes, the first answer wins, and the losers
are cancelled.  Three compounding mechanisms:

* **Racing** — heuristic diversity (restart policy, VSIDS decay,
  polarity, randomized decisions) makes per-instance solve-time
  variance work *for* us: the portfolio's wall time is the per-call
  minimum over the member configurations *and* the persistent
  incremental delegate, which races along in the parent process as a
  "shadow" member.  Children are cold per race; the shadow carries
  learned clauses and VSIDS state across the whole attack, so the race
  can never lose to the serial solver by more than polling overhead —
  diversity is pure upside.
* **Clause sharing** — the winner's short learned clauses
  (:meth:`Solver.export_learned`) are harvested into a shared pool and
  injected into every member of the *next* race.  Because the SAT
  attack's miter grows monotonically (DIP constraints are only ever
  added), clauses implied at iteration i remain implied at iteration
  i+1, so injection is sound across the whole attack.
* **Warm starts** — the pool persists through the campaign's
  content-addressed cache (:func:`load_shared_clauses` /
  :func:`store_shared_clauses`), keyed by the attacked netlist and an
  oracle fingerprint, so attack run i+1 starts from the facts run i
  proved.  Only clauses over the *base* encoding's variables are
  persisted (:meth:`PortfolioSolver.persistable_clauses`): the base
  miter encoding is deterministic per netlist, while later variables
  (DIP-constraint auxiliaries) depend on the run's query sequence and
  would silently change meaning in another run.  Seeded clauses are
  imported by the incremental delegate as well as the race children —
  a previous run's distilled key-space prunings speed the shadow up
  directly, which is what makes warm starts pay off even on machines
  where process racing cannot (one core).

:class:`PortfolioSolver` is a drop-in for the incremental
:class:`Solver` everywhere the attacks use one (``add_cnf`` /
``solve(assumptions)`` / ``model`` / counter attributes).  It keeps
the accumulated clause list and replays it into fresh per-race child
solvers; the per-call cold start is what clause sharing amortizes.
Racing uses one pipe per child (first readable pipe wins — no shared
queue to corrupt when losers are terminated mid-write) and reuses the
campaign worker's SIGALRM deadline machinery inside each child.

Determinism contract: one configuration on one clause stream is
bit-reproducible (same model, same conflict/decision counts) in
process and across processes — :func:`solve_one` is the single code
path both sides run.  The *race* is deterministic in its answer
(SAT/UNSAT never varies; any returned model satisfies the formula)
but not in which member answers first.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import (
    Any, Dict, Iterable, List, Mapping, Optional, Sequence, Tuple,
)

from ..obs import metrics as _metrics
from ..obs.spans import trace_span
from .cnf import CNF
from .solver import Solver, SolverConfig

__all__ = [
    "PortfolioStats",
    "PortfolioSolver",
    "SolveOutcome",
    "SolverConfig",
    "default_portfolio",
    "solve_one",
    "load_shared_clauses",
    "store_shared_clauses",
    "shared_clause_key",
    "oracle_fingerprint",
]

#: Default cap on the length of clauses worth shipping between solvers.
DEFAULT_SHARE_MAX_LENGTH = 8

#: Default cap on the shared pool (clauses); oldest clauses are evicted
#: first — they were learned against the smallest formula and have had
#: the most races to prove their worth.
DEFAULT_SHARED_LIMIT = 4096


# ----------------------------------------------------------------------
# Configuration space
# ----------------------------------------------------------------------

#: The base diversification presets, in priority order.  Index 0 is the
#: serial solver's exact configuration so a 1-wide portfolio degrades
#: to the status quo; the rest vary one axis family each, the spread
#: portfolio solvers have converged on (restart aggressiveness, decay,
#: polarity, decision noise).
_PRESETS: Tuple[SolverConfig, ...] = (
    SolverConfig(),
    SolverConfig(restart="geometric", restart_base=64,
                 restart_factor=1.5, polarity="false"),
    SolverConfig(var_decay=0.85, restart_base=50, polarity="random",
                 random_decision_freq=0.02),
    SolverConfig(var_decay=0.99, restart="geometric", restart_base=128,
                 restart_factor=2.0, polarity="true"),
    SolverConfig(var_decay=0.92, clause_decay=0.995,
                 random_decision_freq=0.05, polarity="random"),
    SolverConfig(restart_base=32, polarity="saved",
                 random_decision_freq=0.01),
    SolverConfig(var_decay=0.8, restart="geometric", restart_base=100,
                 restart_factor=1.3, polarity="false",
                 random_decision_freq=0.03),
    SolverConfig(var_decay=0.97, restart_base=256, polarity="true",
                 random_decision_freq=0.01),
)


def default_portfolio(n: int, base_seed: int = 0) -> Tuple[SolverConfig, ...]:
    """*n* diverse deterministic configurations.

    Cycles the presets, bumping the RNG seed on each lap so lap k's
    randomized members explore different trajectories than lap 0's.
    """
    if n < 1:
        raise ValueError("portfolio size must be >= 1")
    configs = []
    for index in range(n):
        preset = _PRESETS[index % len(_PRESETS)]
        lap = index // len(_PRESETS)
        seed = base_seed + index if (
            lap or preset.random_decision_freq or preset.polarity == "random"
        ) else preset.seed
        configs.append(
            preset if seed == preset.seed
            else SolverConfig(**{**preset.__dict__, "seed": seed})
        )
    return tuple(configs)


# ----------------------------------------------------------------------
# One configuration, one formula: the deterministic unit of work
# ----------------------------------------------------------------------

@dataclass(frozen=True)
class SolveOutcome:
    """Everything one configuration's run on one formula produced."""

    sat: bool
    model: Tuple[Tuple[int, bool], ...]  # sorted (var, value); () if UNSAT
    num_conflicts: int
    num_decisions: int
    num_propagations: int
    learned: Tuple[Tuple[int, ...], ...]  # exported short clauses

    def model_dict(self) -> Dict[int, bool]:
        return dict(self.model)


def solve_one(
    clauses: Sequence[Sequence[int]],
    assumptions: Sequence[int],
    config: SolverConfig,
    *,
    shared: Sequence[Sequence[int]] = (),
    export_max_length: int = DEFAULT_SHARE_MAX_LENGTH,
    num_vars: int = 0,
) -> SolveOutcome:
    """Solve *clauses* (+ injected *shared* clauses) under one config.

    The one code path behind in-process solving, race children, and
    the determinism tests: identical inputs produce an identical
    outcome wherever this runs.
    """
    solver = Solver(config)
    if num_vars:
        solver._ensure_var(num_vars)
    for clause in clauses:
        solver.add_clause(clause)
    if shared:
        solver.import_clauses(shared)
    sat = solver.solve(assumptions)
    model: Tuple[Tuple[int, bool], ...] = ()
    if sat:
        model = tuple(sorted(solver.model().items()))
    return SolveOutcome(
        sat=sat,
        model=model,
        num_conflicts=solver.num_conflicts,
        num_decisions=solver.num_decisions,
        num_propagations=solver.num_propagations,
        learned=tuple(solver.export_learned(export_max_length)),
    )


def _race_child(
    conn,
    index: int,
    clauses: Sequence[Sequence[int]],
    assumptions: Sequence[int],
    config: SolverConfig,
    shared: Sequence[Sequence[int]],
    export_max_length: int,
    num_vars: int,
    deadline: Optional[float],
) -> None:
    """Race member entry point (child process).

    Reuses the campaign worker's SIGALRM deadline so a member that
    would outlive the race kills itself instead of relying on the
    parent to notice.
    """
    from ..campaign.worker import JobTimeout, _deadline

    try:
        with _deadline(deadline):
            outcome = solve_one(
                clauses, assumptions, config,
                shared=shared, export_max_length=export_max_length,
                num_vars=num_vars,
            )
        conn.send(("ok", index, outcome))
    except JobTimeout:
        conn.send(("timeout", index, None))
    except Exception as exc:  # pragma: no cover - crash reporting path
        conn.send(("error", index, f"{type(exc).__name__}: {exc}"))
    finally:
        conn.close()


# ----------------------------------------------------------------------
# The portfolio solver
# ----------------------------------------------------------------------

@dataclass
class PortfolioStats:
    """Cumulative accounting over one PortfolioSolver's lifetime."""

    races: int = 0
    inline_solves: int = 0
    #: config index -> race wins; index -1 is the incremental shadow
    wins: Dict[int, int] = field(default_factory=dict)
    cancelled: int = 0          # losers terminated
    member_timeouts: int = 0
    shared_pool: int = 0        # current pool size
    clauses_exported: int = 0   # harvested from winners into the pool
    clauses_seeded: int = 0     # injected from a warm-start cache
    fallbacks: int = 0          # process race unavailable -> inline

    def to_dict(self) -> Dict[str, Any]:
        return {
            "races": self.races,
            "inline_solves": self.inline_solves,
            "wins": {str(k): v for k, v in sorted(self.wins.items())},
            "cancelled": self.cancelled,
            "member_timeouts": self.member_timeouts,
            "shared_pool": self.shared_pool,
            "clauses_exported": self.clauses_exported,
            "clauses_seeded": self.clauses_seeded,
            "fallbacks": self.fallbacks,
        }


class PortfolioSolver:
    """Drop-in incremental solver that races a configuration portfolio.

    Speaks the :class:`Solver` interface the attacks use —
    ``add_clause`` / ``add_cnf`` / ``new_var`` / ``solve(assumptions)``
    / ``model`` / ``model_lit`` plus the counter attributes — so
    ``sat_attack(..., solver=PortfolioSolver(n=4))`` is the whole
    integration.  Counters accumulate the *winner's* effort per race,
    keeping :class:`~repro.attacks.sat_attack.IterationStats` sequences
    monotone exactly as with the serial solver.

    ``use_processes=False`` (or a 1-wide portfolio) keeps one
    persistent incremental delegate solving inline — the deterministic
    mode the property suites pin against the serial solver — while
    still harvesting its exports into the shared clause pool.  The
    pool is injected into race *children* only; the delegate's clause
    stream stays identical to a lone serial solver's (see
    :meth:`_prepare_delegate`).
    """

    def __init__(
        self,
        configs: Optional[Sequence[SolverConfig]] = None,
        n: int = 4,
        *,
        base_seed: int = 0,
        share_max_length: int = DEFAULT_SHARE_MAX_LENGTH,
        shared_limit: int = DEFAULT_SHARED_LIMIT,
        deadline: Optional[float] = None,
        use_processes: bool = True,
        mp_start_method: Optional[str] = None,
    ) -> None:
        self.configs: Tuple[SolverConfig, ...] = (
            tuple(configs) if configs is not None
            else default_portfolio(n, base_seed)
        )
        if not self.configs:
            raise ValueError("portfolio needs at least one configuration")
        self.share_max_length = share_max_length
        self.shared_limit = shared_limit
        self.deadline = deadline
        self.use_processes = use_processes and len(self.configs) > 1
        self.mp_start_method = mp_start_method
        self.stats = PortfolioStats()

        self._clauses: List[Tuple[int, ...]] = []
        self._num_vars = 0
        #: variable count at the first solve call — the base encoding's
        #: extent, the only variables stable across runs (see
        #: :meth:`persistable_clauses`)
        self._base_vars: Optional[int] = None
        #: shared pool, insertion-ordered; keys are normalized clauses
        self._shared: Dict[Tuple[int, ...], Tuple[int, ...]] = {}
        #: warm-start clauses from a previous run's cache; unlike the
        #: within-run pool these also go to the incremental delegate
        self._seeded: List[Tuple[int, ...]] = []
        self._model: Dict[int, bool] = {}
        self._delegate: Optional[Solver] = None
        self._delegate_fed = 0       # clauses already forwarded
        self._delegate_seeded = 0    # seeded clauses already imported
        self.num_conflicts = 0
        self.num_decisions = 0
        self.num_propagations = 0
        self.num_solve_calls = 0

    # -- Solver-compatible surface -------------------------------------

    @property
    def num_vars(self) -> int:
        return self._num_vars

    @property
    def num_clauses(self) -> int:
        """Problem clauses accumulated (mirrors ``Solver.num_clauses``)."""
        return len(self._clauses)

    def new_var(self) -> int:
        self._num_vars += 1
        return self._num_vars

    def add_clause(self, literals: Iterable[int]) -> bool:
        lits = tuple(literals)
        for lit in lits:
            if lit == 0:
                raise ValueError("0 is not a literal")
            if abs(lit) > self._num_vars:
                self._num_vars = abs(lit)
        self._clauses.append(lits)
        return True

    def add_cnf(self, cnf: CNF) -> bool:
        if cnf.num_vars > self._num_vars:
            self._num_vars = cnf.num_vars
        for clause in cnf.clauses:
            self.add_clause(clause)
        return True

    def model(self) -> Dict[int, bool]:
        return dict(self._model)

    def model_lit(self, lit: int) -> bool:
        value = self._model.get(abs(lit))
        if value is None:
            raise KeyError(f"variable {abs(lit)} not in model")
        return value if lit > 0 else not value

    # -- Shared clause pool --------------------------------------------

    def shared_clauses(self) -> List[Tuple[int, ...]]:
        """The current pool, insertion-ordered (race-child injection)."""
        return list(self._shared.values())

    def persistable_clauses(self) -> List[Tuple[int, ...]]:
        """Pool clauses safe to replay into a future run.

        Only clauses over the *base* encoding's variables — those that
        existed at the first solve call — are portable: the base
        Tseitin encoding is a deterministic function of the netlist,
        while every later variable (DIP-constraint auxiliaries) depends
        on this run's query sequence and would alias an unrelated
        variable in another run.  Each surviving clause is implied by
        the base encoding plus oracle-consistency constraints, so
        importing it in any future run against the same netlist+oracle
        only prunes key pairs a future DIP would have eliminated anyway.
        """
        base = self._base_vars if self._base_vars is not None else (
            self._num_vars
        )
        return [
            clause for clause in self._shared.values()
            if all(abs(lit) <= base for lit in clause)
        ]

    def seed_shared_clauses(
        self, clauses: Iterable[Sequence[int]]
    ) -> int:
        """Warm-start the pool (e.g. from a previous run's cache).

        Seeded clauses reach the race children through the shared pool
        *and* the incremental delegate (unlike within-run harvests,
        which stay children-only): a previous run's persisted pool is
        distilled oracle knowledge over stable base variables, worth
        perturbing the shadow's serial-identical search for.
        """
        clauses = [tuple(clause) for clause in clauses if clause]
        # Seeding must NOT bump num_vars: the pool references the base
        # encoding the attack is *about to build* against this solver,
        # and encoders allocate fresh variables above num_vars — a bump
        # here would shift the new encoding past the pool, silently
        # turning every seeded clause into noise over orphaned
        # variables.
        added = self._absorb(clauses, bump_vars=False)
        self._seeded.extend(clauses)
        self.stats.clauses_seeded += added
        _metrics.inc("sat.portfolio.clauses_seeded", added)
        return added

    def _absorb(
        self, clauses: Iterable[Sequence[int]], bump_vars: bool = True
    ) -> int:
        added = 0
        for clause in clauses:
            lits = tuple(clause)
            if not lits or len(lits) > self.share_max_length:
                continue
            key = tuple(sorted(lits))
            if key in self._shared:
                continue
            self._shared[key] = lits
            if bump_vars:
                for lit in lits:
                    if abs(lit) > self._num_vars:
                        self._num_vars = abs(lit)
            added += 1
        while len(self._shared) > self.shared_limit:
            self._shared.pop(next(iter(self._shared)))
        self.stats.shared_pool = len(self._shared)
        return added

    # -- Solving -------------------------------------------------------

    def solve(self, assumptions: Sequence[int] = ()) -> bool:
        self.num_solve_calls += 1
        if self._base_vars is None:
            # Everything added before the first solve is the base
            # encoding — deterministic per netlist, hence the portable
            # variable range for persisted pools.
            self._base_vars = self._num_vars
        with trace_span(
            "sat.portfolio.solve", configs=len(self.configs),
            clauses=len(self._clauses), shared=len(self._shared),
            assumptions=len(assumptions),
        ) as span:
            if self.use_processes:
                outcome, winner = self._race(tuple(assumptions))
            else:
                outcome, winner = self._solve_inline(tuple(assumptions))
            span.annotate(result="SAT" if outcome.sat else "UNSAT",
                          winner=winner)
        self.num_conflicts += outcome.num_conflicts
        self.num_decisions += outcome.num_decisions
        self.num_propagations += outcome.num_propagations
        self.stats.wins[winner] = self.stats.wins.get(winner, 0) + 1
        before = len(self._shared)
        self._absorb(outcome.learned)
        exported = len(self._shared) - before
        self.stats.clauses_exported += exported
        _metrics.inc("sat.portfolio.clauses_exported", exported)
        self._model = outcome.model_dict() if outcome.sat else {}
        return outcome.sat

    def _prepare_delegate(self) -> Solver:
        """The persistent incremental delegate, fed up to date.

        New problem clauses are forwarded incrementally, so the
        delegate keeps the serial solver's warm-solver economics across
        calls.  The delegate deliberately does NOT import the
        within-run shared pool: it replays exactly the serial solver's
        clause stream, so its search is bit-identical to a lone
        :class:`Solver` — the floor the race can never fall below.
        (Measured on the miter workload, the race harvests help cold
        child solvers but perturb a warm incremental search for the
        worse; the children carry the pool, the shadow carries the
        state.)  *Seeded* warm-start clauses are the one exception:
        they are a previous run's distilled, base-variable-only oracle
        facts, and importing them is where a warm run beats a cold one.
        """
        if self._delegate is None:
            self._delegate = Solver(self.configs[0])
        delegate = self._delegate
        delegate._ensure_var(self._num_vars)
        for clause in self._clauses[self._delegate_fed:]:
            delegate.add_clause(clause)
        self._delegate_fed = len(self._clauses)
        if self._delegate_seeded < len(self._seeded):
            delegate.import_clauses(
                self._seeded[self._delegate_seeded:]
            )
            self._delegate_seeded = len(self._seeded)
        return delegate

    def _delegate_outcome(
        self, delegate: Solver, assumptions: Tuple[int, ...]
    ) -> SolveOutcome:
        """Solve on the delegate; counters are per-call deltas so they
        accumulate the same way a race winner's counters do."""
        before = (delegate.num_conflicts, delegate.num_decisions,
                  delegate.num_propagations)
        sat = delegate.solve(assumptions)
        model: Tuple[Tuple[int, bool], ...] = ()
        if sat:
            model = tuple(sorted(delegate.model().items()))
        return SolveOutcome(
            sat=sat,
            model=model,
            num_conflicts=delegate.num_conflicts - before[0],
            num_decisions=delegate.num_decisions - before[1],
            num_propagations=delegate.num_propagations - before[2],
            learned=tuple(
                delegate.export_learned(self.share_max_length)
            ),
        )

    def _solve_inline(
        self, assumptions: Tuple[int, ...]
    ) -> Tuple[SolveOutcome, int]:
        """Solve on the persistent delegate alone (no race)."""
        self.stats.inline_solves += 1
        _metrics.inc("sat.portfolio.inline_solves")
        delegate = self._prepare_delegate()
        return self._delegate_outcome(delegate, assumptions), -1

    def _race(
        self, assumptions: Tuple[int, ...]
    ) -> Tuple[SolveOutcome, int]:
        """Race the configurations in child processes *and* the
        persistent incremental delegate in this process (the shadow).

        The shadow polls the children's pipes between conflicts
        (:class:`~repro.sat.solver.SolverInterrupted`) and yields when
        one answers first; children are cold per race, the shadow
        carries learned clauses and VSIDS state across the whole
        attack, so the race's wall time is bounded by the *serial*
        solver's — child diversity is pure upside.  Winner index -1
        is the shadow.  Falls back to the plain inline path if
        processes cannot be spawned here (e.g. a daemonized worker).
        """
        import multiprocessing
        from multiprocessing.connection import wait as mp_wait

        from .solver import SolverInterrupted

        try:
            ctx = multiprocessing.get_context(self.mp_start_method)
        except ValueError:
            ctx = multiprocessing.get_context()
        shared = self.shared_clauses()
        children = []
        try:
            for index, config in enumerate(self.configs):
                recv, send = ctx.Pipe(duplex=False)
                process = ctx.Process(
                    target=_race_child,
                    args=(send, index, self._clauses, assumptions, config,
                          shared, self.share_max_length, self._num_vars,
                          self.deadline),
                )
                process.start()
                send.close()
                children.append((process, recv))
        except (OSError, ValueError, AssertionError, RuntimeError):
            for process, recv in children:
                _terminate(process)
                recv.close()
            self.stats.fallbacks += 1
            _metrics.inc("sat.portfolio.fallbacks")
            return self._solve_inline(assumptions)

        self.stats.races += 1
        _metrics.inc("sat.portfolio.races")
        pending: Dict[Any, Tuple[Any, int]] = {
            recv: (process, index)
            for index, (process, recv) in enumerate(children)
        }
        delegate = self._prepare_delegate()
        errors: List[str] = []
        timeouts = 0
        try:
            while True:
                delegate.interrupt = (
                    (lambda: bool(mp_wait(list(pending), timeout=0)))
                    if pending else None
                )
                try:
                    outcome = self._delegate_outcome(delegate, assumptions)
                except SolverInterrupted:
                    outcome = None
                finally:
                    delegate.interrupt = None
                if outcome is not None:  # the shadow finished first
                    self.stats.cancelled += len(pending)
                    _metrics.inc("sat.portfolio.cancelled", len(pending))
                    _metrics.inc("sat.portfolio.wins")
                    return outcome, -1
                for conn in mp_wait(list(pending), timeout=0):
                    process, index = pending.pop(conn)
                    try:
                        status, _idx, payload = conn.recv()
                    except (EOFError, OSError):
                        errors.append(
                            f"config {index} died without an answer"
                        )
                        continue
                    if status == "ok":
                        self.stats.cancelled += len(pending)
                        _metrics.inc(
                            "sat.portfolio.cancelled", len(pending)
                        )
                        _metrics.inc("sat.portfolio.wins")
                        return payload, index
                    if status == "timeout":
                        timeouts += 1
                    else:
                        errors.append(f"config {index}: {payload}")
                # Dead/timed-out children just drop out of `pending`;
                # the loop re-enters the shadow, which runs unpolled to
                # completion once no child remains.
        finally:
            self.stats.member_timeouts += timeouts
            _metrics.inc("sat.portfolio.member_timeouts", timeouts)
            for process, recv in children:
                _terminate(process)
                recv.close()


def _terminate(process) -> None:
    if process.is_alive():
        process.terminate()
    process.join(timeout=2.0)
    if process.is_alive():  # pragma: no cover - stuck-child backstop
        process.kill()
        process.join(timeout=2.0)


# ----------------------------------------------------------------------
# Warm-start persistence (the campaign's content-addressed cache)
# ----------------------------------------------------------------------

def oracle_fingerprint(oracle, patterns: int = 8) -> str:
    """Content fingerprint of an activated chip's I/O behaviour.

    Queries *oracle* on a fixed pseudorandom pattern set and hashes the
    responses: two oracles that agree on the probe set share warm-start
    pools, two that differ (a different correct key, a different
    design) do not.  The probes count as real oracle queries — the
    attacker did spend them.
    """
    import random as _random

    from ..campaign.cache import content_key

    rng = _random.Random(0xF1DE1)
    inputs = sorted(oracle.inputs)
    probes = [
        {net: rng.randint(0, 1) for net in inputs}
        for _ in range(patterns)
    ]
    responses = oracle.query_batch(probes)
    return content_key(
        kind="oracle-fingerprint",
        inputs=inputs,
        outputs=sorted(oracle.outputs),
        responses=[sorted(response.items()) for response in responses],
    )


def shared_clause_key(
    circuit, attack: str, fingerprint: Optional[str] = None
) -> str:
    """Cache key of one (attacked netlist, attack family, oracle) pool.

    Pools hold clauses by variable number, so the key is salted with the
    miter's encoding version: a pool saved under another numbering
    never reaches this one.
    """
    from io import StringIO

    from ..attacks.sat_attack import MITER_ENCODING_VERSION
    from ..campaign.cache import content_key
    from ..netlist.verilog_io import write_verilog

    buffer = StringIO()
    write_verilog(circuit, buffer)
    return content_key(
        kind="sat-shared-clauses",
        attack=attack,
        netlist=buffer.getvalue(),
        oracle=fingerprint,
        encoding=MITER_ENCODING_VERSION,
    )


def load_shared_clauses(cache, key: str) -> List[Tuple[int, ...]]:
    """Pool persisted by a previous run, or ``[]``."""
    payload = cache.get(key)
    if not payload:
        return []
    return [tuple(clause) for clause in payload.get("clauses", [])]


def store_shared_clauses(
    cache, key: str, clauses: Sequence[Sequence[int]],
    limit: int = DEFAULT_SHARED_LIMIT,
) -> int:
    """Persist (up to *limit* of) the pool for the next run."""
    kept = [list(clause) for clause in clauses][:limit]
    cache.put(key, {"clauses": kept})
    return len(kept)
