"""The SAT attack on logic locking (Subramanyan et al. [11]).

The attack builds a miter of two copies of the locked netlist sharing
primary inputs but with independent keys, and asks a SAT solver for a
**distinguishing input pattern** (DIP): an input making the copies
disagree for some key pair.  Each DIP is resolved against the oracle
(the activated chip) and both copies are constrained to match the
observed response, pruning every key inconsistent with it.  When no DIP
remains, any key satisfying the accumulated constraints is functionally
correct — for ordinary locking.  :class:`KeyConeMiter` builds that
formula on one structural-hash table: the two copies of a combinational
core encode only the keys' cone of influence, and copy 2 and each pin
add clauses only for the keys' fan-out cone (see its docstring).

:func:`dip_loop` is the one loop of the attack's three families: the
combinational attack here (:func:`sat_attack`, scan access assumed), the
unrolled attack without scan access
(:func:`~repro.attacks.unroll.sequential_sat_attack`) and the timed
attack over two-vector tests (:func:`~repro.attacks.tcf.tcf_attack`).
They differ only in the copy the miter encodes (a
:mod:`repro.netlist.transform` view) and in how the oracle is asked.

Against the paper's GK-locked designs, the very first DIP query returns
UNSAT (the GK key inputs are combinationally non-influential), so the
attack "succeeds" immediately with an arbitrary key — and the function
it certifies is the *glitch-blind* one, which is wrong wherever a GK
transmits data on a glitch.  :func:`verify_key_against_oracle` makes
that failure observable, reproducing Sec. VI's result.
"""

from __future__ import annotations

import random
import time
from dataclasses import dataclass, field, replace
from typing import (
    Any, Callable, Dict, List, Mapping, Optional, Set, Tuple,
)

from ..netlist.circuit import Circuit, NetlistError
from ..netlist.compiled import compile_circuit
from ..netlist.transform import (
    CombinationalView, combinational_circuit, combinational_view,
    key_fanout, key_influence_view,
)
from ..obs import metrics as _metrics
from ..obs.spans import trace_span
from ..sat.cnf import CNF
from ..sat.solver import Solver
from ..sat.tseitin import CircuitEncoder, NodeTable, miter_xors
from .oracle import OracleProtocol

__all__ = ["IterationStats", "KeyConeMiter", "MITER_ENCODING_VERSION",
           "SatAttackResult", "dip_loop", "sat_attack",
           "verify_key_against_oracle"]

#: Version of :class:`KeyConeMiter`'s variable numbering.  Warm-start
#: clause pools are stored by variable number, so
#: :func:`~repro.attacks.warm_start.shared_clause_key` is salted with this:
#: bump it whenever the miter's base encoding changes, or a pool saved
#: under the old numbering would be seeded into unrelated variables.
#: 5: flip-flops are numbered in Q-net order, not instance-name order
#: (the two differ on every ``.bench``-loaded sequential netlist).
#: 6: the node table rewrites ``XOR(a, XOR(a, c))`` to ``c`` and
#: ``MUX(s, NOT b, b)`` to ``XNOR(s, b)``, which folds a GK to one literal.
MITER_ENCODING_VERSION = 6


@dataclass(frozen=True)
class IterationStats:
    """Cumulative effort after one DIP iteration (1-based *index*).

    Counter fields are cumulative over the whole attack so far, so each
    sequence is monotonically non-decreasing across iterations — the
    property the oracle-guided-attack literature reports (queries,
    solver effort, clause growth per iteration) and the one our
    regression tests pin down.
    """

    index: int
    seconds: float  # wall time since the attack started
    solver_decisions: int
    solver_conflicts: int
    solver_propagations: int
    oracle_queries: int
    clauses: int  # problem clauses in the solver's database


@dataclass
class SatAttackResult:
    """Outcome of one run of :func:`dip_loop`, for any family."""

    completed: bool  # the DIP loop terminated (UNSAT) within budget
    key: Optional[Dict[str, int]]  # a key consistent with all DIPs
    iterations: int  # number of DIPs found
    #: the GK signature (Sec. VI): the cold miter is UNSAT at once;
    #: never set for a warm-started solver
    unsat_at_first_iteration: bool
    #: what each DIP asked the oracle: an input pattern (``sat``), an
    #: input sequence from reset (``sequential``) or a (V1, V2) pair
    #: (``tcf``)
    dips: List[Any] = field(default_factory=list)
    oracle_queries: int = 0
    solver_conflicts: int = 0
    solver_decisions: int = 0
    iteration_stats: List[IterationStats] = field(default_factory=list)

    @property
    def found_any_dip(self) -> bool:
        return self.iterations > 0


def _interface_map(comb, oracle: OracleProtocol) -> Dict[str, str]:
    """Locked-netlist output net -> oracle output net.

    *comb* is the locked netlist's combinational view or circuit.
    Locking may rename a flip-flop's D net (a GK splices its MUX in
    front of the FF), but both combinational cores list outputs in the
    same order: original POs first, then pseudo-POs sorted by their
    flip-flop's Q net.  Inputs must agree by name (locking never
    renames Q nets or PIs, and ``.bench`` keeps both), so the pairing
    holds across a ``.bench`` round trip of either netlist.
    """
    if sorted(comb.inputs) != sorted(oracle.inputs):
        raise NetlistError("oracle input interface does not match")
    if len(comb.outputs) != len(oracle.outputs):
        raise NetlistError("oracle output interface does not match")
    return dict(zip(comb.outputs, oracle.outputs))


class KeyConeMiter:
    """The SAT attack's two-copy miter, on one structural-hash table.

    *view* is the locked netlist's copy kind, built once and encoded by
    every copy and pin: its
    :func:`~repro.netlist.transform.combinational_view`, its
    :func:`~repro.netlist.transform.unrolled_view` or its
    :func:`~repro.netlist.transform.timed_view`.  The miter reads only
    the view's input, key and output names (nets or tags), so the three
    kinds fold and hash alike.  Copy 1 encodes the base: of a
    combinational view, its keys' cone of influence
    (:func:`~repro.netlist.transform.key_influence_view`: the outputs
    some key reaches and their fan-in, every input and key variable
    still allocated first); an unrolled or timed view whole, since its
    cone crosses frames and ticks.  Copy 2 encodes the base again with
    fresh key variables and copy 1's primary-input literals, through
    the same :class:`~repro.sat.tseitin.NodeTable`.  ``diff`` is the OR
    of per-output XORs over the outputs whose two literals differ, and
    :meth:`pin` adds one oracle observation to both copies: *view* is
    encoded once per copy with the pattern's inputs bound to the
    constant-true literal (or its negation) and that copy's key
    variables, so the pattern folds through its constants and only the
    key-dependent remainder gets new nodes, shared wherever the two
    copies (or earlier pins) built the same node.  *oracle_output_of*
    maps each output of *view* to the response's name for it; a
    response of None (an unknown observation) pins nothing.

    On a combinational view the miter splits the gates at the keys'
    fan-out cone (:func:`~repro.netlist.transform.key_fanout`), and
    only the cone is walked twice.  Copy 2 starts from copy 1's literal
    for every net outside the cone and walks the base's cone gates.
    Each pin walks the gates outside the cone once (with every input a
    constant they all fold to constants), then the cone once per key
    copy.  A gate outside the cone sees the same fan-in literals in
    both copies, so a second walk of it would hash onto the first
    walk's literal and add nothing: the same variables and clauses come
    out, in the same order, as from whole walks.  The one visible
    difference is the node table's ``xor_collapses`` and
    ``mux_collapses``: a rewrite in logic no key reaches is counted
    once, not once per copy.

    Soundness, against the plain two-copy encoding:

    * Hash-consing is exact: a node's key is its operation and its
      fan-in literals, so a shared node computes the same function in
      every model.  Outputs whose copies share one literal agree in
      every model, and dropping them from ``diff`` removes no model.
    * An output outside the cone of influence is a function of the
      inputs alone: both copies would hash it to one literal, so its
      logic adds no XOR to ``diff``, and leaving it out of the base
      removes no model.
    * Folding is exact: each rewrite (a constant operand, equal or
      complementary operands, a negated MUX select or arm,
      ``XOR(a, XOR(a, c)) = c`` and ``MUX(s, NOT b, b) = XNOR(s, b)``)
      is a Boolean identity.  The last two fold a GK,
      ``MUX(k, XNOR(x, k), XOR(x, k))``, to ``NOT x`` (or ``x``) in
      each copy, so a GK lock's copies hash to one literal per output
      and ``diff`` has no XOR at all.
    * A key-independent output that disagrees with the oracle folds to
      a constant and pins the constant-true literal false, so the
      formula is UNSAT, just as the plain encoding is.

    ``clauses`` counts the base encoding's clauses and
    ``merged_outputs`` the outputs with no XOR in ``diff``: those both
    copies hash to one literal and those outside the cone.
    """

    def __init__(
        self,
        solver: Solver,
        view,
        oracle_output_of: Mapping,
    ) -> None:
        self.solver = solver
        self.view = view
        self.oracle_output_of = oracle_output_of
        self.table = NodeTable()
        self.clauses = 0
        #: the nets the keys reach, on a combinational view
        self._reached: Optional[Set[str]] = None
        #: (gates outside the cone, the cone) of *view*, for the pins
        self._pin_views: Optional[Tuple[CombinationalView,
                                        CombinationalView]] = None
        base = cone = view
        if isinstance(view, CombinationalView):
            reached = self._reached = key_fanout(view)
            base = key_influence_view(view)
            cone = replace(base, gates=[
                gate for gate in base.gates if gate[1] in reached])
        copy1 = self._encode(base, {})
        if self._reached is None:
            shared = {net: copy1.var_of[net] for net in view.inputs}
        else:
            shared = {net: lit for net, lit in copy1.var_of.items()
                      if net not in self._reached}
        copy2 = self._encode(cone, shared)
        self.pi_vars = {net: copy1.var_of[net] for net in view.inputs}
        #: per copy, key input -> variable
        self.key_vars = [
            {net: copy.var_of[net] for net in view.key_inputs}
            for copy in (copy1, copy2)
        ]

        cnf = CNF(num_vars=solver.num_vars)
        xors = miter_xors(cnf, (
            (net, copy1.var_of[net], copy2.var_of[net])
            for net in base.outputs
        ))
        self.merged_outputs = len(view.outputs) - len(xors)
        #: assumed true per DIP query: some unmerged output differs
        self.diff = cnf.new_var()
        cnf.add_or(self.diff, [x for _, x in xors])
        self._add(cnf)

    def _add(self, cnf: CNF) -> int:
        self.solver.add_cnf(cnf)
        self.clauses += len(cnf.clauses)
        return len(cnf.clauses)

    def _encode(self, base, net_vars: Mapping) -> CircuitEncoder:
        cnf = CNF(num_vars=self.solver.num_vars)
        encoder = CircuitEncoder(cnf, base, net_vars, table=self.table)
        self._add(cnf)
        return encoder

    def _split(self) -> Tuple[CombinationalView, CombinationalView]:
        """*view*'s gates outside the keys' fan-out cone (no keys, no
        outputs) and its cone, each as a view; built at the first pin."""
        if self._pin_views is None:
            view, reached = self.view, self._reached
            rest = replace(view, key_inputs=[], outputs=[], gates=[
                gate for gate in view.gates if gate[1] not in reached])
            cone = replace(view, gates=[
                gate for gate in view.gates if gate[1] in reached])
            self._pin_views = rest, cone
        return self._pin_views

    def pin(self, pattern: Mapping, response: Mapping) -> int:
        """Constrain both copies to answer *response* on *pattern*
        (input name -> bit); returns the number of clauses added."""
        view = self.view
        table = self.table
        cnf = CNF(num_vars=self.solver.num_vars)
        bound = {
            net: table.constant(cnf, pattern[net]) for net in view.inputs
        }
        true = table.constant(cnf, 1)
        walked = view
        if self._reached is not None:
            rest, walked = self._split()
            bound = CircuitEncoder(cnf, rest, bound, table=table).var_of
        for key_vars in self.key_vars:
            encoder = CircuitEncoder(
                cnf, walked, dict(bound, **key_vars), table=table
            )
            for net in view.outputs:
                value = response[self.oracle_output_of[net]]
                if value is None:
                    continue
                lit = encoder.var_of[net]
                if not value:
                    lit = -lit
                if lit != true:  # else a constant output that agrees
                    cnf.add_clause([lit])
        return self._add(cnf)

    def dip(self, model: Mapping[int, bool]) -> Dict:
        """The input pattern (input name -> bit) of a model of the miter."""
        return {net: int(model[var]) for net, var in self.pi_vars.items()}

    def key(self, model: Mapping[int, bool]) -> Dict[str, int]:
        """Copy 1's key in a model of the miter."""
        return {net: int(model[var]) for net, var in self.key_vars[0].items()}


def dip_loop(
    family: str,
    view,
    oracle_output_of: Mapping,
    query: Callable[[Dict], Tuple[Any, Mapping]],
    max_iterations: int,
    solver: Optional[Solver] = None,
) -> SatAttackResult:
    """Run the DIP loop on a :class:`KeyConeMiter` of *view*.

    Each iteration asks the solver for a DIP, hands its input pattern
    (input name -> bit) to *query*, and pins both copies to the answer.
    *query* returns ``(dip, response)``: what it asked the oracle, kept
    in ``result.dips``, and the observation, keyed by the values of
    *oracle_output_of*.  When no DIP remains, a key consistent with
    every pin is extracted; an over-constrained miter (no consistent
    key at all) leaves ``key`` None.

    The run opens the spans ``attack.<family>``, ``.encode``, one
    ``.iteration`` per query plus the final one and ``.key_extract``,
    and counts ``attack.<family>.iterations`` and ``.oracle_queries``.
    ``.encode`` carries the base's ``vars``, ``clauses`` and
    ``merged_outputs`` and how often the node table's two cancelling
    rewrites fired (``xor_collapses``, ``mux_collapses``): a GK lock
    shows every output merged and one of each per GK and copy.
    *solver* replaces the default fresh :class:`Solver` (e.g. one
    seeded by :func:`~repro.attacks.warm_start.warm_solver`); it must
    have no clauses added yet.
    """
    if not view.key_inputs:
        raise NetlistError("netlist has no key inputs; nothing to attack")
    if solver is None:
        solver = Solver()
    name = f"attack.{family}"
    iteration_name = f"{name}.iteration"
    iterations, queries = f"{name}.iterations", f"{name}.oracle_queries"

    t_start = time.perf_counter()
    # Touch the loop counters so they appear in metric tables even for
    # the paper's headline case (UNSAT at iteration 1: zero of each).
    _metrics.inc(iterations, 0)
    _metrics.inc(queries, 0)
    with trace_span(
        name, design=view.name, key_bits=len(view.key_inputs)
    ) as attack_span:
        with trace_span(f"{name}.encode") as encode_span:
            miter = KeyConeMiter(solver, view, oracle_output_of)
            encode_span.annotate(
                vars=solver.num_vars, clauses=miter.clauses,
                merged_outputs=miter.merged_outputs,
                xor_collapses=miter.table.xor_collapses,
                mux_collapses=miter.table.mux_collapses,
            )

        result = SatAttackResult(
            completed=False, key=None, iterations=0,
            unsat_at_first_iteration=False,
        )
        for iteration in range(max_iterations):
            with trace_span(
                iteration_name, index=iteration + 1
            ) as iteration_span:
                if not solver.solve([miter.diff]):
                    result.completed = True
                    break
                pattern = miter.dip(solver.model())
                dip, response = query(pattern)
                result.dips.append(dip)
                result.iterations += 1
                result.oracle_queries += 1
                _metrics.inc(queries)
                iteration_span.annotate(
                    pin_clauses=miter.pin(pattern, response))
                result.iteration_stats.append(IterationStats(
                    index=result.iterations,
                    seconds=time.perf_counter() - t_start,
                    solver_decisions=solver.num_decisions,
                    solver_conflicts=solver.num_conflicts,
                    solver_propagations=solver.num_propagations,
                    oracle_queries=result.oracle_queries,
                    clauses=solver.num_clauses,
                ))
                _metrics.inc(iterations)

        # The GK signature is a property of the cold miter: a solver
        # seeded with an earlier run's clauses may already pin the key
        # of any lock and so refute the first query for another reason.
        result.unsat_at_first_iteration = (
            result.completed and result.iterations == 0
            and solver.num_imported == 0
        )
        result.solver_conflicts = solver.num_conflicts
        result.solver_decisions = solver.num_decisions
        if result.completed:
            with trace_span(f"{name}.key_extract"):
                if solver.solve([]):
                    result.key = miter.key(solver.model())
        attack_span.annotate(
            iterations=result.iterations, completed=result.completed,
            unsat_at_first=result.unsat_at_first_iteration,
        )
    return result


def sat_attack(
    locked_netlist: Circuit,
    oracle: OracleProtocol,
    max_iterations: int = 256,
    solver: Optional[Solver] = None,
) -> SatAttackResult:
    """Run the DIP loop against *locked_netlist* using *oracle*.

    The miter encodes the netlist's combinational core (pseudo-PI/PO
    transformation), matching the paper's preprocessing, through one
    :func:`~repro.netlist.transform.combinational_view`: a sequential
    netlist is validated and described in place, not copied.  The
    oracle must expose the same input/output interface (it will, if
    built from the corresponding original design).

    *solver*, when given, replaces the default fresh :class:`Solver`
    (e.g. one seeded by :func:`~repro.attacks.warm_start.warm_solver`);
    it must have no clauses added yet.
    """
    view = combinational_view(locked_netlist)
    return dip_loop(
        "sat", view, _interface_map(view, oracle),
        lambda pattern: (pattern, oracle.query(pattern)),
        max_iterations, solver,
    )


def verify_key_against_oracle(
    locked_netlist: Circuit,
    oracle: OracleProtocol,
    key: Mapping[str, int],
    samples: int = 64,
    rng: Optional[random.Random] = None,
) -> float:
    """Fraction of random patterns on which *key* matches the oracle.

    1.0 means the recovered key reproduces the chip on every sampled
    pattern (the attack truly decrypted the design); for GK-locked
    designs this lands well below 1.0 no matter the key, because the
    combinational netlist itself is glitch-blind.
    """
    rng = rng or random.Random(0)
    comb = combinational_circuit(locked_netlist)
    oracle_output_of = _interface_map(comb, oracle)
    # Draw every pattern first (the same stream the per-pattern loop
    # consumed), then resolve both sides in lane-wide passes.
    patterns = [
        {net: rng.randint(0, 1) for net in comb.inputs}
        for _ in range(samples)
    ]
    responses = oracle.query_batch(patterns)
    assignments = [dict(pattern, **key) for pattern in patterns]
    candidate = compile_circuit(comb).query_outputs(assignments)
    matches = 0
    for values, response in zip(candidate, responses):
        if all(
            values[net] == response[oracle_output_of[net]]
            for net in comb.outputs
        ):
            matches += 1
    return matches / samples
