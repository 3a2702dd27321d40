"""Stuck-at ATPG via SAT.

Sec. VI's scan/BIST discussion treats the test infrastructure as an
attack surface, but that infrastructure exists for a reason: production
parts need test patterns.  This module provides the classic SAT-based
automatic test-pattern generation — a miter between the good circuit
and a copy with one line forced to 0/1; a satisfying assignment is a
test detecting the fault, UNSAT proves the fault untestable.

Besides being a standard EDA substrate, it quantifies a hidden cost of
GK locking: the GK arms are combinationally redundant by construction
(the key never influences the Boolean function), so a slice of their
stuck-at faults is untestable through scan — the DFT ablation bench
measures exactly how large that slice is.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional

from ..sat.cnf import CNF
from ..sat.solver import Solver
from .circuit import Circuit, NetlistError
from .compiled import LANES, MASK, compile_circuit
from .transform import (
    CombinationalView, combinational_circuit, combinational_view,
)

__all__ = ["Fault", "TestPattern", "generate_test", "fault_coverage"]


@dataclass(frozen=True)
class Fault:
    """A single stuck-at fault on a net (the driver's output line)."""

    net: str
    stuck_at: int  # 0 or 1

    def __str__(self) -> str:
        return f"{self.net}/SA{self.stuck_at}"


@dataclass(frozen=True)
class TestPattern:
    """A pattern detecting one fault, with the PO where it shows."""

    fault: Fault
    inputs: Dict[str, int]
    observed_at: str


def generate_test(
    circuit: Circuit,
    fault: Fault,
    key: Optional[Dict[str, int]] = None,
) -> Optional[TestPattern]:
    """A test pattern for *fault*, or None if it is untestable.

    Sequential circuits are handled through their combinational core
    (full-scan assumption, as in the paper's Sec. VI discussion), which
    one :func:`~repro.netlist.transform.combinational_view` describes
    for both copies.  For locked netlists, *key* fixes the key inputs
    to the programmed value — production test happens on *activated*
    parts.
    """
    return _generate_test(combinational_view(circuit), fault, key)


def _generate_test(
    view: CombinationalView,
    fault: Fault,
    key: Optional[Dict[str, int]],
) -> Optional[TestPattern]:
    """:func:`generate_test` on the combinational core *view*."""
    if fault.stuck_at not in (0, 1):
        raise NetlistError("stuck_at must be 0 or 1")

    # Deferred import: repro.sat.tseitin imports this package.
    from ..sat.tseitin import CircuitEncoder, NodeTable, miter_xors

    # Both copies hash into one table.  The faulty copy is the same
    # circuit with the fault net pre-bound to the stuck constant (its
    # driver cut), so only the fault's fan-out cone gets new nodes, and
    # an output whose copies share one literal cannot observe the fault.
    cnf = CNF()
    table = NodeTable()
    pinned = {
        net: table.constant(cnf, value)
        for net, value in (key or {}).items() if net in view.key_inputs
    }
    good = CircuitEncoder(cnf, view, pinned, table=table)
    # the good copy gave every net of the core a literal
    if fault.net not in good.var_of:
        raise NetlistError(f"fault site {fault.net!r} not in the circuit")
    shared = {net: good.var_of[net] for net in view.inputs + view.key_inputs}
    shared[fault.net] = table.constant(cnf, fault.stuck_at)
    faulty = CircuitEncoder(cnf, view, shared, table=table)

    observable = miter_xors(cnf, (
        (net, good.var_of[net], faulty.var_of[net]) for net in view.outputs
    ))
    if not observable:
        return None
    cnf.add_clause([x for _, x in observable])
    for net, value in (key or {}).items():
        if net not in pinned:  # a pinned non-key net constrains the good copy
            lit = good.var_of[net]
            cnf.add_clause([lit if value else -lit])

    solver = Solver()
    solver.add_cnf(cnf)
    if not solver.solve():
        return None
    model = solver.model()
    pattern = {net: int(model[good.var_of[net]]) for net in view.inputs}
    observed = next(net for net, x in observable if model[x])
    return TestPattern(fault=fault, inputs=pattern, observed_at=observed)


@dataclass
class CoverageReport:
    """Outcome of a fault-coverage run."""

    total: int = 0
    detected: int = 0
    untestable: List[Fault] = field(default_factory=list)

    @property
    def coverage(self) -> float:
        return self.detected / self.total if self.total else 1.0


def fault_coverage(
    circuit: Circuit,
    nets: Optional[Iterable[str]] = None,
    key: Optional[Dict[str, int]] = None,
    rng: Optional[random.Random] = None,
    sample: Optional[int] = None,
) -> CoverageReport:
    """Stuck-at-0/1 coverage over *nets* (default: every gate output).

    With *sample*, a random subset of that many nets is analyzed —
    exact ATPG per fault is SAT-complete, so full sweeps are for small
    blocks.
    """
    comb = combinational_circuit(circuit)
    if nets is None:
        nets = sorted(g.output for g in comb.gates.values())
    nets = list(nets)
    if sample is not None and len(nets) > sample:
        rng = rng or random.Random(0)
        nets = rng.sample(nets, sample)
    report = CoverageReport()

    # Bit-parallel random fault simulation first: one pass of LANES
    # patterns per fault through the compiled evaluator catches the
    # easy-to-detect majority, leaving SAT-exact ATPG, on one view of
    # the core for the whole sweep, for the stubborn remainder.  Sound
    # because a simulated Boolean difference *is* a detecting pattern,
    # so the detected/untestable counts are identical to the pure-SAT
    # sweep.
    compiled = compile_circuit(comb)
    view = combinational_view(comb)
    sim_rng = random.Random(0x5EED)  # never the caller's rng
    pinned = dict(key or {})
    sim_ok = all(
        net in compiled.net_ids
        and compiled.net_ids[net] < compiled.num_sources
        for net in pinned
    )
    good_v: List[int] = []
    good_k: List[int] = []
    if sim_ok:
        good_v = [0] * compiled.num_nets
        good_k = [0] * compiled.num_nets
        for net_id in compiled.input_ids:
            good_v[net_id] = sim_rng.getrandbits(LANES)
            good_k[net_id] = MASK
        for net in compiled.key_inputs:
            if net not in pinned:
                net_id = compiled.net_ids[net]
                good_v[net_id] = sim_rng.getrandbits(LANES)
                good_k[net_id] = MASK
        for net, value in pinned.items():
            net_id = compiled.net_ids[net]
            good_v[net_id] = MASK if value else 0
            good_k[net_id] = MASK
        compiled.run_planes(good_v, good_k, MASK)

    for net in nets:
        for value in (0, 1):
            fault = Fault(net, value)
            report.total += 1
            detected_by_sim = False
            if sim_ok and net in compiled.net_ids:
                fid = compiled.net_ids[net]
                faulty_v = list(good_v)
                faulty_k = list(good_k)
                faulty_v[fid] = MASK if value else 0
                faulty_k[fid] = MASK
                compiled.run_planes(faulty_v, faulty_k, MASK, skip_out=fid)
                for out_id in compiled.output_ids:
                    if ((good_v[out_id] ^ faulty_v[out_id])
                            & good_k[out_id] & faulty_k[out_id]):
                        detected_by_sim = True
                        break
            if detected_by_sim:
                report.detected += 1
            elif _generate_test(view, fault, key) is None:
                report.untestable.append(fault)
            else:
                report.detected += 1
    return report
