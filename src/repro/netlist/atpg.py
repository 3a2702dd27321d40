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
from typing import Dict, Iterable, List, Optional, Tuple

from ..sat.cnf import CNF
from ..sat.solver import Solver
from .circuit import Circuit, NetlistError
from .compiled import compile_circuit
from .transform import extract_combinational

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


def _comb(circuit: Circuit) -> Circuit:
    if circuit.flip_flops():
        return extract_combinational(circuit).circuit
    return circuit


def generate_test(
    circuit: Circuit,
    fault: Fault,
    key: Optional[Dict[str, int]] = None,
) -> Optional[TestPattern]:
    """A test pattern for *fault*, or None if it is untestable.

    Sequential circuits are handled through their combinational core
    (full-scan assumption, as in the paper's Sec. VI discussion).  For
    locked netlists, *key* fixes the key inputs to the programmed value
    — production test happens on *activated* parts.
    """
    comb = _comb(circuit)
    if fault.net not in comb.nets():
        raise NetlistError(f"fault site {fault.net!r} not in the circuit")
    if fault.stuck_at not in (0, 1):
        raise NetlistError("stuck_at must be 0 or 1")

    # Deferred import: repro.sat.tseitin imports this package.
    from ..sat.tseitin import CircuitEncoder

    cnf = CNF()
    good = CircuitEncoder(cnf, comb)
    shared = {net: good.var_of[net] for net in comb.inputs + comb.key_inputs}
    # Faulty copy: same inputs/keys, but the fault net's variable is
    # forced instead of driven by its cone.
    faulty_net_var = cnf.new_var()
    cnf.add_clause([faulty_net_var if fault.stuck_at else -faulty_net_var])
    shared_faulty = dict(shared)
    shared_faulty[fault.net] = faulty_net_var
    faulty = CircuitEncoder(cnf, _strip_driver(comb, fault.net), shared_faulty)

    xor_vars = []
    for net in comb.outputs:
        x = cnf.new_var()
        cnf.add_xor(x, good.var_of[net], faulty.var_of[net])
        xor_vars.append(x)
    diff = cnf.new_var()
    cnf.add_or(diff, xor_vars)
    cnf.add_clause([diff])
    if key:
        for net, value in key.items():
            var = good.var_of[net]
            cnf.add_clause([var if value else -var])

    solver = Solver()
    solver.add_cnf(cnf)
    if not solver.solve():
        return None
    model = solver.model()
    pattern = {net: int(model[good.var_of[net]]) for net in comb.inputs}
    observed = next(
        net
        for net, x in zip(comb.outputs, xor_vars)
        if model[x]
    )
    return TestPattern(fault=fault, inputs=pattern, observed_at=observed)


def _strip_driver(comb: Circuit, net: str) -> Circuit:
    """A copy of *comb* with *net*'s driver removed (for fault injection)."""
    clone = comb.clone(f"{comb.name}__faulty")
    driver = clone.driver_of(net)
    if driver is not None:
        clone.remove_gate(driver.name)
        # the net becomes an "input" of the faulty copy; the encoder's
        # shared variable (forced to the stuck value) supplies it
        clone._claim_driver(net, "")
        clone.inputs.append(net)
    return clone


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
    comb = _comb(circuit)
    if nets is None:
        nets = sorted(g.output for g in comb.gates.values())
    nets = list(nets)
    if sample is not None and len(nets) > sample:
        rng = rng or random.Random(0)
        nets = rng.sample(nets, sample)
    report = CoverageReport()

    # Bit-parallel random fault simulation first: one lane-wide pass of
    # patterns per fault through the compiled evaluator catches the
    # easy-to-detect majority, leaving SAT-exact ATPG for the stubborn
    # remainder.  Sound because a simulated Boolean difference *is* a
    # detecting pattern, so the detected/untestable counts are identical
    # to the pure-SAT sweep (wider lanes can only move faults from the
    # SAT column to the cheaper sim column).
    compiled = compile_circuit(comb)
    lanes, mask = compiled.lanes, compiled.mask
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
            good_v[net_id] = sim_rng.getrandbits(lanes)
            good_k[net_id] = mask
        for net in compiled.key_inputs:
            if net not in pinned:
                net_id = compiled.net_ids[net]
                good_v[net_id] = sim_rng.getrandbits(lanes)
                good_k[net_id] = mask
        for net, value in pinned.items():
            net_id = compiled.net_ids[net]
            good_v[net_id] = mask if value else 0
            good_k[net_id] = mask
        compiled.run_planes(good_v, good_k)

    for net in nets:
        for value in (0, 1):
            fault = Fault(net, value)
            report.total += 1
            detected_by_sim = False
            if sim_ok and net in compiled.net_ids:
                fid = compiled.net_ids[net]
                faulty_v = list(good_v)
                faulty_k = list(good_k)
                faulty_v[fid] = mask if value else 0
                faulty_k[fid] = mask
                compiled.run_planes(faulty_v, faulty_k, skip_out=fid)
                for out_id in compiled.output_ids:
                    if ((good_v[out_id] ^ faulty_v[out_id])
                            & good_k[out_id] & faulty_k[out_id]):
                        detected_by_sim = True
                        break
            if detected_by_sim:
                report.detected += 1
            elif generate_test(circuit, fault, key=key) is None:
                report.untestable.append(fault)
            else:
                report.detected += 1
    return report
