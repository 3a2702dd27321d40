"""Timed Characteristic Function (TCF) SAT — the "enhanced SAT attack"
of paper Sec. V-B (after Ho et al. [3]).

[3] encodes a circuit's *timing* into SAT by expanding each net over
discrete time ticks: a gate with delay ``d`` satisfies
``out(t) = f(in(t - d))``, with a settled pre-transition copy supplying
values for ``t < d``.  A two-vector test (V1 settled, V2 applied at
t = 0) then exposes delay behaviour: if a path is slower than the
sample time, the sampled output still shows stale V1 logic.  This is
exactly our event simulator's transport-delay semantics, transcribed
into CNF — so TCF-SAT *can* reason about delays (it generates delay
tests and cracks delay locking like TDK, where the delay key selects
arms of different speed).

The timed copy is :func:`~repro.netlist.transform.timed_view`, encoded
by the same hashing :class:`~repro.sat.tseitin.CircuitEncoder` as every
other copy, so a gate whose fan-ins have not switched by tick t costs
nothing there.  :func:`tcf_attack` is
:func:`~repro.attacks.sat_attack.dip_loop` on that view (spans
``attack.tcf*``), and :func:`find_delay_test` a two-copy miter on it.

What it cannot do is see a **glitch key**: in a TCF model the key input
is a static Boolean variable, constant over all ticks.  A GK only
deviates from its constant-mode function *while the key is mid-
transition*; with a static key the timed model collapses to the same
glitch-blind function for both key values, the miter has no DIP, and
the attack fails exactly like the untimed one — "we can never derive
the value transmitted on the glitch through the CNF and TCF".
"""

from __future__ import annotations

from typing import Dict, Mapping, Optional, Tuple

from ..netlist.circuit import Circuit, NetlistError
from ..netlist.transform import timed_view
from ..sat.cnf import CNF
from ..sat.solver import Solver
from ..sat.tseitin import CircuitEncoder, NodeTable, miter_xors
from .oracle import TwoVectorOracleProtocol
from .sat_attack import SatAttackResult, dip_loop

__all__ = ["tcf_attack", "two_vector_response", "SimulatedTwoVectorOracle",
           "find_delay_test"]


def two_vector_response(
    circuit: Circuit,
    v1: Mapping[str, int],
    v2: Mapping[str, int],
    sample_time: float,
    key: Optional[Mapping[str, int]] = None,
    delay_mode: str = "transport",
) -> Dict[str, int]:
    """The physical chip's answer to a launch/capture test.

    Event-simulates *circuit* with inputs settled at *v1*, switched to
    *v2* at t = 0, and samples every primary output at *sample_time* —
    the at-speed measurement an attacker with tester access performs.
    """
    from ..sim.eventsim import EventSimulator

    sim = EventSimulator(circuit, delay_mode=delay_mode)
    for net in circuit.inputs:
        sim.set_initial(net, v1[net])
    if circuit.key_inputs:
        if key is None:
            raise NetlistError("circuit has key inputs; pass `key`")
        for net in circuit.key_inputs:
            sim.set_initial(net, key[net])
    for net in circuit.inputs:
        if v2[net] != v1[net]:
            sim.drive(net, [(0.0, v2[net])])
    result = sim.run(sample_time + 1e-9)
    return {
        net: result.waveforms[net].value_at(sample_time)
        for net in circuit.outputs
    }


class SimulatedTwoVectorOracle:
    """The activated chip on an at-speed tester, as an oracle object.

    Implements :class:`~repro.attacks.oracle.TwoVectorOracleProtocol`
    by event-simulating *circuit* (under *key*, if it has key inputs)
    per launch/capture test, for :func:`tcf_attack`.  Swap in any other
    implementation (a recorded trace, a served tester) the same way
    :class:`~repro.serve.client.RemoteOracle` swaps in for
    :class:`~repro.attacks.oracle.CombinationalOracle`.
    """

    def __init__(
        self,
        circuit: Circuit,
        key: Optional[Mapping[str, int]] = None,
        delay_mode: str = "transport",
    ) -> None:
        self.circuit = circuit
        self.key = key
        self.delay_mode = delay_mode
        self.query_count = 0

    def two_vector(
        self,
        v1: Mapping[str, int],
        v2: Mapping[str, int],
        sample_time: float,
    ) -> Dict[str, Optional[int]]:
        self.query_count += 1
        return two_vector_response(
            self.circuit, v1, v2, sample_time,
            key=self.key, delay_mode=self.delay_mode,
        )


def tcf_attack(
    locked: Circuit,
    oracle: TwoVectorOracleProtocol,
    sample_time: float,
    dt: float = 0.05,
    max_iterations: int = 64,
) -> SatAttackResult:
    """The timed SAT attack: DIP loop over two-vector tests.

    *locked* is the attacker's (combinational) netlist with static key
    inputs; *oracle* is the activated chip measured at speed, any
    :class:`~repro.attacks.oracle.TwoVectorOracleProtocol`
    implementation (:class:`SimulatedTwoVectorOracle` event-simulates
    one).  Each DIP (``result.dips``) is a (V1, V2) pair.  Succeeds on
    delay locking (TDK); finds no DIP on glitch locking.
    """
    if sample_time <= 0:
        raise NetlistError("sample_time must be positive")
    view = timed_view(locked, int(round(sample_time / dt)), dt)
    inputs = view.core.inputs

    def query(pattern):
        v1 = {net: pattern[(net, 0)] for net in inputs}
        v2 = {net: pattern[(net, 1)] for net in inputs}
        return (v1, v2), oracle.two_vector(v1, v2, sample_time)

    return dip_loop("tcf", view, {net: net for net in view.outputs},
                    query, max_iterations)


def find_delay_test(
    good: Circuit,
    slow_gate: str,
    extra_delay: float,
    sample_time: float,
    dt: float = 0.05,
) -> Optional[Tuple[Dict[str, int], Dict[str, int]]]:
    """TCF as [3] used it: generate a two-vector test for a delay defect.

    Returns (V1, V2) whose sampled outputs differ between the nominal
    circuit and one where *slow_gate* is slower by *extra_delay* ns —
    or None if the defect is untestable at this sample time.
    """
    ticks = int(round(sample_time / dt))
    nominal = timed_view(good, ticks, dt)
    slow = timed_view(good, ticks, dt, {
        slow_gate: good.gates[slow_gate].cell.delay + extra_delay
    })
    cnf = CNF()
    table = NodeTable()
    copy1 = CircuitEncoder(cnf, nominal, table=table)
    copy2 = CircuitEncoder(cnf, slow, {
        name: copy1.var_of[name]
        for name in nominal.inputs + nominal.key_inputs
    }, table=table)
    xors = miter_xors(cnf, (
        (net, copy1.var_of[net], copy2.var_of[net]) for net in good.outputs
    ))
    if not xors:
        return None  # the slow gate reaches no output by the sample tick
    cnf.add_clause([x for _, x in xors])
    solver = Solver()
    solver.add_cnf(cnf)
    if not solver.solve():
        return None
    model = solver.model()
    v1, v2 = (
        {net: int(model[copy1.var_of[(net, v)]]) for net in good.inputs}
        for v in (0, 1)
    )
    return v1, v2
