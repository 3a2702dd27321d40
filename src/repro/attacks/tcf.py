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

What it cannot do is see a **glitch key**: in a TCF model the key input
is a static Boolean variable, constant over all ticks.  A GK only
deviates from its constant-mode function *while the key is mid-
transition*; with a static key the timed model collapses to the same
glitch-blind function for both key values, the miter has no DIP, and
the attack fails exactly like the untimed one — "we can never derive
the value transmitted on the glitch through the CNF and TCF".
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Dict, List, Mapping, Optional, Tuple

from ..netlist.circuit import Circuit, NetlistError
from ..sat.cnf import CNF
from ..sat.solver import Solver
from ..sat.tseitin import encode_gate_function
from .oracle import TwoVectorOracleProtocol

__all__ = ["TimedCopy", "encode_timed", "TcfAttackResult", "tcf_attack",
           "two_vector_response", "SimulatedTwoVectorOracle",
           "find_delay_test"]


@dataclass
class TimedCopy:
    """Variable map of one time-expanded circuit copy."""

    circuit: Circuit
    ticks: int
    dt: float
    v1: Dict[str, int]  # settled pre-transition copy (per net)
    v2: Dict[str, int]  # primary-input values applied at t = 0
    keys: Dict[str, int]  # static key variables
    timed: Dict[Tuple[str, int], int]  # (net, tick) -> var

    def at(self, net: str, tick: int) -> int:
        return self.timed[(net, tick)]

    def sampled(self, net: str) -> int:
        return self.timed[(net, self.ticks)]


def encode_timed(
    cnf: CNF,
    circuit: Circuit,
    ticks: int,
    dt: float,
    delay_override: Optional[Mapping[str, float]] = None,
    shared_v1: Optional[Mapping[str, int]] = None,
    shared_v2: Optional[Mapping[str, int]] = None,
    shared_keys: Optional[Mapping[str, int]] = None,
) -> TimedCopy:
    """Time-expand *circuit* over ``ticks`` steps of ``dt`` ns.

    *delay_override* replaces a gate's nominal delay (delay-defect
    injection).  ``shared_*`` maps let several copies share the test
    vectors while keeping keys independent (the TCF miter).
    """
    if circuit.flip_flops():
        raise NetlistError("encode_timed expects a combinational circuit")
    overrides = delay_override or {}
    v1: Dict[str, int] = dict(shared_v1 or {})
    v2: Dict[str, int] = dict(shared_v2 or {})
    keys: Dict[str, int] = dict(shared_keys or {})
    timed: Dict[Tuple[str, int], int] = {}

    def v1_var(net: str) -> int:
        var = v1.get(net)
        if var is None:
            var = cnf.new_var()
            v1[net] = var
        return var

    for net in circuit.inputs:
        v1_var(net)
        if net not in v2:
            v2[net] = cnf.new_var()
    for net in circuit.key_inputs:
        if net not in keys:
            keys[net] = cnf.new_var()
        # The key is static: identical in the settled copy and at all ticks.
        v1[net] = keys[net]

    order = circuit.topological_order()

    # Settled copy under (V1, K).
    for gate in order:
        out = v1_var(gate.output)
        operands = [v1_var(net) for net in gate.input_nets()]
        encode_gate_function(cnf, gate.function, out, operands, gate.truth_table)

    # Timed expansion under (V2 from t=0, K static).
    for net in circuit.inputs:
        for t in range(ticks + 1):
            timed[(net, t)] = v2[net]
    for net in circuit.key_inputs:
        for t in range(ticks + 1):
            timed[(net, t)] = keys[net]
    for gate in order:
        delay = overrides.get(gate.name, gate.cell.delay)
        d_ticks = max(0, int(round(delay / dt)))
        for t in range(ticks + 1):
            out = cnf.new_var()
            timed[(gate.output, t)] = out
            source_tick = t - d_ticks
            operands = []
            for net in gate.input_nets():
                if source_tick < 0:
                    operands.append(v1_var(net))
                else:
                    operands.append(timed[(net, source_tick)])
            encode_gate_function(
                cnf, gate.function, out, operands, gate.truth_table
            )
    return TimedCopy(
        circuit=circuit, ticks=ticks, dt=dt, v1=v1, v2=v2, keys=keys, timed=timed
    )


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
    per launch/capture test — the default oracle :func:`tcf_attack`
    builds when handed a bare circuit.  Swap in any other
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


@dataclass
class TcfAttackResult:
    completed: bool = False
    iterations: int = 0
    unsat_at_first_iteration: bool = False
    key: Optional[Dict[str, int]] = None
    dips: List[Tuple[Dict[str, int], Dict[str, int]]] = field(default_factory=list)


def tcf_attack(
    locked: Circuit,
    oracle_circuit: Optional[Circuit] = None,
    oracle_key: Optional[Mapping[str, int]] = None,
    sample_time: float = 0.0,
    dt: float = 0.05,
    max_iterations: int = 64,
    oracle: Optional[TwoVectorOracleProtocol] = None,
) -> TcfAttackResult:
    """The timed SAT attack: DIP loop over two-vector tests.

    *locked* is the attacker's (combinational) netlist with static key
    inputs; the oracle is the activated chip measured at speed — either
    any :class:`~repro.attacks.oracle.TwoVectorOracleProtocol`
    implementation passed as *oracle*, or the default
    :class:`SimulatedTwoVectorOracle` built from *oracle_circuit* under
    *oracle_key* (possibly keyless).  Succeeds on delay locking (TDK);
    finds no DIP on glitch locking.
    """
    if oracle is None:
        if oracle_circuit is None:
            raise NetlistError("pass either `oracle` or `oracle_circuit`")
        oracle = SimulatedTwoVectorOracle(oracle_circuit, oracle_key)
    elif oracle_circuit is not None:
        raise NetlistError("pass `oracle` or `oracle_circuit`, not both")
    if sample_time <= 0:
        raise NetlistError("sample_time must be positive")
    ticks = int(round(sample_time / dt))
    solver = Solver()

    cnf = CNF()
    copy1 = encode_timed(cnf, locked, ticks, dt)
    copy2 = encode_timed(
        cnf,
        locked,
        ticks,
        dt,
        shared_v1={net: copy1.v1[net] for net in locked.inputs},
        shared_v2=copy1.v2,
    )
    xor_vars = []
    for net in locked.outputs:
        x = cnf.new_var()
        cnf.add_xor(x, copy1.sampled(net), copy2.sampled(net))
        xor_vars.append(x)
    diff = cnf.new_var()
    cnf.add_or(diff, xor_vars)
    solver.add_cnf(cnf)

    result = TcfAttackResult()
    for _ in range(max_iterations):
        if not solver.solve([diff]):
            result.completed = True
            break
        model = solver.model()
        v1 = {net: int(model[copy1.v1[net]]) for net in locked.inputs}
        v2 = {net: int(model[copy1.v2[net]]) for net in locked.inputs}
        result.dips.append((v1, v2))
        result.iterations += 1
        response = oracle.two_vector(v1, v2, sample_time)
        for copy in (copy1, copy2):
            pin = CNF(num_vars=solver.num_vars)
            constrained = encode_timed(
                pin, locked, ticks, dt, shared_keys=copy.keys
            )
            for net in locked.inputs:
                var1, var2 = constrained.v1[net], constrained.v2[net]
                pin.add_clause([var1 if v1[net] else -var1])
                pin.add_clause([var2 if v2[net] else -var2])
            for net in locked.outputs:
                value = response[net]
                if value is None:
                    continue  # metastable observation constrains nothing
                var = constrained.sampled(net)
                pin.add_clause([var if value else -var])
            solver.add_cnf(pin)

    result.unsat_at_first_iteration = result.completed and result.iterations == 0
    if result.completed and solver.solve([]):
        model = solver.model()
        result.key = {
            net: int(model[copy1.keys[net]]) for net in locked.key_inputs
        }
    return result


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
    solver = Solver()
    cnf = CNF()
    nominal = encode_timed(cnf, good, ticks, dt)
    defective = encode_timed(
        cnf,
        good,
        ticks,
        dt,
        delay_override={slow_gate: good.gates[slow_gate].cell.delay + extra_delay},
        shared_v1={net: nominal.v1[net] for net in good.inputs},
        shared_v2=nominal.v2,
        shared_keys=nominal.keys,
    )
    xor_vars = []
    for net in good.outputs:
        x = cnf.new_var()
        cnf.add_xor(x, nominal.sampled(net), defective.sampled(net))
        xor_vars.append(x)
    diff = cnf.new_var()
    cnf.add_or(diff, xor_vars)
    cnf.add_clause([diff])
    solver.add_cnf(cnf)
    if not solver.solve():
        return None
    model = solver.model()
    v1 = {net: int(model[nominal.v1[net]]) for net in good.inputs}
    v2 = {net: int(model[nominal.v2[net]]) for net in good.inputs}
    return v1, v2
