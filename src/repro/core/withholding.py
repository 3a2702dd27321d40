"""Design withholding for GKs (paper Sec. V-D, Fig. 10).

The *enhanced removal attack* locates a GK structurally, replaces it
with a keyed buffer/inverter MUX, and SAT-attacks the result.  The
defense is withholding [5][6]: store the GK's arm functions — optionally
fused with a neighbouring logic gate reused from the encrypted path —
in look-up tables whose contents are "not accessible externally".  The
netlist then shows two opaque LUTs feeding the GK MUX; without the
tables the attacker cannot prove the arms are complementary inverter/
buffer functions, so the replacement hypothesis space explodes with the
LUT input count (Sec. V-D).

:func:`withhold_gk` rewrites one inserted GK in place:

* each arm's XNOR/XOR gate becomes a LUT2 over ``(x, key)``;
* if the GK has a pre-inverter, it is absorbed (LUT2 over the raw net);
* if the GK input is driven by a private 2-input gate (read by nothing
  else), that gate is absorbed too (LUT3 over its operands and the
  key), reproducing Fig. 10's reuse of an AND gate.

The arm delay changes (LUT vs. XOR cell delay), so the achieved glitch
timing is re-verified against the Eq. (5) window; a GK whose window
cannot absorb the difference raises :class:`WithholdingError`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Tuple

from ..netlist.circuit import Circuit, Gate
from ..sim.logic import eval_function
from .flow import GkRecord
from .timing_rules import TriggerWindow

__all__ = ["WithholdingError", "WithholdingRecord", "withhold_gk"]


class WithholdingError(RuntimeError):
    """The GK's timing window cannot absorb the LUT substitution."""


@dataclass(frozen=True)
class WithholdingRecord:
    """Result of withholding one GK."""

    ff: str
    lut_gates: Tuple[str, str]  # arm A LUT, arm B LUT
    absorbed_gates: Tuple[str, ...]
    lut_inputs: Tuple[str, ...]  # operand nets (key excluded)
    new_d_path_a: float
    new_d_path_b: float
    new_window: TriggerWindow


def _arm_truth_table(
    arm_function: str,
    inner: Optional[Gate],
    num_operands: int,
) -> Tuple[int, ...]:
    """Truth table of ``arm(inner(operands), key)`` over (operands..., key)."""
    bits: List[int] = []
    for index in range(1 << (num_operands + 1)):
        operands = [(index >> i) & 1 for i in range(num_operands)]
        key = (index >> num_operands) & 1
        if inner is not None:
            x = eval_function(inner.function, operands, inner.truth_table)
        else:
            (x,) = operands
        value = eval_function(arm_function, [x, key])
        assert value is not None
        bits.append(value)
    return tuple(bits)


def withhold_gk(
    circuit: Circuit,
    record: GkRecord,
    clock_period: float,
    absorb_driver: bool = True,
) -> WithholdingRecord:
    """Rewrite *record*'s GK arms as withheld LUTs, in place."""
    gk = record.gk
    arm_a = circuit.gates[gk.arm_a_gate]
    arm_b = circuit.gates[gk.arm_b_gate]
    # Read the live connectivity: re-synthesis may have rewired the
    # recorded nets (structural hashing redirects duplicate sinks).
    key_net = circuit.gates[gk.mux_gate].pins["S"]
    (x_net,) = [net for net in arm_a.input_nets() if net != key_net]
    if set(arm_b.input_nets()) != {x_net, key_net}:
        raise WithholdingError(
            f"GK at {gk.ff}: arms no longer share operands ({x_net}, {key_net})"
        )

    # Decide what to absorb in front of the arms.
    inner: Optional[Gate] = None
    absorbed: List[str] = []
    operands: Tuple[str, ...] = (x_net,)
    if gk.pre_inverter is not None and gk.pre_inverter in circuit.gates:
        inner = circuit.gates[gk.pre_inverter]
        operands = (inner.pins["A"],)
        absorbed.append(inner.name)
    elif absorb_driver:
        driver = circuit.driver_of(x_net)
        arm_pins = {(gk.arm_a_gate, "A"), (gk.arm_b_gate, "A")}
        private = (
            driver is not None
            and not driver.is_flip_flop
            and driver.function in ("AND2", "NAND2", "OR2", "NOR2", "XOR2", "XNOR2")
            and set(circuit.fanout_pins(x_net)) == arm_pins
            and x_net not in circuit.outputs
        )
        if private:
            inner = driver
            operands = tuple(inner.input_nets())
            absorbed.append(driver.name)

    lut_cell_name = {1: "LUT2_X1", 2: "LUT3_X1"}[len(operands)]
    lut_cell = circuit.library[lut_cell_name]

    # Timing check before touching the netlist: both arms swap their
    # XNOR/XOR gate delay for the LUT delay.
    def new_d_path(old: float, arm_gate: Gate) -> float:
        return old - arm_gate.cell.delay + lut_cell.delay

    d_path_a = new_d_path(gk.d_path_a, arm_a)
    d_path_b = new_d_path(gk.d_path_b, arm_b)
    capture = clock_period  # zero-skew capture edge
    ff_cell = circuit.gates[gk.ff].cell
    arrival = record.plan.t_arrival
    if gk.pre_inverter is not None:
        # The pre-inverter disappears into the LUT: arrival reverts to
        # the raw net's, and the LUT itself is counted in d_path.
        pass
    l_min = min(d_path_a, d_path_b) + gk.d_mux
    d_ready = max(d_path_a, d_path_b)
    window = TriggerWindow(
        earliest=max(capture + ff_cell.hold - l_min - gk.d_mux, arrival + d_ready),
        latest=record.plan.ub - gk.d_mux,
    )
    if not window.contains(record.trigger_correct_achieved):
        raise WithholdingError(
            f"GK at {gk.ff}: Eq.(5) window cannot absorb the LUT delay "
            f"({record.trigger_correct_achieved:.3f} outside "
            f"({window.earliest:.3f}, {window.latest:.3f}))"
        )

    # Rewrite: arms become LUTs over (operands..., key).
    lut_names: List[str] = []
    for arm in (arm_a, arm_b):
        table = _arm_truth_table(arm.function, inner, len(operands))
        output = arm.output
        circuit.remove_gate(arm.name)
        lut_name = circuit.new_gate_name("wlut")
        pins = {f"I{i}": net for i, net in enumerate(operands)}
        pins[f"I{len(operands)}"] = key_net
        circuit.add_gate(lut_name, lut_cell.name, pins, output, truth_table=table)
        lut_names.append(lut_name)
    if inner is not None:
        if not circuit.fanout_pins(inner.output) and inner.output not in circuit.outputs:
            circuit.remove_gate(inner.name)
        else:
            absorbed.remove(inner.name)  # still needed elsewhere; kept
    circuit.validate()
    return WithholdingRecord(
        ff=gk.ff,
        lut_gates=(lut_names[0], lut_names[1]),
        absorbed_gates=tuple(absorbed),
        lut_inputs=operands,
        new_d_path_a=d_path_a,
        new_d_path_b=d_path_b,
        new_window=window,
    )
