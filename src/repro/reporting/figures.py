"""Regeneration of the paper's timing figures (Figs. 4, 6, 7, 9).

Each function simulates the relevant structure with the event-driven
simulator and returns both the raw waveform data (for assertions) and
an ASCII timing diagram (for bench output), reproducing the paper's
diagrams from live simulation rather than drawings.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from ..core.gk import build_gk_demo, ideal_gk_library
from ..core.keygen import insert_keygen
from ..core.timing_rules import (
    trigger_window_off_level,
    trigger_window_on_level,
)
from ..netlist.circuit import Circuit
from ..sim.eventsim import EventSimulator, SimulationResult
from ..sim.waveform import Waveform, render_waveforms

__all__ = [
    "Figure",
    "figure4_gk_waveform",
    "figure6_keygen_waveform",
    "figure7_scenarios",
    "figure9_trigger_windows",
]


@dataclass
class Figure:
    """A regenerated figure: data series plus an ASCII rendering."""

    title: str
    diagram: str
    data: Dict[str, object]


def figure4_gk_waveform(
    da: float = 2.0,
    db: float = 3.0,
    x_value: int = 1,
    rise_at: float = 3.0,
    fall_at: float = 11.0,
    horizon: float = 16.0,
) -> Figure:
    """Fig. 4: the idealized GK's internal signals under key transitions."""
    circuit = build_gk_demo(da, db, "3a")
    sim = EventSimulator(circuit)
    sim.set_initial("x", x_value)
    sim.drive("key", [(rise_at, 1), (fall_at, 0)], initial=0)
    result = sim.run(horizon)
    nets = ["x", "key", "a_out", "b_out", "y"]
    diagram = render_waveforms(
        [result.waveforms[n] for n in nets], 0.0, horizon, resolution=0.5
    )
    glitches = result.waveforms["y"].pulses(x_value, 0.0, horizon)
    return Figure(
        title=f"Fig. 4 — GK signals (x={x_value}, DA={da}ns, DB={db}ns)",
        diagram=diagram,
        data={
            "glitches": [(p.start, p.end, p.length) for p in glitches],
            "y_changes": result.waveforms["y"].changes,
        },
    )


def figure6_keygen_waveform(
    da: float = 3.0,
    db: float = 6.0,
    period: float = 16.0,
    cycles: int = 3,
) -> Figure:
    """Fig. 6: KEYGEN ``key_out`` for the four (k1, k2) assignments.

    Uses the idealized (zero-gate-delay) library so the transition
    shifts are exactly DA and DB, as drawn in the paper.
    """
    rows: List[Waveform] = []
    data: Dict[str, object] = {}
    for k1, k2 in ((0, 0), (1, 0), (0, 1), (1, 1)):
        lib = ideal_gk_library(da, db)
        circuit = Circuit(f"keygen_{k1}{k2}", lib, clock=None)
        circuit.set_clock("clk")
        k1_net = circuit.add_key_input("k1")
        k2_net = circuit.add_key_input("k2")
        structure = insert_keygen(circuit, k1_net, k2_net, da, db)
        circuit.add_output(structure.key_out)
        sim = EventSimulator(circuit)
        sim.initialize_ffs(0)
        sim.set_initial(k1_net, k1)
        sim.set_initial(k2_net, k2)
        sim.add_clock(period, cycles)
        result = sim.run(period * cycles)
        wf = result.waveforms[structure.key_out]
        wf.net = f"(k1,k2)=({k1},{k2})"
        rows.append(wf)
        data[f"key_out_{k1}{k2}"] = wf.changes
    diagram = render_waveforms(rows, 0.0, period * cycles, resolution=1.0,
                               label_width=14)
    return Figure(
        title=f"Fig. 6 — KEYGEN key_out (DA={da}ns, DB={db}ns)",
        diagram=diagram,
        data=data,
    )


def _single_gk_capture(
    trigger: float,
    glitch_length: float,
    period: float,
    setup: float,
    hold: float,
    x_value: int = 1,
) -> Tuple[SimulationResult, Circuit]:
    """One idealized GK feeding one FF, key transition at *trigger*."""
    d_mux = 0.0
    d_path = glitch_length - d_mux
    lib = ideal_gk_library(d_path, d_path)
    # Custom FF with requested setup/hold.
    from ..netlist.cells import Cell

    lib.add(
        Cell(
            name="DFF_T",
            function="DFF",
            inputs=("D", "CLK"),
            output="Q",
            area=1.0,
            delay=0.0,
            setup=setup,
            hold=hold,
        )
    )
    circuit = Circuit("fig7", lib)
    circuit.set_clock("clk")
    x = circuit.add_input("x")
    key = circuit.add_input("key")
    circuit.add_gate("u_a", "XNOR2_I", {"A": x, "B": key}, "arm_a")
    circuit.add_gate("u_da", "DELAY_A", {"A": "arm_a"}, "a_out")
    circuit.add_gate("u_b", "XOR2_I", {"A": x, "B": key}, "arm_b")
    circuit.add_gate("u_db", "DELAY_B", {"A": "arm_b"}, "b_out")
    circuit.add_gate(
        "u_mux", "MUX2_I", {"A": "a_out", "B": "b_out", "S": key}, "y"
    )
    circuit.add_gate("u_ff", "DFF_T", {"D": "y", "CLK": "clk"}, "q")
    circuit.add_output("q")
    sim = EventSimulator(circuit)
    sim.initialize_ffs(0)
    sim.set_initial(x, x_value)
    sim.drive(key, [(trigger, 1)], initial=0)
    sim.add_clock(period, 2)
    result = sim.run(2 * period)
    return result, circuit


def figure7_scenarios(
    period: float = 8.0,
    glitch_length: float = 3.0,
    setup: float = 1.0,
    hold: float = 1.0,
) -> Figure:
    """Fig. 7: the four violation-free transmission scenarios.

    (a) data on the glitch level — glitch covers the capture window;
    (b)/(c) glitch fully before/after the window — the steady level is
    captured; (d) constant key — glitchless.  All four must capture
    cleanly (no setup/hold violation).
    """
    capture = period
    # Eq. (5) window for the on-level scenario: the glitch must start
    # before the setup edge and end after the hold edge.
    on_level_trigger = (
        max(capture + hold - glitch_length, 0.0) + (capture - setup)
    ) / 2.0
    scenarios: List[Tuple[str, Optional[float]]] = [
        ("(a) on glitch level", on_level_trigger),
        ("(b) glitch before window", capture - setup - glitch_length - 0.5),
        ("(c) glitch after window", capture + hold + 0.5),
        ("(d) constant key", None),
    ]
    rows: List[Waveform] = []
    data: Dict[str, object] = {}
    for label, trigger in scenarios:
        if trigger is None:
            result, circuit = _single_gk_capture(
                10 * period, glitch_length, period, setup, hold
            )  # transition far beyond the window of interest
        else:
            result, circuit = _single_gk_capture(
                trigger, glitch_length, period, setup, hold
            )
        wf = result.waveforms["y"]
        wf.net = label[:13]
        rows.append(wf)
        captured = [s for s in result.samples if s.ff == "u_ff" and s.time == capture]
        data[label] = {
            "captured": captured[0].value if captured else None,
            "violations": len(result.violations),
        }
    diagram = render_waveforms(rows, 0.0, 1.8 * period, resolution=0.25,
                               label_width=14)
    return Figure(
        title=(
            f"Fig. 7 — transmission scenarios (Tclk={period}ns, "
            f"L={glitch_length}ns, setup=hold={setup}ns)"
        ),
        diagram=diagram,
        data=data,
    )


def figure9_trigger_windows(
    period: float = 8.0,
    setup: float = 1.0,
    hold: float = 1.0,
    glitch_length: float = 3.0,
    d_react: float = 0.0,
) -> Figure:
    """Fig. 9: the Eq. (5)/(6) trigger boundaries for the paper's example.

    Tclk = 8ns, setup = hold = 1ns, L = 3ns, T_j = 8ns: UB = 7ns,
    LB = 1ns.  Also sweeps actual trigger times through both windows in
    simulation and reports the capture outcome at each, confirming the
    boundaries empirically.
    """
    lb, ub = hold, period - setup
    capture = period
    on_window = trigger_window_on_level(
        t_j=capture,
        t_hold=hold,
        l_glitch=glitch_length,
        d_react=d_react,
        ub=ub,
        t_arrival=0.0,
        d_ready=glitch_length,
    )
    off_window = trigger_window_off_level(lb, ub, glitch_length, d_react)

    sweep: List[Tuple[float, object, int]] = []
    for step in range(1, 16):
        trigger = step * 0.5
        result, _ = _single_gk_capture(
            trigger, glitch_length, period, setup, hold
        )
        captured = [
            s for s in result.samples if s.ff == "u_ff" and s.time == capture
        ]
        sweep.append(
            (
                trigger,
                captured[0].value if captured else None,
                len(result.violations),
            )
        )
    lines = [
        f"Eq.(5) on-level window : ({on_window.earliest:.2f}, "
        f"{on_window.latest:.2f}) ns",
        f"Eq.(6) off-level window: ({off_window.earliest:.2f}, "
        f"{off_window.latest:.2f}) ns",
        f"{'trigger':>8}{'captured':>10}{'violations':>12}",
    ]
    for trigger, value, violations in sweep:
        lines.append(f"{trigger:>8.1f}{str(value):>10}{violations:>12}")
    return Figure(
        title=(
            f"Fig. 9 — trigger windows (Tclk={period}ns, L={glitch_length}ns, "
            f"setup=hold={setup}ns)"
        ),
        diagram="\n".join(lines),
        data={
            "on_window": (on_window.earliest, on_window.latest),
            "off_window": (off_window.earliest, off_window.latest),
            "sweep": sweep,
        },
    )
