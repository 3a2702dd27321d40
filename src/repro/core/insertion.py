"""Feasible-location analysis and per-GK timing planning.

This is the step the paper performs with PrimeTime reports: "Having
this timing information, we can determine feasible FF locations for
inserting GKs under the same clock period of the original circuit"
(Sec. IV-B).  Table I's "Ava. FF" column is exactly the output of
:func:`available_ffs`.

All GKs are planned for the paper's experimental configuration: data is
transmitted **on the glitch level** (Fig. 7(a)), the strictest scenario
(Sec. VI), with a designer-chosen glitch length (1ns in the paper).
Both GK arms get the same path delay so the rising- and falling-cycle
glitches are equally long, since the KEYGEN's toggle flip-flop
alternates transition polarity every cycle.
"""

from __future__ import annotations

from dataclasses import dataclass
from types import MappingProxyType
from typing import Dict, FrozenSet, Mapping, Optional, Tuple

from ..netlist.circuit import Circuit
from ..obs import metrics as _metrics
from ..sta.clock import ClockSpec
from ..sta.timing import TimingAnalysis, analyze
from .timing_rules import (
    TriggerWindow,
    minimum_glitch_length,
    trigger_window_off_level,
    trigger_window_on_level,
)

__all__ = ["GkPlan", "DesignPlan", "plan_gk_insertion", "plan_design",
           "available_ffs", "DEFAULT_GLITCH_LENGTH"]

#: The paper's experimental glitch length (Sec. VI).
DEFAULT_GLITCH_LENGTH = 1.0

#: Planning slack absorbing delay-chain quantization (two chains, each
#: overshooting by at most the smallest library buffer) plus wire-delay
#: drift after re-P&R.
_PLAN_MARGIN = 0.25


@dataclass(frozen=True)
class GkPlan:
    """Timing plan for one candidate GK location."""

    ff: str
    feasible: bool
    reason: str
    t_arrival: float  # data arrival at the GK input x
    lb: float  # Eq. (1)
    ub: float
    l_glitch: float  # Eq. (2) target
    d_path: float  # per-arm path delay target (both arms equal)
    d_mux: float  # D_react
    window_on: TriggerWindow  # Eq. (5)
    window_off: TriggerWindow  # Eq. (6)
    trigger_correct: float  # planned trigger for the correct (valid) arm
    trigger_wrong: float  # planned trigger for the decoy arm
    wrong_arm_violates: bool  # decoy glitch cannot stay clear of the FF window


def plan_gk_insertion(
    circuit: Circuit,
    analysis: TimingAnalysis,
    ff_name: str,
    glitch_length: float = DEFAULT_GLITCH_LENGTH,
    margin: float = _PLAN_MARGIN,
) -> GkPlan:
    """Evaluate Eqs. (2)-(6) for inserting a GK at *ff_name*'s D input."""
    ff = circuit.gates[ff_name]
    endpoint = analysis.endpoints[ff_name]
    lb, ub = analysis.endpoint_bounds(ff_name)
    clock = analysis.clock
    capture = clock.period + clock.arrival(ff_name)

    library = circuit.library
    d_mux = library.cheapest("MUX2").delay
    d_arm_gate = library.cheapest("XOR2").delay
    d_path = glitch_length - d_mux
    t_arrival = endpoint.arrival_max

    # Eq. (5): window for carrying the data on the glitch level.
    window_on = trigger_window_on_level(
        t_j=capture,
        t_hold=ff.cell.hold,
        l_glitch=glitch_length,
        d_react=d_mux,
        ub=ub,
        t_arrival=t_arrival,
        d_ready=d_path,
    )
    # Eq. (6): window for the decoy arm's glitch to stay clear.
    window_off = trigger_window_off_level(lb, ub, glitch_length, d_mux)

    min_trigger = library.cheapest("DFF").delay + library.cheapest("MUX4").delay

    def rejected(reason: str) -> GkPlan:
        return GkPlan(
            ff=ff_name, feasible=False, reason=reason,
            t_arrival=t_arrival, lb=lb, ub=ub,
            l_glitch=glitch_length, d_path=d_path, d_mux=d_mux,
            window_on=window_on, window_off=window_off,
            trigger_correct=0.0, trigger_wrong=0.0,
            wrong_arm_violates=True,
        )

    if glitch_length < minimum_glitch_length(ff.cell.setup, ff.cell.hold) + margin:
        return rejected("glitch shorter than setup+hold of the capture FF")
    if d_path < d_arm_gate:
        return rejected("glitch too short to fit the arm gate delay")
    if window_on.width <= margin:
        return rejected(
            "no room for the on-level trigger (Eq. 5 window empty): "
            f"arrival {t_arrival:.3f} + glitch {glitch_length:.3f} "
            f"vs UB {ub:.3f}"
        )
    trigger_correct = window_on.latest - margin / 2.0
    if trigger_correct <= window_on.earliest:
        return rejected("on-level trigger window narrower than the margin")
    if trigger_correct < min_trigger:
        return rejected("KEYGEN cannot trigger that early (clk->q + ADB MUX)")

    # Decoy arm: aim at the middle of the Eq. (6) window; if that
    # window is empty or unreachable the decoy transition will simply
    # violate timing under the wrong key (still a corruption).
    wrong_arm_violates = window_off.empty
    if not wrong_arm_violates:
        trigger_wrong = max(window_off.midpoint(), min_trigger)
        if not window_off.contains(trigger_wrong):
            wrong_arm_violates = True
    if wrong_arm_violates:
        trigger_wrong = max(min_trigger, lb + 0.1)
    if abs(trigger_wrong - trigger_correct) < 1e-9:
        trigger_wrong += 0.05  # the two ADB arms must differ

    return GkPlan(
        ff=ff_name, feasible=True, reason="",
        t_arrival=t_arrival, lb=lb, ub=ub,
        l_glitch=glitch_length, d_path=d_path, d_mux=d_mux,
        window_on=window_on, window_off=window_off,
        trigger_correct=trigger_correct, trigger_wrong=trigger_wrong,
        wrong_arm_violates=wrong_arm_violates,
    )


@dataclass(frozen=True)
class DesignPlan:
    """A GK plan at every flip-flop of one design, from one timing
    analysis, plus the endpoints that analysis already violates (the
    flow's ECO baseline, excluded from post-insertion triage) and the
    analysis itself, :meth:`~repro.sta.timing.TimingAnalysis.detached`
    (the flow's step 5 re-times it over the inserted gates).  Read-only:
    every lock of the design shares it."""

    plans: Mapping[str, GkPlan]
    violated: FrozenSet[str]
    timing: TimingAnalysis


def plan_design(
    circuit: Circuit,
    clock: ClockSpec,
    glitch_length: float = DEFAULT_GLITCH_LENGTH,
    wire_delay: Optional[Mapping[str, float]] = None,
    analysis: Optional[TimingAnalysis] = None,
    margin: float = _PLAN_MARGIN,
) -> Tuple[DesignPlan, bool]:
    """Time *circuit* once and plan a GK at every flip-flop.

    Without a wire-delay map or an analysis the plan is a pure function
    of the netlist and its arguments, so it is kept on the netlist
    (:meth:`~repro.netlist.circuit.Circuit.memo`) until the next edit:
    Table I's row and every GK lock of one unlocked design share one
    ``analyze`` and one planning pass.  Returns the plan and whether it
    was shared.  Each planning pass counts in ``flow.plan.computed``.
    """

    def compute() -> DesignPlan:
        timing = analysis
        if timing is None:
            timing = analyze(circuit, clock, wire_delay=wire_delay)
        _metrics.inc("flow.plan.computed")
        plans = {
            ff.name: plan_gk_insertion(
                circuit, timing, ff.name, glitch_length, margin)
            for ff in sorted(circuit.flip_flops(), key=lambda g: g.name)
        }
        violated = frozenset(
            e.ff for e in timing.setup_violations() + timing.hold_violations()
        )
        return DesignPlan(plans=MappingProxyType(plans), violated=violated,
                          timing=timing.detached())

    if wire_delay is not None or analysis is not None:
        return compute(), False
    key = ("gk-plan", clock.period, tuple(sorted(clock.skew.items())),
           clock.uncertainty, glitch_length, margin)
    return circuit.memo(key, compute)


def available_ffs(
    circuit: Circuit,
    clock: ClockSpec,
    glitch_length: float = DEFAULT_GLITCH_LENGTH,
    wire_delay: Optional[Mapping[str, float]] = None,
    analysis: Optional[TimingAnalysis] = None,
    margin: float = _PLAN_MARGIN,
) -> Dict[str, GkPlan]:
    """Plan a GK at every flip-flop; Table I counts the feasible ones.

    The plans of :func:`plan_design`, in a dict of the caller's own.
    """
    design, _shared = plan_design(
        circuit, clock, glitch_length, wire_delay, analysis, margin)
    return dict(design.plans)
