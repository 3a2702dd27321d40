"""Event-driven gate-level timing simulation.

This is the substrate that makes the paper's glitches *real*: every gate
has a finite propagation delay, so a transition racing through the GK's
two unequal paths (delay elements A and B, Fig. 3) produces a momentary
pulse at the MUX output — the glitch — which a destination flip-flop
either samples (Fig. 7(a)) or misses (Figs. 7(b)/(c)) depending on when
the KEYGEN fires the transition.

Two delay models are provided:

* ``transport`` (default): every input change produces an output change
  after the cell delay; arbitrarily narrow pulses propagate.  This is
  the model the paper's timing analysis (Secs. III-IV) assumes.
* ``inertial``: a new output event cancels a pending one, so pulses
  narrower than the cell delay are swallowed — useful for sensitivity
  studies (see EXPERIMENTS.md).

Flip-flops sample on the rising clock edge (plus a per-FF clock-skew
offset), check setup/hold windows, and go metastable (X) on violations.
"""

from __future__ import annotations

import heapq
import itertools
from dataclasses import dataclass
from typing import Dict, Iterable, List, Sequence, Tuple

from ..netlist.circuit import Circuit, Gate, NetlistError
from ..netlist.compiled import compile_circuit
from ..obs import context as _obs
from ..obs.spans import trace_span
from .logic import LogicValue, check_logic_value, eval_function
from .waveform import Waveform

__all__ = ["TimingViolation", "FFSample", "EventSimulator", "SimulationResult"]


@dataclass(frozen=True)
class TimingViolation:
    """A setup or hold window violation observed at a flip-flop."""

    ff: str
    time: float
    kind: str  # "setup" or "hold"
    detail: str


@dataclass(frozen=True)
class FFSample:
    """One flip-flop sampling event (what the FF captured, and when)."""

    ff: str
    time: float
    value: LogicValue
    violated: bool


@dataclass
class SimulationResult:
    """Everything a run produced."""

    waveforms: Dict[str, Waveform]
    violations: List[TimingViolation]
    samples: List[FFSample]

    def samples_of(self, ff: str) -> List[FFSample]:
        return [s for s in self.samples if s.ff == ff]

    def violations_of(self, ff: str) -> List[TimingViolation]:
        return [v for v in self.violations if v.ff == ff]


_EV_NET = 0
_EV_SAMPLE = 1


class EventSimulator:
    """Simulates one :class:`Circuit` with per-cell delays."""

    def __init__(
        self,
        circuit: Circuit,
        delay_mode: str = "transport",
        glitch_threshold: float = 1.0,
    ) -> None:
        if delay_mode not in ("transport", "inertial"):
            raise ValueError(f"unknown delay mode {delay_mode!r}")
        self.circuit = circuit
        self.delay_mode = delay_mode
        #: two transitions on one net closer together than this count as
        #: a glitch pulse (default = the paper's 1ns L_glitch target)
        self.glitch_threshold = glitch_threshold
        # Run statistics, maintained unconditionally (integer bumps are
        # in the noise next to eval_function); published to repro.obs
        # metrics at the end of run() when observability is enabled.
        self.events_processed = 0
        self.peak_queue_depth = 0
        self.glitches_observed = 0
        self._last_change_time: Dict[str, float] = {}
        self._values: Dict[str, LogicValue] = {net: None for net in circuit.nets()}
        self._waveforms: Dict[str, Waveform] = {}
        self._queue: List[Tuple[float, int, int, object]] = []
        self._seq = itertools.count()
        self._pending: Dict[str, int] = {}  # gate -> seq of live event (inertial)
        self._ffs: Dict[str, Gate] = {g.name: g for g in circuit.flip_flops()}
        self._clock_skew: Dict[str, float] = {}
        self._last_d_change: Dict[str, float] = {}
        self._last_sample: Dict[str, float] = {}
        self._sample_value: Dict[str, LogicValue] = {}
        self.violations: List[TimingViolation] = []
        self.samples: List[FFSample] = []
        self.now = 0.0
        # net -> [(gate, pin)], precomputed sorted for determinism
        self._fanout: Dict[str, Tuple[Tuple[str, str], ...]] = {
            net: circuit.fanout_pins(net) for net in circuit.nets()
        }
        # FFs keyed by D (and SI) net for fast setup/hold bookkeeping
        self._d_watch: Dict[str, List[str]] = {}
        for ff in self._ffs.values():
            self._d_watch.setdefault(ff.pins["D"], []).append(ff.name)
            if "SI" in ff.pins:
                self._d_watch.setdefault(ff.pins["SI"], []).append(ff.name)

    # ------------------------------------------------------------------
    # Stimulus definition (before run)
    # ------------------------------------------------------------------

    def set_initial(self, net: str, value: LogicValue) -> None:
        """Set *net*'s value at t = -inf (no transition is produced)."""
        if net not in self._values:
            raise NetlistError(f"unknown net {net!r}")
        self._values[net] = check_logic_value(value)
        if net in self._waveforms:
            raise NetlistError("set_initial must precede run()")

    def initialize_ffs(self, value: LogicValue = 0) -> None:
        """Pretend every FF powered up holding *value* (Q nets included)."""
        check_logic_value(value)
        for ff in self._ffs.values():
            self._sample_value[ff.name] = value
            self._values[ff.output] = value

    def drive(
        self,
        net: str,
        changes: Iterable[Tuple[float, LogicValue]],
        initial: LogicValue = None,
    ) -> None:
        """Schedule explicit (time, value) changes on an input net."""
        if initial is not None:
            self.set_initial(net, initial)
        for time, value in changes:
            self._schedule(time, _EV_NET, (net, check_logic_value(value)))

    def drive_sequence(
        self,
        net: str,
        values: Sequence[LogicValue],
        period: float,
        offset: float = 0.0,
        initial: LogicValue = None,
    ) -> None:
        """Apply one value per clock period, changing at ``offset + k*period``."""
        self.drive(
            net, [(offset + k * period, v) for k, v in enumerate(values)], initial
        )

    def add_clock(
        self,
        period: float,
        cycles: int,
        first_edge: float = 0.0,
        duty: float = 0.5,
    ) -> None:
        """Drive the circuit clock with *cycles* rising edges."""
        clock = self.circuit.clock
        if clock is None:
            raise NetlistError("circuit has no clock net")
        high = period * duty
        changes: List[Tuple[float, LogicValue]] = []
        for k in range(cycles):
            edge = first_edge + k * period
            changes.append((edge, 1))
            changes.append((edge + high, 0))
        self.drive(clock, changes, initial=0)

    def set_clock_skew(self, ff_name: str, offset: float) -> None:
        """Clock arrival offset T_i for one flip-flop (Eq. (1) skew)."""
        if ff_name not in self._ffs:
            raise NetlistError(f"unknown flip-flop {ff_name!r}")
        self._clock_skew[ff_name] = offset

    # ------------------------------------------------------------------
    # Engine
    # ------------------------------------------------------------------

    def _schedule(self, time: float, kind: int, payload: object) -> int:
        seq = next(self._seq)
        heapq.heappush(self._queue, (time, kind, seq, payload))
        return seq

    def _waveform_for(self, net: str) -> Waveform:
        wf = self._waveforms.get(net)
        if wf is None:
            wf = Waveform(net, initial=self._values[net])
            self._waveforms[net] = wf
        return wf

    def run(self, until: float) -> SimulationResult:
        """Process events up to and including time *until*."""
        if _obs.ACTIVE is None:  # observability off: zero-overhead path
            return self._run(until)
        before = (self.events_processed, self.glitches_observed,
                  len(self.samples), len(self.violations))
        with trace_span(
            "sim.run", design=self.circuit.name, until=until,
            mode=self.delay_mode,
        ) as span:
            result = self._run(until)
            events = self.events_processed - before[0]
            glitches = self.glitches_observed - before[1]
            samples = len(self.samples) - before[2]
            violations = len(self.violations) - before[3]
            span.annotate(events=events, glitches=glitches,
                          samples=samples, violations=violations,
                          peak_queue_depth=self.peak_queue_depth)
        session = _obs.ACTIVE
        if session is not None:
            registry = session.registry
            registry.counter("sim.events").inc(events)
            registry.counter("sim.glitches").inc(glitches)
            registry.counter("sim.samples").inc(samples)
            registry.counter("sim.violations").inc(violations)
            registry.gauge("sim.peak_queue_depth").max(self.peak_queue_depth)
        return result

    def _run(self, until: float) -> SimulationResult:
        # Settle initial combinational values with one single-lane pass
        # over the compiled schedule (same levelized order the event
        # loop's per-gate evaluations then perturb).
        compiled = compile_circuit(self.circuit)
        plane_v = [0] * compiled.num_nets
        plane_k = [0] * compiled.num_nets
        values = self._values
        for net_id in range(compiled.num_sources):
            v = values.get(compiled.net_names[net_id])
            if v is not None:
                plane_v[net_id] = v
                plane_k[net_id] = 1
        compiled.run_planes(plane_v, plane_k, 1)
        for net, net_id in zip(compiled.out_names, compiled.out_ids):
            values[net] = (plane_v[net_id] & 1) if plane_k[net_id] & 1 else None
        for net in self._values:
            self._waveform_for(net)

        queue = self._queue
        while queue and queue[0][0] <= until:
            if len(queue) > self.peak_queue_depth:
                self.peak_queue_depth = len(queue)
            time, kind, seq, payload = heapq.heappop(self._queue)
            self.events_processed += 1
            self.now = time
            if kind == _EV_NET:
                net, value = payload  # type: ignore[misc]
                if self.delay_mode == "inertial":
                    driver = self.circuit.driver_of(net)
                    if driver is not None and self._pending.get(driver.name) not in (
                        None,
                        seq,
                    ):
                        continue  # cancelled by a newer event on this gate
                    if driver is not None:
                        self._pending.pop(driver.name, None)
                self._apply_net_change(net, value)
            else:
                self._do_sample(payload)  # type: ignore[arg-type]
        return SimulationResult(
            waveforms=dict(self._waveforms),
            violations=list(self.violations),
            samples=list(self.samples),
        )

    def _apply_net_change(self, net: str, value: LogicValue) -> None:
        if self._values[net] == value:
            return
        self._values[net] = value
        self._waveform_for(net).record(self.now, value)
        # Two consecutive transitions on one net form a pulse; a pulse
        # narrower than the threshold is a glitch (the paper's subject).
        previous = self._last_change_time.get(net)
        self._last_change_time[net] = self.now
        if previous is not None and self.now - previous < self.glitch_threshold:
            self.glitches_observed += 1

        if net == self.circuit.clock and value == 1:
            for ff_name in sorted(self._ffs):
                skew = self._clock_skew.get(ff_name, 0.0)
                self._schedule(self.now + skew, _EV_SAMPLE, ff_name)

        for ff_name in self._d_watch.get(net, ()):
            self._note_data_change(ff_name)

        for gate_name, _pin in self._fanout.get(net, ()):
            gate = self.circuit.gates[gate_name]
            if gate.is_flip_flop:
                continue  # FF D/CLK handled above
            operands = [self._values[n] for n in gate.input_nets()]
            new_value = eval_function(gate.function, operands, gate.truth_table)
            seq = self._schedule(
                self.now + gate.cell.delay, _EV_NET, (gate.output, new_value)
            )
            if self.delay_mode == "inertial":
                self._pending[gate_name] = seq

    # ------------------------------------------------------------------
    # Flip-flop behaviour
    # ------------------------------------------------------------------

    def _note_data_change(self, ff_name: str) -> None:
        """Bookkeeping when a FF's data input toggles: hold check."""
        self._last_d_change[ff_name] = self.now
        last_sample = self._last_sample.get(ff_name)
        ff = self._ffs[ff_name]
        if last_sample is not None and last_sample <= self.now < last_sample + ff.cell.hold:
            self.violations.append(
                TimingViolation(
                    ff=ff_name,
                    time=self.now,
                    kind="hold",
                    detail=(
                        f"data changed {self.now - last_sample:.3f}ns after the "
                        f"clock edge at {last_sample:.3f}ns (hold {ff.cell.hold}ns)"
                    ),
                )
            )
            self._corrupt_last_sample(ff_name)

    def _corrupt_last_sample(self, ff_name: str) -> None:
        """Metastability: the violated sample resolves to X."""
        ff = self._ffs[ff_name]
        self._sample_value[ff_name] = None
        launch = self._last_sample[ff_name] + ff.cell.delay
        self._schedule(max(launch, self.now), _EV_NET, (ff.output, None))
        for i in range(len(self.samples) - 1, -1, -1):
            if self.samples[i].ff == ff_name:
                old = self.samples[i]
                self.samples[i] = FFSample(ff_name, old.time, None, True)
                break

    def _do_sample(self, ff_name: str) -> None:
        ff = self._ffs[ff_name]
        self._last_sample[ff_name] = self.now
        data_net = ff.pins["D"]
        if ff.function == "SDFF":
            select = self._values[ff.pins["SE"]]
            if select == 1:
                data_net = ff.pins["SI"]
            elif select is None:
                data_net = None  # unknown mux select -> X capture
        value = self._values[data_net] if data_net is not None else None

        violated = False
        last_change = self._last_d_change.get(ff_name)
        if last_change is not None and self.now - last_change < ff.cell.setup:
            violated = True
            self.violations.append(
                TimingViolation(
                    ff=ff_name,
                    time=self.now,
                    kind="setup",
                    detail=(
                        f"data changed {self.now - last_change:.3f}ns before the "
                        f"clock edge (setup {ff.cell.setup}ns)"
                    ),
                )
            )
            value = None

        self.samples.append(FFSample(ff_name, self.now, value, violated))
        self._sample_value[ff_name] = value
        self._schedule(self.now + ff.cell.delay, _EV_NET, (ff.output, value))

    # ------------------------------------------------------------------
    # Inspection
    # ------------------------------------------------------------------

    def value(self, net: str) -> LogicValue:
        return self._values[net]

    def waveform(self, net: str) -> Waveform:
        if net not in self._waveforms:
            raise NetlistError(f"net {net!r} was not simulated yet")
        return self._waveforms[net]
