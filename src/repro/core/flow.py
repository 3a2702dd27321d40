"""The GK encryption design flow (paper Sec. IV-B) and the GkLock scheme.

The flow mirrors the paper's tool sequence step for step:

1. synthesize + P&R + STA the original design (our substrates);
2. determine feasible FF locations under the *same clock period*
   (:func:`repro.core.insertion.plan_design`; without P&R the plan is
   the unlocked design's own, shared with Table I and every other lock
   of that netlist);
3. pick locations, choose each GK's behaviour/structure
   (:mod:`repro.core.strategy`), splice in the GK and its KEYGEN with
   constraint-synthesized delay elements;
4. re-synthesize with the delay paths protected (design constraints);
5. re-run STA and triage the reported violations: a violation whose
   worst path runs through a deliberately delayed GK/KEYGEN path is a
   **false** violation (the glitch timing was verified at insertion);
   any other is a **true** violation.  The paper removes that GK and
   retries at another feasible location; :class:`GkLock` keeps the GK
   and only reports the true violations, in
   ``metadata["true_violations"]`` and the ``flow.gk.true_violations``
   metric, and every GK whose trigger left its Eq. (5) window, in
   ``metadata["broken_windows"]`` and ``flow.gk.broken_windows`` (only
   the routed flow's re-placement can move one).  Without P&R, when
   step 4 changed nothing, step 5 re-times the plan's own analysis over
   the inserted gates instead of timing the whole design again.

The correct key assigns each GK's 2-bit KEYGEN key to the transitional
mode whose trigger time parks the glitch over the capture window; all
other keys corrupt the captured bit (cleanly or metastably).
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Dict, List, Mapping, Optional, Sequence, Set, Tuple

from ..locking.base import LockedCircuit, LockingError, LockingScheme
from ..locking.registry import register_scheme
from ..netlist.circuit import Circuit
from ..obs import metrics as _metrics
from ..obs.spans import trace_span
from ..pnr.placer import place
from ..pnr.router import route
from ..sta.clock import ClockSpec
from ..sta.timing import TimingAnalysis, analyze
from ..synth.optimize import optimize
from .gk import GkStructure, insert_gk
from .insertion import DEFAULT_GLITCH_LENGTH, GkPlan, plan_design
from .keygen import KeygenStructure, insert_keygen
from .strategy import GkConfig, choose_config
from .timing_rules import TriggerWindow

__all__ = ["GkRecord", "GkLock", "expose_gk_keys", "gk_trigger_window",
           "scheme_registry", "build_scheme"]


def gk_trigger_window(
    gk: GkStructure,
    plan: GkPlan,
    circuit: Circuit,
    clock: ClockSpec,
    arrival: float,
) -> TriggerWindow:
    """Eq. (5)'s trigger window of an inserted GK, from its *achieved*
    arm delays, with the data arriving at its input ``x`` at *arrival*.
    """
    capture = clock.period + clock.arrival(gk.ff)
    l_min = min(gk.glitch_length_rise, gk.glitch_length_fall)
    return TriggerWindow(
        earliest=max(capture + circuit.gates[gk.ff].cell.hold - l_min
                     - gk.d_mux,
                     arrival + max(gk.d_path_a, gk.d_path_b)),
        latest=plan.ub - gk.d_mux,
    )


@dataclass
class GkRecord:
    """Everything about one successfully inserted GK."""

    gk: GkStructure
    keygen: KeygenStructure
    config: GkConfig
    plan: GkPlan
    correct_key: Tuple[int, int]
    trigger_correct_achieved: float
    trigger_decoy_achieved: float
    window_on_achieved: TriggerWindow

    @property
    def all_gate_names(self) -> Tuple[str, ...]:
        return self.gk.gate_names + self.keygen.gate_names

    @property
    def key_nets(self) -> Tuple[str, str]:
        return (self.keygen.k1_net, self.keygen.k2_net)

    def live_x_net(self, circuit: Circuit) -> str:
        """The GK data input as currently wired (re-synthesis may have
        redirected the recorded net to a structurally hashed twin)."""
        key_net = circuit.gates[self.gk.mux_gate].pins["S"]
        arm = circuit.gates[self.gk.arm_a_gate]
        (x_net,) = [n for n in arm.input_nets() if n != key_net]
        return x_net

    def window_holds(
        self,
        circuit: Circuit,
        clock: ClockSpec,
        arrival_max: Mapping[str, float],
    ) -> bool:
        """Does the correct-key trigger still sit inside Eq. (5)'s
        window, with the data input's arrival read from *arrival_max*?"""
        window = gk_trigger_window(self.gk, self.plan, circuit, clock,
                                   arrival_max[self.live_x_net(circuit)])
        return window.contains(self.trigger_correct_achieved)


@register_scheme(
    "gk",
    description="Glitch Key-gate timing-domain locking (the paper)",
    tags=("gk-family", "needs-clock", "sequential-only"),
    key_bits_multiple=2,
    min_key_bits=2,
    corruption_domain="timing",
)
class GkLock(LockingScheme):
    """Glitch Key-gate logic locking (the paper's contribution).

    Each GK consumes two key bits (its KEYGEN's mode select), matching
    the paper's accounting: 4/8/16 GKs -> 8/16/32 key-inputs.

    Args:
        clock: The design's clock spec; the flow never changes the
            period ("we adopt the same clock period", Sec. IV-B).
        glitch_length: Target L_glitch (the paper uses 1ns).
        run_pnr: Run placement/routing before and after insertion so
            wire delays enter the timing picture.  Off by default; the
            committed Table II runs without it (``run_pnr=False`` in
            :mod:`repro.reporting.tables` and the campaign worker), and
            so do the unit tests, for speed.
        candidate_ffs: Optional whitelist of FF names (e.g. the
            Encrypt-Flip-Flop group of [4]).
        margin: Planning margin absorbing delay quantization.
        wire_drift_waiver: With ``run_pnr``, the full re-placement after
            insertion perturbs every wire slightly (our placer is not
            incremental).  Violations on untouched paths smaller than
            this are classified as placement drift, not true violations.
    """

    name = "gk"

    def __init__(
        self,
        clock: ClockSpec,
        glitch_length: float = DEFAULT_GLITCH_LENGTH,
        run_pnr: bool = False,
        candidate_ffs: Optional[Sequence[str]] = None,
        margin: float = 0.25,
        wire_drift_waiver: float = 0.08,
    ) -> None:
        self.clock = clock
        self.glitch_length = glitch_length
        self.run_pnr = run_pnr
        self.candidate_ffs = set(candidate_ffs) if candidate_ffs is not None else None
        self.margin = margin
        self.wire_drift_waiver = wire_drift_waiver

    # ------------------------------------------------------------------

    def lock(
        self, circuit: Circuit, num_key_bits: int, rng: random.Random
    ) -> LockedCircuit:
        return self.lock_timed(circuit, num_key_bits, rng)[0]

    def lock_timed(
        self, circuit: Circuit, num_key_bits: int, rng: random.Random
    ) -> Tuple[LockedCircuit, TimingAnalysis]:
        """:meth:`lock`, plus the post-insertion timing analysis of the
        locked netlist (with routed wire delays under ``run_pnr``)."""
        if num_key_bits < 2 or num_key_bits % 2:
            raise LockingError("each GK uses 2 key bits; width must be even")
        count = num_key_bits // 2
        locked_name = f"{circuit.name}__gk{num_key_bits}"

        with trace_span("flow.gk_lock", design=circuit.name, gks=count):
            locked: Optional[Circuit] = None
            wire_delay = None
            analysis = None
            if self.run_pnr:
                # Routed wire delays belong to the clone's own layout,
                # so a P&R lock plans on its clone.
                locked = circuit.clone(locked_name)
                with trace_span("flow.pnr"):
                    wire_delay = route(place(locked)).wire_delay
                with trace_span("flow.sta.baseline"):
                    analysis = analyze(locked, self.clock,
                                       wire_delay=wire_delay)
            with trace_span("flow.plan") as plan_span:
                # Without P&R the plan is *circuit*'s own: the clone made
                # below is structurally identical, and Table I's row and
                # every other lock of *circuit* reuse it.
                design, shared = plan_design(
                    circuit if locked is None else locked,
                    self.clock,
                    self.glitch_length,
                    analysis=analysis,
                    margin=self.margin,
                )
                plans = dict(design.plans)
                baseline_violated = design.violated
                candidates = [
                    name for name, plan in plans.items() if plan.feasible
                ]
                if self.candidate_ffs is not None:
                    candidates = [
                        n for n in candidates if n in self.candidate_ffs
                    ]
                plan_span.annotate(feasible=len(candidates),
                                   ffs=len(plans), shared=shared)
            if len(candidates) < count:
                raise LockingError(
                    f"{circuit.name}: only {len(candidates)} feasible FFs for "
                    f"{count} GKs"
                )
            if locked is None:
                locked = circuit.clone(locked_name)
            order = list(candidates)
            rng.shuffle(order)

            records: List[GkRecord] = []
            key: Dict[str, int] = {}
            index = 0
            rejected: List[str] = []
            with trace_span("flow.insert") as insert_span:
                for ff_name in order:
                    if len(records) == count:
                        break
                    record = self._try_insert(
                        locked, plans[ff_name], rng, index
                    )
                    if record is None:
                        # The paper's repeat-the-procedure loop: roll back
                        # and retry at the next feasible location.
                        rejected.append(ff_name)
                        _metrics.inc("flow.gk.retries")
                        continue
                    records.append(record)
                    _metrics.inc("flow.gk.inserted")
                    k1, k2 = record.correct_key
                    key[record.keygen.k1_net] = k1
                    key[record.keygen.k2_net] = k2
                    index += 1
                insert_span.annotate(inserted=len(records),
                                     retries=len(rejected))
            if len(records) < count:
                raise LockingError(
                    f"{circuit.name}: verified only {len(records)}/{count} "
                    f"GKs (rejected at {len(rejected)} locations)"
                )

            protected: Set[str] = set()
            for record in records:
                protected.update(record.all_gate_names)

            # Step 4: re-synthesis under design constraints.
            with trace_span("flow.resynth"):
                changes = optimize(locked, protected=protected)

            # Step 5: post-insertion STA + true/false violation triage.
            if self.run_pnr:
                with trace_span("flow.pnr.post"):
                    wire_delay = route(place(locked)).wire_delay
            with trace_span("flow.sta.post") as post_span:
                if self.run_pnr or changes:
                    post = analyze(locked, self.clock, wire_delay=wire_delay)
                else:
                    # *locked* is the planned netlist plus the kept GKs
                    # (rolled-back ones left nothing), so re-time only
                    # what their insertion reached.
                    post = design.timing.retimed(
                        [name for record in records
                         for name in (*record.all_gate_names, record.gk.ff)],
                        circuit=locked,
                    )
                false_violations, true_violations, drift_waived = self._triage(
                    post, records, baseline_violated
                )
                broken_windows = [
                    record.gk.ff for record in records
                    if not record.window_holds(locked, self.clock,
                                               post.arrival_max)
                ]
                post_span.annotate(
                    false_violations=len(false_violations),
                    true_violations=len(true_violations),
                    drift_waived=len(drift_waived),
                    broken_windows=len(broken_windows),
                )
            _metrics.inc("flow.gk.false_violations", len(false_violations))
            _metrics.inc("flow.gk.true_violations", len(true_violations))
            _metrics.inc("flow.gk.drift_waived", len(drift_waived))
            _metrics.inc("flow.gk.broken_windows", len(broken_windows))
        return LockedCircuit(
            circuit=locked,
            original=circuit,
            key=key,
            scheme=self.name,
            metadata={
                "gks": records,
                "protected_gates": sorted(protected),
                "plans": plans,
                "glitch_length": self.glitch_length,
                "clock": self.clock,
                "false_violations": false_violations,
                "true_violations": true_violations,
                "drift_waived_violations": drift_waived,
                "broken_windows": broken_windows,
                "rejected_locations": rejected,
            },
        ), post

    # ------------------------------------------------------------------

    def _try_insert(
        self,
        locked: Circuit,
        plan: GkPlan,
        rng: random.Random,
        index: int,
    ) -> Optional[GkRecord]:
        """Insert one GK + KEYGEN; verify the achieved timing; roll back
        on failure (the paper's repeat-the-procedure loop)."""
        config = choose_config(rng)
        k1 = locked.add_key_input(f"keyin_g{2 * index}")
        k2 = locked.add_key_input(f"keyin_g{2 * index + 1}")
        key_out = locked.new_net("keyout")

        gk = insert_gk(
            locked,
            plan.ff,
            key_out,
            d_path_a=plan.d_path,
            d_path_b=plan.d_path,
            variant=config.variant,
            pre_invert=config.pre_invert,
        )
        # Re-derive the Eq. (5) window from *achieved* arm delays.
        pre_inv_delay = (
            locked.library.cheapest("INV").delay if config.pre_invert else 0.0
        )
        window = gk_trigger_window(gk, plan, locked, self.clock,
                                   plan.t_arrival + pre_inv_delay)
        trigger_correct = window.latest - self.margin / 2.0
        if trigger_correct <= window.earliest:
            self._rollback(locked, gk, None, k1, k2)
            return None

        trigger_decoy = plan.trigger_wrong
        if config.correct_mode == "shift_a":
            targets = (trigger_correct, trigger_decoy)
        else:
            targets = (trigger_decoy, trigger_correct)
        keygen = insert_keygen(
            locked, k1, k2, targets[0], targets[1], key_out=key_out
        )
        achieved_correct = keygen.trigger_of_mode(config.correct_mode)
        achieved_decoy = keygen.trigger_of_mode(config.decoy_mode)
        assert achieved_correct is not None and achieved_decoy is not None
        if not window.contains(achieved_correct):
            self._rollback(locked, gk, keygen, k1, k2)
            return None

        return GkRecord(
            gk=gk,
            keygen=keygen,
            config=config,
            plan=plan,
            correct_key=config.correct_key,
            trigger_correct_achieved=achieved_correct,
            trigger_decoy_achieved=achieved_decoy,
            window_on_achieved=window,
        )

    @staticmethod
    def _rollback(
        locked: Circuit,
        gk: GkStructure,
        keygen: Optional[KeygenStructure],
        k1: str,
        k2: str,
    ) -> None:
        locked.reconnect_pin(gk.ff, "D", gk.raw_net)
        for name in gk.gate_names:
            locked.remove_gate(name)
        if keygen is not None:
            for name in keygen.gate_names:
                locked.remove_gate(name)
        for net in (k1, k2):
            locked.key_inputs.remove(net)
            locked.release_driver(net)

    # ------------------------------------------------------------------

    def _triage(
        self,
        post: TimingAnalysis,
        records: List[GkRecord],
        baseline_violated: Set[str] = frozenset(),
    ) -> Tuple[List[str], List[str], List[str]]:
        """Split violated endpoints into expected (false) and true ones.

        A violation is *false* when the worst path runs through gates of
        a recorded GK/KEYGEN structure: the delay was deliberately
        inserted and the glitch timing was verified pin-level at
        insertion time.  Endpoints violated in the pre-insertion (ECO)
        baseline are skipped; sub-waiver misses on untouched paths are
        placement drift.  Anything else is a true violation.
        """
        structure_gates: Set[str] = set()
        for record in records:
            structure_gates.update(record.all_gate_names)
        false_violations: List[str] = []
        true_violations: List[str] = []
        drift_waived: List[str] = []
        for endpoint in post.setup_violations() + post.hold_violations():
            if endpoint.ff in baseline_violated:
                continue
            path = post.critical_path_to(endpoint.data_net)
            through = set()
            for net in path:
                driver = post.circuit.driver_of(net)
                if driver is not None:
                    through.add(driver.name)
            if through & structure_gates:
                false_violations.append(endpoint.ff)
            elif (
                min(endpoint.setup_slack, endpoint.hold_slack)
                > -self.wire_drift_waiver
            ):
                drift_waived.append(endpoint.ff)
            else:
                true_violations.append(endpoint.ff)
        return false_violations, true_violations, drift_waived


def scheme_registry(clock: ClockSpec) -> Dict[str, "object"]:
    """Name -> zero-arg factory for every locking scheme in the repo.

    A compatibility view over :mod:`repro.locking.registry` — the one
    authoritative table, shared by the CLI's ``--scheme`` flag and the
    campaign workers' ``lock``/``attack`` job kinds (which run in
    separate processes and must resolve names identically).
    """
    from ..locking import registry as _registry

    return {
        info.name: (lambda info=info: info.build(clock))
        for info in _registry.scheme_infos()
    }


def build_scheme(name: str, clock: ClockSpec) -> LockingScheme:
    """Instantiate the locking scheme registered under *name*."""
    from ..locking import registry as _registry

    return _registry.build_scheme(name, clock)


def expose_gk_keys(locked: LockedCircuit) -> Circuit:
    """The attacker's preprocessing of Sec. VI.

    "We removed the KEYGEN of each GK and treated its key-input as the
    key-input of the design."  Returns a new sequential circuit where
    every KEYGEN is gone and each GK's key wire is a primary key input
    (one Boolean key bit per GK, as the SAT attack models it).
    """
    if locked.scheme != "gk" and "gks" not in locked.metadata:
        raise ValueError("expose_gk_keys needs a GK-locked circuit")
    stripped = locked.circuit.clone(f"{locked.circuit.name}__exposed")
    for record in locked.metadata["gks"]:
        for name in record.keygen.gate_names:
            stripped.remove_gate(name)
        for net in (record.keygen.k1_net, record.keygen.k2_net):
            stripped.key_inputs.remove(net)
            stripped.release_driver(net)
        stripped.add_key_input(record.keygen.key_out)
    stripped.validate()
    return stripped
