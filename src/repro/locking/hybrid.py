"""Hybrid GK + XOR/XNOR encryption (paper Sec. VI, Table II last pair).

The paper's strongest configuration: "we insert XOR gates to the paths
encrypted by GK to defend against the attack from BIST.  We randomly
used one half of the key-inputs to control the XOR key-gates, and the
other half is for GKs."  The XOR gates sit in the fan-in cones of the
GK-guarded flip-flops, so any scan-based measurement of a GK'd path is
confounded by unknown XOR bits (see :mod:`repro.attacks.scan`), while
the GKs keep the whole design SAT-attack-proof.  The hybrid also cuts
area: half the key bits come from single-gate XORs instead of full
GK+KEYGEN structures — Table II shows the overhead dropping from the
16-GK column to the 8 GK + 16 XOR column.

Every XOR insertion into a GK cone is timing-verified: the GK's
Eq. (5) trigger window must still contain its (already synthesized)
trigger after the extra gate delay; insertions that would break a
glitch are rolled back and another site is tried.  If the GK half's
own routed step 5 already left a GK outside its window, the lock raises
:class:`~repro.locking.base.LockingError` naming those flip-flops
before the first trial.  The trials start
from the GK flow's own post-insertion analysis of the locked netlist —
with its routed wire delays under P&R, the timing the GKs were verified
against.  The window check reads only the GK data inputs' arrivals, so
the trials keep only their fan-in cones current
(:class:`~repro.sta.timing.RegionTiming`): each re-times the new gate's
fan-out inside that region, and an XOR that reaches no GK is not
re-timed at all.  A rejected trial is dropped.
"""

from __future__ import annotations

import random
from typing import Dict, List, Set

from ..netlist.circuit import Circuit
from ..sta.clock import ClockSpec
from ..sta.timing import RegionTiming
from .base import LockedCircuit, LockingError, LockingScheme
from .registry import register_scheme
from .xor_lock import insert_xor_keygate, lockable_nets, remove_xor_keygate

__all__ = ["HybridGkXor"]


@register_scheme(
    "hybrid",
    description="hybrid GK + XOR key-gates in the GK cones (Sec. VI)",
    tags=("gk-family", "needs-clock", "sequential-only"),
    key_bits_multiple=4,
    min_key_bits=4,
    corruption_domain="timing",
)
class HybridGkXor(LockingScheme):
    """Half the key bits drive GKs, half drive XOR gates in their cones."""

    name = "gk+xor"

    def __init__(
        self,
        clock: ClockSpec,
        glitch_length: float = 1.0,
        run_pnr: bool = False,
        margin: float = 0.25,
    ) -> None:
        self.clock = clock
        self.glitch_length = glitch_length
        self.run_pnr = run_pnr
        self.margin = margin

    def lock(
        self, circuit: Circuit, num_key_bits: int, rng: random.Random
    ) -> LockedCircuit:
        from ..core.flow import GkLock  # local import breaks the cycle

        if num_key_bits < 4 or num_key_bits % 4:
            raise LockingError(
                "hybrid needs a multiple of 4 key bits "
                "(half to GKs, which consume 2 each)"
            )
        xor_bits = num_key_bits // 2
        gk_bits = num_key_bits - xor_bits
        gk_scheme = GkLock(
            self.clock,
            glitch_length=self.glitch_length,
            run_pnr=self.run_pnr,
            margin=self.margin,
        )
        base, timing = gk_scheme.lock_timed(circuit, gk_bits, rng)
        broken = base.metadata["broken_windows"]
        if broken:
            # every XOR trial would fail the window check on these GKs
            raise LockingError(
                f"the GK half left {len(broken)} GK trigger(s) outside "
                f"their Eq. (5) window after re-placement "
                f"({', '.join(broken)}); no XOR key-gate can be checked "
                "against them"
            )
        locked = base.circuit
        locked.name = f"{circuit.name}__hybrid{num_key_bits}"
        records = base.metadata["gks"]
        protected: Set[str] = set(base.metadata["protected_gates"])

        # Candidate sites: nets inside the GK'd FFs' fan-in cones (the
        # "paths encrypted by GK"), excluding GK/KEYGEN gates and POs.
        # The trials' region: those cones and the GK arms reading them
        # (the arms' other input, a KEYGEN output, no trial touches).
        po_set = set(locked.outputs)
        per_cone: List[List[str]] = []
        seen: Set[str] = set()
        region: Set[str] = set()
        for record in records:
            x_net = record.live_x_net(locked)
            region.update((record.gk.arm_a_gate, record.gk.arm_b_gate))
            cone: List[str] = []
            for gate_name in sorted(locked.fanin_cone(x_net)):
                driver = locked.gates.get(gate_name)
                if driver is None or driver.is_flip_flop:
                    continue
                region.add(gate_name)
                if driver.name in protected:
                    continue
                net = driver.output
                if net in po_set or net in seen:
                    continue
                seen.add(net)
                cone.append(net)
            rng.shuffle(cone)
            per_cone.append(cone)
        # Round-robin across cones so every GK'd path gets XOR coverage
        # before any cone gets a second gate (the point of the hybrid).
        sites: List[str] = []
        while any(per_cone):
            for cone in per_cone:
                if cone:
                    sites.append(cone.pop())
        fallback = [
            net
            for net in lockable_nets(locked)
            if net not in seen
            and locked.driver_of(net) is not None
            and locked.driver_of(net).name not in protected
        ]
        rng.shuffle(fallback)
        sites += fallback

        key: Dict[str, int] = dict(base.key)
        xor_gates: List[Dict[str, str]] = []
        index = 0
        arrivals = RegionTiming(timing, region)
        for net in sites:
            if index == xor_bits:
                break
            key_net = locked.add_key_input(f"keyin_h{index}")
            bit = rng.randint(0, 1)
            gate_name = insert_xor_keygate(locked, net, key_net, bit)
            trial = arrivals.trial(gate_name)
            if all(record.window_holds(locked, self.clock, trial)
                   for record in records):
                arrivals.keep()
                key[key_net] = bit
                xor_gates.append({"gate": gate_name, "net": net, "key": key_net})
                protected.add(gate_name)
                index += 1
            else:  # roll back; the kept arrivals still describe the netlist
                remove_xor_keygate(locked, gate_name)
        if index < xor_bits:
            raise LockingError(
                f"placed only {index}/{xor_bits} XOR key-gates without "
                "breaking a GK window"
            )
        locked.validate()
        metadata = dict(base.metadata)
        metadata["xor_gates"] = xor_gates
        metadata["protected_gates"] = sorted(protected)
        return LockedCircuit(
            circuit=locked,
            original=circuit,
            key=key,
            scheme=self.name,
            metadata=metadata,
        )
