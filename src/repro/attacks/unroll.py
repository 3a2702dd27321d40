"""Sequential SAT attack by time-frame unrolling.

The classic SAT attack assumes scan access (pseudo-PI/PO visibility).
When scan is locked or absent, the attacker can still unroll the
sequential circuit over T time frames — chaining each frame's flip-flop
inputs to the next frame's flip-flop outputs, with the reset state
pinned — and search for a *distinguishing input sequence*: per-frame
primary inputs making two key candidates disagree at some primary
output in some frame.  This is the model-checking-flavoured attack
family the logic-locking literature developed after [11] (e.g. KC2),
and the natural "what about sequential attacks?" question the paper
leaves open.

The attack is :func:`~repro.attacks.sat_attack.dip_loop` on the locked
netlist's :func:`~repro.netlist.transform.unrolled_view`: the miter's
copies, its DIP pins and its spans (``attack.sequential*``) are the
combinational attack's, and frame 0 folds through the reset constants.

The reproduction's answer: unrolling does not help against GKs.  The GK
key bits are combinationally non-influential in *every* time frame, so
the unrolled miter is exactly as UNSAT as the combinational one — while
sequential XOR locking falls to this attack without any scan access.
"""

from __future__ import annotations

from ..netlist.circuit import Circuit, NetlistError
from ..netlist.transform import unrolled_view
from ..sim.cyclesim import CycleSimulator
from .sat_attack import SatAttackResult, _interface_map, dip_loop

__all__ = ["sequential_sat_attack"]


def sequential_sat_attack(
    locked_sequential: Circuit,
    original: Circuit,
    frames: int = 4,
    max_iterations: int = 64,
) -> SatAttackResult:
    """Run the T-frame unrolling attack (no scan access assumed).

    *original* plays the activated chip: it answers each distinguishing
    input sequence (``result.dips``, one input dict per frame) with the
    reference PO trace from reset.
    """
    if not locked_sequential.flip_flops():
        raise NetlistError("sequential attack needs a sequential netlist")
    view = unrolled_view(locked_sequential, frames)
    oracle_po = _interface_map(locked_sequential, original)
    pis = locked_sequential.inputs

    def query(pattern):
        sequence = [{net: pattern[(net, t)] for net in pis}
                    for t in range(frames)]
        trace = CycleSimulator(original, reset_value=0).run(sequence)
        return sequence, {
            (net, t): value
            for t, outputs in enumerate(trace)
            for net, value in outputs.items()
        }

    return dip_loop(
        "sequential", view,
        {(net, t): (oracle_po[net], t) for net, t in view.outputs},
        query, max_iterations,
    )
