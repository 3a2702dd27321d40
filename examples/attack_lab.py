#!/usr/bin/env python3
"""Attack lab: every attack in the paper against every defense.

A matrix run on the s1238 stand-in:

* removal attack (Sec. V-C) vs SARLock / Anti-SAT / XOR / GK,
* enhanced removal + SAT (Sec. V-D) vs plain GK and withheld GK,
* TCF timed SAT (Sec. V-B) vs a delay key and vs a glitch key,
* scan measurement (Sec. VI) vs GK-only and the GK+XOR hybrid,
* AppSAT [10] vs the XOR+SARLock compound and vs GK,
* sequential unrolling SAT (no scan) vs XOR and vs GK.

Run:  python examples/attack_lab.py
"""

import os
import random
import sys

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))

from repro.attacks import (
    CombinationalOracle,
    SimulatedTwoVectorOracle,
    enhanced_removal_attack,
    removal_attack,
    scan_attack,
    tcf_attack,
)
from repro.bench import iwls_benchmark
from repro.core import GkLock, expose_gk_keys, withhold_gk
from repro.core.gk import build_gk_demo
from repro.locking import AntiSat, HybridGkXor, SarLock, XorLock
from repro.locking.base import LockedCircuit
from repro.netlist import Builder
from repro.synth import insert_delay_chain


def verdict(broken):
    return "BROKEN" if broken else "holds"


def main():
    inst = iwls_benchmark("s1238")
    circuit, clock = inst.circuit, inst.clock
    oracle = CombinationalOracle(circuit)
    rng = random.Random(5)
    print(f"target: {circuit}\n")

    # ------------------------------------------------------------------
    print("removal attack (signal-probability skew, Sec. V-C)")
    for label, locked in (
        ("SARLock", SarLock().lock(circuit, 8, rng)),
        ("Anti-SAT", AntiSat().lock(circuit, 8, rng)),
        ("XOR locking", XorLock().lock(circuit, 8, rng)),
    ):
        result = removal_attack(locked, samples=300, rng=random.Random(6))
        print(f"  vs {label:<12} -> {verdict(result.success)}")
    gk = GkLock(clock).lock(circuit, 8, random.Random(42))
    gk_view = LockedCircuit(circuit=expose_gk_keys(gk), original=circuit,
                            key={}, scheme="gk")
    result = removal_attack(gk_view, samples=300, rng=random.Random(6))
    print(f"  vs {'GK':<12} -> {verdict(result.success)}")

    # ------------------------------------------------------------------
    print("\nenhanced removal attack (locate -> remodel -> SAT, Sec. V-D)")
    plain = enhanced_removal_attack(expose_gk_keys(gk), oracle)
    print(f"  vs plain GK      -> {verdict(plain.success)} "
          f"(located {len(plain.located)} GKs, "
          f"behaviours {plain.recovered_behaviour})")
    shielded = GkLock(clock, margin=0.35).lock(circuit, 8, random.Random(43))
    for record in shielded.metadata["gks"]:
        withhold_gk(shielded.circuit, record, clock.period)
    hidden = enhanced_removal_attack(expose_gk_keys(shielded), oracle)
    print(f"  vs withheld GK   -> {verdict(hidden.success)} "
          f"({len(hidden.unresolvable_muxes)} opaque LUT structures)")

    # ------------------------------------------------------------------
    print("\nTCF timed SAT attack (Sec. V-B)")
    b = Builder("dlock")
    a = b.input("a")
    k = b.key_input("k")
    chain = insert_delay_chain(b.circuit, a, 0.5, prefix="slow")
    b.po(b.mux2(a, chain.output_net, k), "y")
    delay_locked = b.circuit
    tcf_delay = tcf_attack(
        delay_locked, SimulatedTwoVectorOracle(delay_locked, {"k": 0}), 0.3
    )
    print(f"  vs delay key (TDK-style) -> {verdict(tcf_delay.completed and tcf_delay.key == {'k': 0})} "
          f"({tcf_delay.iterations} timed DIPs)")
    gk_demo = build_gk_demo(0.2, 0.3)
    view = gk_demo.clone("view")
    view.inputs.remove("key")
    view.key_inputs.append("key")
    ob = Builder("orc")
    x = ob.input("x")
    ob.po(ob.buf(x), "y")
    tcf_gk = tcf_attack(view, SimulatedTwoVectorOracle(ob.circuit), 0.6,
                        max_iterations=8)
    print(f"  vs glitch key            -> "
          f"{verdict(not tcf_gk.unsat_at_first_iteration)} "
          f"(no DIP: a static key variable cannot glitch)")

    # ------------------------------------------------------------------
    print("\nscan-based measurement (Sec. VI's BIST weakness)")
    gk_scan = scan_attack(
        gk, expose_gk_keys(gk), clock.period,
        {r.gk.ff: r.keygen.key_out for r in gk.metadata["gks"]},
        trials=3, cycles=6,
    )
    print(f"  vs GK only  -> {verdict(gk_scan.success)} "
          f"({gk_scan.resolved} GK behaviours measured)")
    hybrid = HybridGkXor(clock).lock(circuit, 8, random.Random(11))
    hyb_scan = scan_attack(
        hybrid, expose_gk_keys(hybrid), clock.period,
        {r.gk.ff: r.keygen.key_out for r in hybrid.metadata["gks"]},
        trials=3, cycles=6,
    )
    print(f"  vs GK + XOR -> {verdict(hyb_scan.success)} "
          f"({len(hyb_scan.ambiguous)} paths confounded by XOR key bits)")

    # ------------------------------------------------------------------
    print("\nAppSAT approximate attack (paper Sec. I / [10])")
    from repro.attacks import appsat_attack, verify_key_against_oracle
    from repro.locking import CompoundLock

    compound = CompoundLock([XorLock(), SarLock()]).lock(
        circuit, 12, random.Random(8)
    )
    app = appsat_attack(compound.circuit, oracle, rng=random.Random(9))
    acc = (verify_key_against_oracle(compound.circuit, oracle, app.key,
                                     samples=48)
           if app.key else 0.0)
    print(f"  vs XOR+SARLock compound -> "
          f"{verdict(app.approximately_correct and acc >= 0.95)} "
          f"(error estimate {app.estimated_error:.3f}, accuracy {acc:.2f})")
    gk_app = appsat_attack(expose_gk_keys(gk), oracle,
                           rng=random.Random(10), max_rounds=2,
                           queries_per_round=8)
    gk_acc = (verify_key_against_oracle(expose_gk_keys(gk), oracle,
                                        gk_app.key, samples=24)
              if gk_app.key else 0.0)
    print(f"  vs GK                   -> {verdict(gk_acc > 0.9)} "
          f"(0 DIPs, best candidate accuracy {gk_acc:.2f})")

    # ------------------------------------------------------------------
    print("\nsequential unrolling SAT attack (no scan access)")
    from repro.attacks import sequential_sat_attack

    seq_xor = XorLock().lock(circuit, 4, random.Random(31))
    res_xor = sequential_sat_attack(seq_xor.circuit, circuit, frames=3)
    print(f"  vs XOR locking -> "
          f"{verdict(res_xor.completed and res_xor.key == seq_xor.key)} "
          f"({res_xor.iterations} distinguishing sequences)")
    gk_small = GkLock(clock).lock(circuit, 4, random.Random(32))
    res_gk = sequential_sat_attack(expose_gk_keys(gk_small), circuit,
                                   frames=2)
    print(f"  vs GK          -> "
          f"{verdict(not res_gk.unsat_at_first_iteration)} "
          f"(UNSAT in every time frame)")


if __name__ == "__main__":
    main()
