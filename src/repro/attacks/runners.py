"""Registered runners: the seven attack families, one signature each.

Every runner takes an :class:`~repro.attacks.registry.AttackContext`
and returns an :class:`~repro.attacks.outcome.AttackOutcome`: this is
where each family's idiosyncratic result dataclass is normalized, next
to the call that produced it.  Importing this module fills the attack
registry (it is the registry's provider module).

Conventions shared by all runners:

* the attacker netlist is ``context.target()`` — the exposed Boolean
  key view for GK-family schemes, the locked netlist otherwise;
* ``key_correct`` / ``corruption`` come from
  :func:`~repro.attacks.outcome.score_recovery`, i.e. designer-side
  equivalence against the original (for GK designs this is the
  Boolean-domain check: glitch-blindness makes it pass for any key,
  which the leaderboard deliberately shows);
* oracle queries count per query object (``query_count``); oracle-free
  attacks report the validation queries they chose to spend.
"""

from __future__ import annotations

import time
from contextlib import nullcontext

from ..netlist.transform import combinational_circuit
from .oracle import CombinationalOracle
from .outcome import AttackOutcome, score_recovery
from .registry import AttackContext, register_attack

__all__: list = []


def _solver(context: AttackContext, attack: str, circuit, oracle):
    """Context manager yielding the SAT solver for *attack* on *circuit*.

    With the ``warm_start`` param on and a context cache, the solver is
    seeded from the cache's clause pool for this netlist, attack family
    and *oracle*, and persists its own pool on a normal exit
    (:func:`~repro.attacks.warm_start.warm_solver`).  Otherwise it
    yields ``None``: the attack makes its own fresh solver.
    """
    if context.cache is None or not context.param("warm_start", False):
        return nullcontext()
    from .warm_start import warm_solver

    return warm_solver(context.cache, circuit, attack, oracle)


@register_attack(
    "sat",
    description="the SAT (DIP-loop) attack of Subramanyan et al.",
    tags=("oracle:io",),
    params=("max_iterations", "warm_start"),
)
def _run_sat(context: AttackContext) -> AttackOutcome:
    from .sat_attack import sat_attack

    target = context.target()
    oracle = CombinationalOracle(context.locked.original)
    with _solver(context, "sat", target, oracle) as solver:
        start = time.perf_counter()
        result = sat_attack(
            target, oracle,
            max_iterations=context.param("max_iterations", 128),
            solver=solver,
        )
        wall = time.perf_counter() - start
    key_correct, corruption = score_recovery(
        context.locked.original, target, result.key, rng=context.rng(0xEC)
    )
    return AttackOutcome(
        attack="sat",
        completed=result.completed,
        success=bool(result.completed and key_correct),
        key=result.key,
        key_correct=key_correct,
        oracle_queries=oracle.query_count,
        wall_time=wall,
        corruption=corruption,
        detail={
            "iterations": result.iterations,
            "unsat_at_first_iteration": result.unsat_at_first_iteration,
        },
    )


@register_attack(
    "appsat",
    description="AppSAT approximate deobfuscation (Shamsi et al.)",
    tags=("oracle:io", "approximate"),
    params=("dips_per_round", "queries_per_round", "error_threshold",
            "max_rounds", "warm_start"),
)
def _run_appsat(context: AttackContext) -> AttackOutcome:
    from .appsat import appsat_attack

    target = context.target()
    oracle = CombinationalOracle(context.locked.original)
    with _solver(context, "appsat", target, oracle) as solver:
        start = time.perf_counter()
        result = appsat_attack(
            target, oracle,
            rng=context.rng(1),
            dips_per_round=context.param("dips_per_round", 2),
            queries_per_round=context.param("queries_per_round", 24),
            error_threshold=context.param("error_threshold", 0.0),
            max_rounds=context.param("max_rounds", 16),
            solver=solver,
        )
        wall = time.perf_counter() - start
    key_correct, corruption = score_recovery(
        context.locked.original, target, result.key, rng=context.rng(0xEC)
    )
    return AttackOutcome(
        attack="appsat",
        completed=result.settled,
        success=result.approximately_correct,
        key=result.key,
        key_correct=key_correct,
        oracle_queries=oracle.query_count,
        wall_time=wall,
        corruption=corruption,
        detail={
            "dip_iterations": result.dip_iterations,
            "random_queries": result.random_queries,
            "estimated_error": result.estimated_error,
        },
    )


@register_attack(
    "removal",
    description="signal-skew removal of point-function blocks",
    tags=("oracle-free",),
    params=("samples",),
)
def _run_removal(context: AttackContext) -> AttackOutcome:
    from .removal import removal_attack

    oracle = CombinationalOracle(context.locked.original)
    start = time.perf_counter()
    result = removal_attack(
        context.locked,
        oracle=oracle,
        samples=context.param("samples", 300),
        rng=context.rng(2),
    )
    wall = time.perf_counter() - start
    corruption = None
    if result.restored_accuracy is not None:
        corruption = 1.0 - result.restored_accuracy
    return AttackOutcome(
        attack="removal",
        completed=True,
        success=result.success,
        key=None,
        key_correct=None,
        oracle_queries=oracle.query_count,
        wall_time=wall,
        corruption=corruption,
        detail={
            "located": len(result.located),
            "removed_nets": len(result.removed_nets),
            "gates_swept": result.gates_swept,
        },
    )


@register_attack(
    "enhanced_removal",
    description="Sec. V-D structural GK removal + SAT on the rest",
    tags=("oracle:io", "gk-specific"),
    params=("max_iterations", "verify_samples"),
)
def _run_enhanced_removal(context: AttackContext) -> AttackOutcome:
    from .enhanced_removal import enhanced_removal_attack

    target = context.target()
    oracle = CombinationalOracle(context.locked.original)
    start = time.perf_counter()
    result = enhanced_removal_attack(
        target, oracle,
        max_iterations=context.param("max_iterations", 128),
        verify_samples=context.param("verify_samples", 64),
        rng=context.rng(3),
    )
    wall = time.perf_counter() - start
    sat = result.sat_result
    key = sat.key if sat is not None else None
    key_correct = corruption = None
    if result.remodeled is not None:
        key_correct, corruption = score_recovery(
            context.locked.original, result.remodeled, key,
            rng=context.rng(0xEC),
        )
    return AttackOutcome(
        attack="enhanced_removal",
        completed=sat is not None and sat.completed,
        success=result.success,
        key=key,
        key_correct=key_correct,
        oracle_queries=oracle.query_count,
        wall_time=wall,
        corruption=corruption,
        detail={
            "located": len(result.located),
            "unresolvable_muxes": len(result.unresolvable_muxes),
            "key_accuracy": result.key_accuracy,
        },
    )


@register_attack(
    "tcf",
    description="timed SAT attack over two-vector tests (TCF encoding)",
    tags=("oracle:timing", "combinational-only"),
    params=("sample_time", "dt", "max_iterations"),
)
def _run_tcf(context: AttackContext) -> AttackOutcome:
    from .tcf import SimulatedTwoVectorOracle, tcf_attack

    target = combinational_circuit(context.target())
    # The activated chip on the tester: the locked netlist itself under
    # the correct key (scan access supplies state controllability for
    # sequential designs — the same reduction the attacker ran).
    chip = combinational_circuit(context.locked.circuit)
    default_sample = context.clock.period if context.clock else 2.0
    sample_time = context.param("sample_time", float(default_sample))
    oracle = SimulatedTwoVectorOracle(chip, context.locked.key)
    start = time.perf_counter()
    result = tcf_attack(
        target,
        oracle,
        sample_time,
        dt=context.param("dt", 0.25),
        max_iterations=context.param("max_iterations", 32),
    )
    wall = time.perf_counter() - start
    key_correct, corruption = score_recovery(
        context.locked.original, target, result.key, rng=context.rng(0xEC)
    )
    return AttackOutcome(
        attack="tcf",
        completed=result.completed,
        success=bool(result.completed and key_correct),
        key=result.key,
        key_correct=key_correct,
        oracle_queries=oracle.query_count,
        wall_time=wall,
        corruption=corruption,
        detail={
            "iterations": result.iterations,
            "unsat_at_first_iteration": result.unsat_at_first_iteration,
            "sample_time": sample_time,
        },
    )


@register_attack(
    "scan",
    description="launch-on-capture scan measurement of GK parities",
    tags=("oracle:timing", "gk-specific", "needs-clock"),
    params=("trials", "cycles"),
)
def _run_scan(context: AttackContext) -> AttackOutcome:
    from .scan import scan_attack

    if context.clock is None:
        raise ValueError("scan attack needs the design clock")
    locked = context.locked
    exposed = context.target()
    gk_ffs = {
        record.gk.ff: record.keygen.key_out
        for record in locked.metadata["gks"]
    }
    start = time.perf_counter()
    result = scan_attack(
        locked, exposed, context.clock.period, gk_ffs,
        trials=context.param("trials", 4),
        cycles=context.param("cycles", 6),
        rng=context.rng(4),
    )
    wall = time.perf_counter() - start
    # The attacker's key guess: parity -> exposed GK key bit.  Partial
    # resolutions (hybrid confounding) leave key bits unpinned, which
    # score_recovery reports as unscorable rather than wrong.
    key = {
        gk_ffs[ff]: int(inverted)
        for ff, inverted in result.inverted_vs_model.items()
    } or None
    key_correct, corruption = score_recovery(
        locked.original, exposed, key, rng=context.rng(0xEC)
    )
    return AttackOutcome(
        attack="scan",
        completed=True,
        success=result.success,
        key=key,
        key_correct=key_correct,
        oracle_queries=result.trials,
        wall_time=wall,
        corruption=corruption,
        detail={
            "resolved": result.resolved,
            "ambiguous": len(result.ambiguous),
        },
    )


@register_attack(
    "sequential",
    description="T-frame unrolling SAT attack (no scan access)",
    tags=("oracle:sequence", "sequential-only"),
    params=("frames", "max_iterations"),
)
def _run_sequential(context: AttackContext) -> AttackOutcome:
    from .unroll import sequential_sat_attack

    target = context.target()
    start = time.perf_counter()
    result = sequential_sat_attack(
        target, context.locked.original,
        frames=context.param("frames", 3),
        max_iterations=context.param("max_iterations", 32),
    )
    wall = time.perf_counter() - start
    key_correct, corruption = score_recovery(
        context.locked.original, target, result.key, rng=context.rng(0xEC)
    )
    return AttackOutcome(
        attack="sequential",
        completed=result.completed,
        success=bool(result.completed and key_correct),
        key=result.key,
        key_correct=key_correct,
        oracle_queries=result.iterations,
        wall_time=wall,
        corruption=corruption,
        detail={
            "iterations": result.iterations,
            "unsat_at_first_iteration": result.unsat_at_first_iteration,
        },
    )
