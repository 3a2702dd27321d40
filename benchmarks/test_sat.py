"""Cold vs warm-started SAT attack (BENCH_sat).

One end-to-end story on the largest circuit the pure-Python CDCL can
attack in benchmark time (s1238, XOR-locked, 4 key bits):

1. a cold attack on a fresh :class:`~repro.sat.Solver`, whose clause
   pool :func:`~repro.attacks.warm_start.warm_solver` persists in the
   campaign's content-addressed cache;
2. the same attack warm-started from that pool, as a repeated campaign
   run would be.

Guards: both runs recover a functionally correct key, the warm run
beats the cold one, and it needs 0 DIP iterations — the persisted pool
is distilled oracle knowledge, so run 2 skips the DIP enumeration run 1
paid for.

Results merge into ``benchmarks/BENCH_sat.json``.
"""

import json
import os
import random
import time

from repro.attacks import (
    CombinationalOracle,
    sat_attack,
    verify_key_against_oracle,
)
from repro.attacks.registry import AttackContext
from repro.attacks.warm_start import warm_solver
from repro.campaign.cache import NetlistCache
from repro.locking.registry import build_scheme

_DUMP = os.path.join(os.path.dirname(__file__), "BENCH_sat.json")

KEY_BITS = 4
SEED = 1


def _merge_dump(section, payload):
    data = {}
    if os.path.exists(_DUMP):
        with open(_DUMP) as stream:
            data = json.load(stream)
    data[section] = payload
    with open(_DUMP, "w") as stream:
        json.dump(data, stream, indent=2, sort_keys=True)
        stream.write("\n")


def _attack(cache, target, original):
    """One attack through :func:`warm_solver`: (wall, result, solver)."""
    oracle = CombinationalOracle(original)
    start = time.perf_counter()
    with warm_solver(cache, target, "sat", oracle) as solver:
        result = sat_attack(target, oracle, solver=solver)
    wall = time.perf_counter() - start
    assert result.completed
    assert verify_key_against_oracle(
        target, CombinationalOracle(original), result.key, samples=64
    ) == 1.0
    return wall, result, solver


def test_sat_attack_warm_start(s1238, tmp_path, bench_record):
    instance = s1238
    locked = build_scheme("xor", instance.clock).lock(
        instance.circuit, KEY_BITS, random.Random(SEED)
    )
    context = AttackContext(
        locked=locked, clock=instance.clock, seed=SEED, params={}
    )
    target = context.target()
    cache = NetlistCache(str(tmp_path / "warm-cache"))

    walls, iters, conflicts, pool = {}, {}, {}, {}
    for mode in ("cold", "warm"):
        walls[mode], result, solver = _attack(cache, target, locked.original)
        iters[mode] = result.iterations
        conflicts[mode] = solver.num_conflicts
        pool[mode] = {"seeded": solver.num_imported,
                      "persisted": len(solver.persistable_clauses())}

    payload = {
        "circuit": "s1238",
        "scheme": "xor",
        "key_bits": KEY_BITS,
        "seed": SEED,
        "wall_s": {k: round(v, 2) for k, v in walls.items()},
        "iterations": iters,
        "conflicts": conflicts,
        "pool": pool,
        "warm_speedup_vs_cold": round(walls["cold"] / walls["warm"], 2),
    }
    _merge_dump("sat_attack_warm_start", bench_record(payload))
    print(f"\nBENCH_sat: {json.dumps(payload['wall_s'])} "
          f"(warm pool {pool['warm']['seeded']} clauses)")

    assert pool["cold"]["seeded"] == 0 and pool["warm"]["seeded"] > 0
    assert iters["warm"] == 0, "the warm run must need no DIP"
    assert walls["warm"] < walls["cold"], (
        "the warm-started attack must beat the cold one"
    )
