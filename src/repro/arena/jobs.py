"""The ``arena`` campaign job kind: lock one design, run one attack.

Registered with :func:`repro.campaign.worker.register_kind` like the
paper's built-in sweeps, so arena cells inherit the whole campaign
machinery — content-addressed caching, deadlines, retry taxonomy,
JSONL resume — for free.  This module is the arena's
``worker_modules`` entry: pool workers import it in their initializer
to replay the registration.

The cached payload embeds the full normalized
:class:`~repro.attacks.outcome.AttackOutcome` dict *including the wall
time measured at compute time*: a resumed or cache-hitting run replays
identical payloads, which is what makes a resumed leaderboard
byte-identical to an uninterrupted one.
"""

from __future__ import annotations

from typing import Any, Dict

from ..campaign.cache import NetlistCache
from ..campaign.worker import _instance, register_kind

__all__ = ["BENCH_SEED"]

#: Generation seed for benchmark instances (shared with the paper's
#: sweep kinds so one cached instance serves every harness).
BENCH_SEED = 2019


@register_kind("arena")
def _run_arena_cell(
    params: Dict[str, Any], cache: NetlistCache
) -> Dict[str, Any]:
    import random

    from ..attacks.registry import AttackContext, run_attack
    from ..locking.registry import build_scheme

    benchmark = params["benchmark"]
    scheme = params["scheme"]
    attack = params["attack"]
    key_bits = int(params["key_bits"])
    seed = int(params["seed"])
    attack_params = dict(params.get("attack_params", {}))
    key = cache.key(
        kind="arena", benchmark=benchmark, scheme=scheme, attack=attack,
        key_bits=key_bits, seed=seed, attack_params=attack_params,
    )

    def compute() -> Dict[str, Any]:
        instance = _instance(benchmark, BENCH_SEED, cache)
        locked = build_scheme(scheme, instance.clock).lock(
            instance.circuit, key_bits, random.Random(seed)
        )
        context = AttackContext(
            locked=locked,
            clock=instance.clock,
            seed=seed,
            params=attack_params,
            # Warm-start clause pools (warm_start cells) persist in the
            # same campaign cache the cell results live in.
            cache=cache,
        )
        outcome = run_attack(attack, context)
        return {
            "benchmark": benchmark,
            "scheme": scheme,
            "attack": attack,
            "key_bits": key_bits,
            "seed": seed,
            "outcome": outcome.to_dict(),
        }

    return cache.get_or_compute(key, compute)
