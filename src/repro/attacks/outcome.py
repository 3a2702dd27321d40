"""`AttackOutcome`: one result shape for seven attack families.

The attack modules each return a result dataclass tuned to their own
mechanics (`SatAttackResult` counts DIPs, `RemovalResult` counts swept
gates, `ScanAttackResult` maps flip-flops to parities...).  The arena
and the campaign engine need to compare them, so this module defines
the common denominator every family normalizes into: did the attack
finish, what key did it recover, is that key *equivalence-checked*
correct, how many oracle queries did it spend, how long did it run,
and how corrupted is the netlist the attacker walks away with.

The normalization itself lives with each registered runner
(:mod:`repro.attacks.runners`); this module supplies the dataclass and
the designer-side scoring helpers.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Any, Dict, Mapping, Optional, Tuple

from ..netlist.circuit import Circuit, NetlistError
from ..netlist.compiled import compile_circuit
from ..netlist.equivalence import check_equivalence
from ..netlist.transform import combinational_circuit

__all__ = ["AttackOutcome", "recovered_corruption", "score_recovery"]


@dataclass
class AttackOutcome:
    """The normal form of one attack run.

    ``key_correct`` and ``corruption`` are *designer-side* scores: they
    use ground truth (the original netlist) the attacker does not have,
    and are ``None`` when the attack recovers no key / no netlist.  For
    a GK-locked design, ``key_correct`` is Boolean-domain equivalence —
    it can be ``True`` for *every* key (glitch-blindness, Sec. VI),
    which is exactly the signal the leaderboard should surface.
    """

    attack: str
    #: the attack's own mechanics ran to their termination condition
    completed: bool = False
    #: the attack's own notion of success (family-specific predicate)
    success: bool = False
    #: recovered key assignment, if the family recovers one
    key: Optional[Dict[str, int]] = None
    #: equivalence-checked correctness of the recovered key
    key_correct: Optional[bool] = None
    oracle_queries: int = 0
    wall_time: float = 0.0
    #: fraction of sampled (pattern, output) pairs on which the
    #: attacker's recovered netlist disagrees with the original
    corruption: Optional[float] = None
    #: family-specific extras (JSON-safe scalars/lists/dicts only)
    detail: Dict[str, Any] = field(default_factory=dict)

    def to_dict(self) -> Dict[str, Any]:
        return {
            "attack": self.attack,
            "completed": self.completed,
            "success": self.success,
            "key": self.key,
            "key_correct": self.key_correct,
            "oracle_queries": self.oracle_queries,
            "wall_time": self.wall_time,
            "corruption": self.corruption,
            "detail": self.detail,
        }

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "AttackOutcome":
        return cls(
            attack=data["attack"],
            completed=bool(data.get("completed", False)),
            success=bool(data.get("success", False)),
            key=dict(data["key"]) if data.get("key") is not None else None,
            key_correct=data.get("key_correct"),
            oracle_queries=int(data.get("oracle_queries", 0)),
            wall_time=float(data.get("wall_time", 0.0)),
            corruption=data.get("corruption"),
            detail=dict(data.get("detail", {})),
        )


def recovered_corruption(
    original: Circuit,
    attacked: Circuit,
    key: Mapping[str, int],
    rng: Optional[random.Random] = None,
) -> Optional[float]:
    """Mismatch rate of *attacked* under *key* against *original*.

    One bit-parallel pass of random patterns through both compiled
    combinational views (inputs matched by name, outputs positionally,
    like :func:`~repro.netlist.equivalence.check_equivalence`); the
    fraction of disagreeing (pattern, output) pairs.  ``None`` when the
    interfaces cannot be aligned.
    """
    a = combinational_circuit(original)
    b = combinational_circuit(attacked)
    if sorted(a.inputs) != sorted(b.inputs):
        return None
    if len(a.outputs) != len(b.outputs):
        return None
    if set(b.key_inputs) - set(key):
        return None
    rng = rng or random.Random(0xA77AC)
    compiled_a = compile_circuit(a)
    patterns = [
        {net: rng.randint(0, 1) for net in a.inputs}
        for _ in range(compiled_a.lanes)
    ]
    got_a = compiled_a.query_outputs(patterns)
    got_b = compile_circuit(b, compiled_a.lanes).query_outputs(
        [dict(pattern, **key) for pattern in patterns]
    )
    observed = mismatched = 0
    for values_a, values_b in zip(got_a, got_b):
        for net_a, net_b in zip(a.outputs, b.outputs):
            if values_a[net_a] is None or values_b[net_b] is None:
                continue
            observed += 1
            if values_a[net_a] != values_b[net_b]:
                mismatched += 1
    if not observed:
        return None
    return mismatched / observed


def score_recovery(
    original: Circuit,
    attacked: Circuit,
    key: Optional[Mapping[str, int]],
    rng: Optional[random.Random] = None,
) -> Tuple[Optional[bool], Optional[float]]:
    """Designer-side (key_correct, corruption) for a recovered key.

    ``key_correct`` is full SAT equivalence (bit-parallel prefilter
    first); ``corruption`` the sampled mismatch rate — 0.0 whenever the
    equivalence proof succeeds.  Both ``None`` when no key came back or
    the interfaces don't line up.
    """
    if key is None:
        return None, None
    try:
        result = check_equivalence(original, attacked, key_b=key)
    except NetlistError:
        return None, None
    if result.equivalent:
        return True, 0.0
    return False, recovered_corruption(original, attacked, key, rng=rng)
