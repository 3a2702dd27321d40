"""The attack registry: canonical names, runners, capability tags.

Mirror of :mod:`repro.locking.registry` for the offense side.  Every
attack family registers a *runner* — a uniform entry point taking an
:class:`AttackContext` (the locked design plus knobs) and returning an
:class:`~repro.attacks.outcome.AttackOutcome` — so the campaign
workers, the CLI, and the arena all drive heterogeneous attacks
through one signature and read one result shape.

Capability tags:

* ``oracle:io``        — queries an activated chip's Boolean I/O
  (:class:`~repro.attacks.oracle.CombinationalOracle`).
* ``oracle:timing``    — needs at-speed measurements of the chip
  (two-vector tests or clocked traces).
* ``oracle:sequence``  — replays input sequences from reset (the
  unrolling attack's trace oracle).
* ``oracle-free``      — works from the netlist alone (the removal
  attack validates with the oracle only when offered one).
* ``combinational-only`` — consumes a combinational attacker netlist;
  sequential targets go through the pseudo-PI/PO reduction (scan
  access assumed).
* ``gk-specific``      — exploits GK structure (``metadata["gks"]``);
  meaningless against schemes without it.
* ``needs-clock``      — needs the design's clock period.
* ``approximate``      — may settle for an approximate key (AppSAT).

:func:`incompatibility` turns the tag algebra into the arena's
skip-with-reason decisions.
"""

from __future__ import annotations

import importlib
import random
from dataclasses import dataclass, field
from typing import (
    TYPE_CHECKING, Any, Callable, Dict, FrozenSet, List, Optional, Tuple,
)

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..locking.base import LockedCircuit
    from ..locking.registry import SchemeInfo
    from ..sta.clock import ClockSpec
    from .outcome import AttackOutcome

__all__ = [
    "AttackContext",
    "AttackInfo",
    "register_attack",
    "attack_names",
    "attack_info",
    "attack_infos",
    "run_attack",
    "incompatibility",
    "ensure_attacks_loaded",
]

#: Modules whose import registers attack runners.
_PROVIDERS: Tuple[str, ...] = ("repro.attacks.runners",)

_ATTACKS: Dict[str, "AttackInfo"] = {}
_LOADED = False


@dataclass
class AttackContext:
    """Everything a registered runner gets to work with.

    The *attacker's view* convention is uniform: runners call
    :meth:`target` for the netlist under attack, which is the exposed
    Boolean key view for GK-family schemes (``metadata["gks"]``, the
    paper's Sec. VI preprocessing) and the locked netlist otherwise.
    """

    locked: "LockedCircuit"
    clock: Optional["ClockSpec"] = None
    seed: int = 0
    params: Dict[str, Any] = field(default_factory=dict)
    #: campaign/arena cache for cross-run state (the clause pools of
    #: ``warm_start`` cells); ``None`` disables persistence, never the
    #: attack.
    cache: Optional[Any] = None

    def rng(self, salt: int = 0) -> random.Random:
        return random.Random(self.seed * 1000003 + salt)

    def target(self):
        from ..core.flow import expose_gk_keys

        if "gks" in self.locked.metadata:
            return expose_gk_keys(self.locked)
        return self.locked.circuit

    def param(self, name: str, default: Any) -> Any:
        value = self.params.get(name, default)
        return type(default)(value) if default is not None else value


@dataclass(frozen=True)
class AttackInfo:
    """Registry entry: how to run an attack and what it needs."""

    name: str
    runner: Callable[[AttackContext], "AttackOutcome"]
    description: str = ""
    tags: FrozenSet[str] = field(default_factory=frozenset)
    #: the :meth:`AttackContext.param` names the runner reads
    params: Tuple[str, ...] = ()

    def run(self, context: AttackContext) -> "AttackOutcome":
        return self.runner(context)


def register_attack(
    name: str,
    *,
    description: str = "",
    tags: Tuple[str, ...] = (),
    params: Tuple[str, ...] = (),
):
    """Function decorator adding one attack runner to the registry.

    *params* names every :meth:`AttackContext.param` the runner reads;
    a scenario setting any other knob is refused at load time.
    """

    def decorator(runner):
        if name in _ATTACKS:
            raise ValueError(f"attack {name!r} registered twice")
        _ATTACKS[name] = AttackInfo(
            name=name,
            runner=runner,
            description=description,
            tags=frozenset(tags),
            params=tuple(params),
        )
        return runner

    return decorator


def ensure_attacks_loaded() -> None:
    """Import every provider module once, filling the registry."""
    global _LOADED
    if _LOADED:
        return
    _LOADED = True
    for module in _PROVIDERS:
        importlib.import_module(module)


def attack_names() -> List[str]:
    """Registered attack names, sorted (the one authoritative list)."""
    ensure_attacks_loaded()
    return sorted(_ATTACKS)


def attack_info(name: str) -> AttackInfo:
    ensure_attacks_loaded()
    try:
        return _ATTACKS[name]
    except KeyError:
        raise KeyError(
            f"unknown attack {name!r}; choose from "
            f"{', '.join(sorted(_ATTACKS))}"
        ) from None


def attack_infos() -> List[AttackInfo]:
    ensure_attacks_loaded()
    return [_ATTACKS[name] for name in sorted(_ATTACKS)]


def run_attack(name: str, context: AttackContext) -> "AttackOutcome":
    """Run the attack registered under *name*."""
    return attack_info(name).run(context)


def incompatibility(
    scheme: "SchemeInfo", attack: AttackInfo
) -> Optional[str]:
    """Why this scheme x attack cell cannot run — or ``None`` if it can.

    The arena skips (never errors) cells with a reason; keeping the
    rule here, next to the tag definitions, means a new scheme or
    attack states its capabilities once and every harness agrees.
    """
    if "gk-specific" in attack.tags and "gk-family" not in scheme.tags:
        return (
            f"attack {attack.name!r} targets GK structures; scheme "
            f"{scheme.name!r} inserts none"
        )
    return None
