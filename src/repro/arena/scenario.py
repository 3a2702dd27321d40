"""Scenario files: the arena's declarative input.

A scenario is plain JSON (stdlib only) with this shape::

    {
      "name": "smoke",
      "benchmarks": ["s1238"],
      "schemes": ["xor", "sarlock"],
      "attacks": ["appsat", "removal"],
      "key_bits": [4],
      "seeds": [2019],
      "attack_params": {"appsat": {"max_rounds": 8}},
      "expectations": [
        {"where": {"scheme": "sarlock", "attack": "removal"},
         "expect": {"success": true}}
      ]
    }

``benchmarks``/``key_bits``/``seeds`` default to ``["s1238"]`` / ``[8]``
/ ``[2019]``.  Every name is validated against the registries (and the
benchmark suite) at load time, so a typo fails fast with the list of
choices instead of erroring one cell at a time mid-campaign.

``attack_params`` reaches each runner through
:meth:`~repro.attacks.registry.AttackContext.param`; any knob a runner
reads is addressable per attack.  Notably ``sat`` and ``appsat``
accept ``{"warm_start": true}``: with a campaign cache, such cells seed
their solver from the clause pool earlier runs on the same
netlist+oracle persisted.  See ``examples/arena/warm_start.json``.

Expansion is the full cross product; cells the capability tags rule
out — a GK-specific attack against a scheme that inserts no GKs, a key
width the scheme cannot honor — are *skipped with a reason*, never
errored: an all-pairs matrix is supposed to contain impossible pairs.

``expectations`` are per-cell assertions checked after the campaign:
``where`` filters cells by any subset of the five axes, ``expect``
compares outcome fields (``success``, ``key_correct``, ``completed``,
...) on every matching runnable cell.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Any, Dict, List, Mapping, Optional, Sequence, Tuple

__all__ = ["ArenaCell", "Expectation", "Scenario"]

_CELL_AXES = ("benchmark", "scheme", "attack", "key_bits", "seed")
_SCENARIO_KEYS = {
    "name", "benchmarks", "schemes", "attacks", "key_bits", "seeds",
    "attack_params", "expectations",
}


@dataclass(frozen=True)
class ArenaCell:
    """One point of the scheme x attack cross product."""

    benchmark: str
    scheme: str
    attack: str
    key_bits: int
    seed: int

    def to_dict(self) -> Dict[str, Any]:
        return {
            "benchmark": self.benchmark,
            "scheme": self.scheme,
            "attack": self.attack,
            "key_bits": self.key_bits,
            "seed": self.seed,
        }

    def describe(self) -> str:
        return (f"{self.benchmark}/{self.scheme}(k={self.key_bits})"
                f" vs {self.attack} [seed {self.seed}]")


@dataclass(frozen=True)
class Expectation:
    """A declarative assertion over matching cells' outcomes."""

    where: Tuple[Tuple[str, Any], ...]
    expect: Tuple[Tuple[str, Any], ...]

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "Expectation":
        unknown = set(data) - {"where", "expect"}
        if unknown:
            raise ValueError(
                f"expectation keys must be 'where'/'expect', got "
                f"{sorted(unknown)}"
            )
        where = dict(data.get("where", {}))
        bad = set(where) - set(_CELL_AXES)
        if bad:
            raise ValueError(
                f"expectation 'where' keys must be among {_CELL_AXES}, "
                f"got {sorted(bad)}"
            )
        expect = dict(data.get("expect", {}))
        if not expect:
            raise ValueError("expectation needs a non-empty 'expect'")
        return cls(
            where=tuple(sorted(where.items())),
            expect=tuple(sorted(expect.items())),
        )

    def matches(self, cell: ArenaCell) -> bool:
        values = cell.to_dict()
        return all(values[key] == want for key, want in self.where)

    def check(self, outcome: Mapping[str, Any]) -> List[str]:
        """Mismatch descriptions for one cell's outcome (empty = pass)."""
        problems = []
        for field_name, want in self.expect:
            got = outcome.get(field_name)
            if got != want:
                problems.append(f"{field_name}: expected {want!r}, got {got!r}")
        return problems


@dataclass(frozen=True)
class Scenario:
    """A validated scenario: axes, per-attack knobs, expectations."""

    name: str
    benchmarks: Tuple[str, ...]
    schemes: Tuple[str, ...]
    attacks: Tuple[str, ...]
    key_bits: Tuple[int, ...]
    seeds: Tuple[int, ...]
    attack_params: Tuple[Tuple[str, Tuple[Tuple[str, Any], ...]], ...] = ()
    expectations: Tuple[Expectation, ...] = ()

    # ------------------------------------------------------------------

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "Scenario":
        unknown = set(data) - _SCENARIO_KEYS
        if unknown:
            raise ValueError(
                f"unknown scenario keys {sorted(unknown)}; expected a "
                f"subset of {sorted(_SCENARIO_KEYS)}"
            )
        for axis in ("schemes", "attacks"):
            if not data.get(axis):
                raise ValueError(f"scenario needs a non-empty {axis!r} list")

        from ..attacks.registry import attack_names
        from ..bench.iwls import BENCHMARKS
        from ..locking.registry import scheme_names

        benchmarks = tuple(data.get("benchmarks", ["s1238"]))
        schemes = tuple(data["schemes"])
        attacks = tuple(data["attacks"])
        key_bits = tuple(int(k) for k in data.get("key_bits", [8]))
        seeds = tuple(int(s) for s in data.get("seeds", [2019]))

        for label, got, known in (
            ("benchmark", benchmarks, tuple(BENCHMARKS)),
            ("scheme", schemes, tuple(scheme_names())),
            ("attack", attacks, tuple(attack_names())),
        ):
            bad = [name for name in got if name not in known]
            if bad:
                raise ValueError(
                    f"unknown {label}(s) {bad}; choose from "
                    f"{', '.join(known)}"
                )
        for label, axis in (("benchmarks", benchmarks),
                            ("schemes", schemes), ("attacks", attacks)):
            if len(set(axis)) != len(axis):
                raise ValueError(f"duplicate {label} in scenario")
        if any(k < 1 for k in key_bits):
            raise ValueError("key_bits must be positive")

        raw_params = data.get("attack_params", {})
        bad = [name for name in raw_params if name not in attacks]
        if bad:
            raise ValueError(
                f"attack_params for attacks not in the scenario: {bad}"
            )
        attack_params = tuple(
            (name, tuple(sorted(dict(raw_params[name]).items())))
            for name in sorted(raw_params)
        )

        expectations = tuple(
            Expectation.from_dict(item)
            for item in data.get("expectations", [])
        )
        return cls(
            name=str(data.get("name", "arena")),
            benchmarks=benchmarks,
            schemes=schemes,
            attacks=attacks,
            key_bits=key_bits,
            seeds=seeds,
            attack_params=attack_params,
            expectations=expectations,
        )

    @classmethod
    def from_file(cls, path: str) -> "Scenario":
        with open(path, "r", encoding="utf-8") as handle:
            try:
                data = json.load(handle)
            except json.JSONDecodeError as exc:
                raise ValueError(f"{path}: not valid JSON ({exc})") from None
        if not isinstance(data, dict):
            raise ValueError(f"{path}: scenario must be a JSON object")
        return cls.from_dict(data)

    # ------------------------------------------------------------------

    def params_for(self, attack: str) -> Dict[str, Any]:
        for name, params in self.attack_params:
            if name == attack:
                return dict(params)
        return {}

    def cells(self) -> Tuple[List[ArenaCell], List[Tuple[ArenaCell, str]]]:
        """Expand the cross product into (runnable, skipped-with-reason).

        Skips come from the registries' capability algebra: key widths
        the scheme cannot honor and scheme x attack incompatibilities.
        Expansion order is benchmark-major, seed-minor — deterministic,
        so job lists (and each cell's content-addressed id) reproduce.
        """
        from ..attacks.registry import attack_info, incompatibility
        from ..locking.registry import scheme_info

        runnable: List[ArenaCell] = []
        skipped: List[Tuple[ArenaCell, str]] = []
        for benchmark in self.benchmarks:
            for scheme in self.schemes:
                info = scheme_info(scheme)
                for attack in self.attacks:
                    clash = incompatibility(info, attack_info(attack))
                    for key_bits in self.key_bits:
                        width_problem = info.supports_key_bits(key_bits)
                        for seed in self.seeds:
                            cell = ArenaCell(
                                benchmark, scheme, attack, key_bits, seed
                            )
                            if clash is not None:
                                skipped.append((cell, clash))
                            elif width_problem is not None:
                                skipped.append((cell, width_problem))
                            else:
                                runnable.append(cell)
        return runnable, skipped

    def to_dict(self) -> Dict[str, Any]:
        return {
            "name": self.name,
            "benchmarks": list(self.benchmarks),
            "schemes": list(self.schemes),
            "attacks": list(self.attacks),
            "key_bits": list(self.key_bits),
            "seeds": list(self.seeds),
            "attack_params": {
                name: dict(params) for name, params in self.attack_params
            },
            "expectations": [
                {"where": dict(e.where), "expect": dict(e.expect)}
                for e in self.expectations
            ],
        }
