"""Declarative job matrices.

A :class:`CampaignMatrix` is a job *kind* plus named axes; expansion is
the cross product of the axes in declaration order, so the job list —
and therefore every aggregate built from it — is deterministic.  Each
expanded :class:`JobSpec` gets a content-addressed id (a hash of the
kind and its canonicalized parameters), which is what the result store
and the netlist cache key on: the same cell always resolves to the same
id across runs, processes, and resumes.
"""

from __future__ import annotations

import hashlib
import itertools
import json
from dataclasses import dataclass
from typing import Any, Dict, Iterable, List, Mapping, Optional, Sequence, Tuple

__all__ = ["JobSpec", "CampaignMatrix", "canonical_json", "content_id"]


def canonical_json(value: Any) -> str:
    """Stable serialization used for hashing and cache keys."""
    return json.dumps(value, sort_keys=True, separators=(",", ":"))


def content_id(kind: str, params: Mapping[str, Any]) -> str:
    digest = hashlib.sha256(
        canonical_json({"kind": kind, "params": dict(params)}).encode()
    ).hexdigest()
    return f"{kind}-{digest[:12]}"


@dataclass(frozen=True)
class JobSpec:
    """One matrix cell: a job kind plus its parameters."""

    kind: str
    params: Tuple[Tuple[str, Any], ...]

    @classmethod
    def make(cls, kind: str, **params: Any) -> "JobSpec":
        return cls(kind=kind, params=tuple(sorted(params.items())))

    @property
    def param_dict(self) -> Dict[str, Any]:
        return dict(self.params)

    @property
    def job_id(self) -> str:
        return content_id(self.kind, self.param_dict)

    def to_dict(self) -> Dict[str, Any]:
        return {"kind": self.kind, "params": self.param_dict}

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "JobSpec":
        return cls.make(data["kind"], **data["params"])

    def describe(self) -> str:
        inner = " ".join(f"{k}={v}" for k, v in self.params)
        return f"{self.kind}({inner})"


@dataclass(frozen=True)
class CampaignMatrix:
    """A job kind crossed over named axes, plus fixed parameters.

    >>> m = CampaignMatrix("table2",
    ...                    axes={"benchmark": ["s1238", "s5378"],
    ...                          "config": ["gk4", "gk8"]},
    ...                    fixed={"seed": 2019})
    >>> [j.param_dict["config"] for j in m.expand()]
    ['gk4', 'gk8', 'gk4', 'gk8']
    """

    kind: str
    axes: Tuple[Tuple[str, Tuple[Any, ...]], ...]
    fixed: Tuple[Tuple[str, Any], ...] = ()

    def __init__(
        self,
        kind: str,
        axes: Mapping[str, Sequence[Any]],
        fixed: Optional[Mapping[str, Any]] = None,
    ) -> None:
        object.__setattr__(self, "kind", kind)
        object.__setattr__(
            self, "axes",
            tuple((name, tuple(values)) for name, values in axes.items()),
        )
        object.__setattr__(
            self, "fixed", tuple(sorted((fixed or {}).items()))
        )

    # ------------------------------------------------------------------

    def expand(self) -> List[JobSpec]:
        """Cross product of the axes, first axis slowest (row-major)."""
        names = [name for name, _values in self.axes]
        pools = [values for _name, values in self.axes]
        jobs: List[JobSpec] = []
        for combo in itertools.product(*pools):
            params = dict(self.fixed)
            params.update(zip(names, combo))
            jobs.append(JobSpec.make(self.kind, **params))
        return jobs

    def __len__(self) -> int:
        total = 1
        for _name, values in self.axes:
            total *= len(values)
        return total

    @property
    def matrix_id(self) -> str:
        return content_id("matrix." + self.kind, self.to_dict())

    def to_dict(self) -> Dict[str, Any]:
        return {
            "kind": self.kind,
            "axes": {name: list(values) for name, values in self.axes},
            "fixed": dict(self.fixed),
        }

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "CampaignMatrix":
        """Build from a small config dict (the CLI ``--matrix`` format)."""
        unknown = set(data) - {"kind", "axes", "fixed"}
        if unknown:
            raise ValueError(f"unknown matrix keys: {sorted(unknown)}")
        if "kind" not in data or "axes" not in data:
            raise ValueError("matrix dict needs 'kind' and 'axes'")
        return cls(data["kind"], data["axes"], data.get("fixed"))

    # ------------------------------------------------------------------
    # The paper's standard sweeps.
    # ------------------------------------------------------------------

    @classmethod
    def table1(
        cls, benchmarks: Iterable[str], seed: int = 2019
    ) -> "CampaignMatrix":
        return cls("table1", {"benchmark": list(benchmarks)}, {"seed": seed})

    @classmethod
    def table2(
        cls,
        benchmarks: Iterable[str],
        configs: Optional[Iterable[str]] = None,
        seed: int = 2019,
    ) -> "CampaignMatrix":
        from ..reporting.tables import TABLE2_CONFIGS

        return cls(
            "table2",
            {"benchmark": list(benchmarks),
             "config": list(configs or TABLE2_CONFIGS)},
            {"seed": seed},
        )

    @classmethod
    def lock(
        cls,
        benchmarks: Iterable[str],
        schemes: Iterable[str],
        key_bits: Iterable[int],
        seeds: Iterable[int] = (2019,),
    ) -> "CampaignMatrix":
        return cls(
            "lock",
            {"benchmark": list(benchmarks), "scheme": list(schemes),
             "key_bits": list(key_bits), "seed": list(seeds)},
        )

    @classmethod
    def attack(
        cls,
        benchmarks: Iterable[str],
        schemes: Iterable[str],
        attacks: Iterable[str] = ("sat",),
        key_bits: Iterable[int] = (8,),
        seeds: Iterable[int] = (2019,),
    ) -> "CampaignMatrix":
        return cls(
            "attack",
            {"benchmark": list(benchmarks), "scheme": list(schemes),
             "attack": list(attacks), "key_bits": list(key_bits),
             "seed": list(seeds)},
        )
