"""Common interfaces for logic-locking schemes.

Every scheme produces a :class:`LockedCircuit`: the encrypted netlist,
the original it came from, the correct key assignment, and
scheme-specific metadata (the GK scheme records every inserted
structure so the flow can protect its delay chains and the attacks can
locate/strip them, modelling a structural-analysis attacker).

Key inputs are always Boolean wires on the locked netlist — even for
the Glitch Key-gate, whose two key bits statically configure its KEYGEN
(the *transitions* are generated on-chip each cycle; the licensed secret
is which of the four KEYGEN modes is the right one).
"""

from __future__ import annotations

import random
from abc import ABC, abstractmethod
from dataclasses import dataclass, field
from typing import Any, Dict, List, Sequence

from ..netlist.circuit import Circuit

__all__ = ["LockedCircuit", "LockingScheme", "LockingError"]


class LockingError(RuntimeError):
    """Raised when a scheme cannot be applied (no feasible sites, ...)."""


@dataclass
class LockedCircuit:
    """The output of a locking scheme.

    Attributes:
        circuit: The encrypted netlist (key inputs present).
        original: The pre-encryption netlist (the oracle's netlist).
        key: Key input net -> correct bit.  For schemes with several
            equally-correct assignments this is one canonical choice.
        scheme: Scheme name, e.g. ``"gk"`` or ``"xor"``.
        metadata: Scheme-specific structure records.
    """

    circuit: Circuit
    original: Circuit
    key: Dict[str, int]
    scheme: str
    metadata: Dict[str, Any] = field(default_factory=dict)

    @property
    def key_size(self) -> int:
        return len(self.circuit.key_inputs)

    def key_vector(self) -> List[int]:
        """Correct key bits in ``circuit.key_inputs`` order."""
        return [self.key[net] for net in self.circuit.key_inputs]

    def assignment_for(self, bits: Sequence[int]) -> Dict[str, int]:
        """Key-input assignment dict from a bit vector."""
        if len(bits) != len(self.circuit.key_inputs):
            raise ValueError(
                f"need {len(self.circuit.key_inputs)} bits, got {len(bits)}"
            )
        return dict(zip(self.circuit.key_inputs, bits))

    def random_wrong_key(self, rng: random.Random) -> Dict[str, int]:
        """A uniformly random key that differs from the correct one."""
        correct = self.key_vector()
        while True:
            bits = [rng.randint(0, 1) for _ in correct]
            if bits != correct:
                return self.assignment_for(bits)


class LockingScheme(ABC):
    """A logic-locking technique."""

    #: short identifier, e.g. "xor", "sarlock", "gk"
    name: str = "abstract"

    @abstractmethod
    def lock(
        self, circuit: Circuit, num_key_bits: int, rng: random.Random
    ) -> LockedCircuit:
        """Encrypt a copy of *circuit* with *num_key_bits* key inputs.

        The input circuit is never modified.  Implementations must raise
        :class:`LockingError` if the request cannot be met (e.g. not
        enough feasible insertion sites).
        """
