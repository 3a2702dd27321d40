"""Per-GK behaviour configuration.

A GK preserves the original circuit function in two structural flavours
(Sec. II-A, Sec. III):

* **variant 3a, no pre-inverter** — constant keys make it an inverter;
  the glitch carries the *buffer* value ``x``, which is the original
  data.  Correct key = a transition.
* **variant 3b with a pre-inverter** — constant keys make the GK a
  buffer of ``x'``; the glitch carries the inverter value ``(x')' = x``.
  Correct key = a transition.

Both flavours therefore use a *transitional* correct key (the paper's
experimental setting: all GKs "transmit values on the levels of
glitches"), and under every wrong key the flip-flop captures ``x'`` —
or goes metastable if the decoy glitch cannot be kept clear of the
sample window.  Which of the two ADB arms is the correct one is also
randomized, so the correct 2-bit key per GK is one of the four KEYGEN
modes chosen uniformly among the transitional ones.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Tuple

from .insertion import GkPlan
from .keygen import KEYGEN_MODES

__all__ = ["GkConfig", "choose_config", "expected_capture"]

_TRANSITION_KEYS: Tuple[Tuple[int, int], ...] = ((1, 0), (0, 1))  # shift_a, shift_b


@dataclass(frozen=True)
class GkConfig:
    """How one GK is wired and keyed."""

    variant: str  # "3a" or "3b"
    pre_invert: bool
    correct_mode: str  # "shift_a" or "shift_b"

    @property
    def correct_key(self) -> Tuple[int, int]:
        """(k1, k2) selecting the correct KEYGEN mode."""
        for bits, mode in KEYGEN_MODES.items():
            if mode == self.correct_mode:
                return bits
        raise AssertionError(f"unmapped mode {self.correct_mode}")

    @property
    def decoy_mode(self) -> str:
        return "shift_b" if self.correct_mode == "shift_a" else "shift_a"


def choose_config(rng: random.Random) -> GkConfig:
    """Sample a function-preserving GK configuration uniformly."""
    if rng.random() < 0.5:
        variant, pre_invert = "3a", False
    else:
        variant, pre_invert = "3b", True
    k1, k2 = _TRANSITION_KEYS[rng.randrange(2)]
    return GkConfig(
        variant=variant,
        pre_invert=pre_invert,
        correct_mode=KEYGEN_MODES[(k1, k2)],
    )


def expected_capture(
    config: GkConfig, plan: GkPlan, key_bits: Tuple[int, int]
) -> str:
    """What the capture FF sees under a key, at the timing level.

    Returns ``"data"`` (the original value), ``"inverted"`` (clean
    complement — corruption without a violation), or ``"metastable"``
    (the decoy glitch cannot stay clear of the sample window, so the
    capture violates setup/hold).
    """
    mode = KEYGEN_MODES[key_bits]
    if mode == config.correct_mode:
        return "data"
    if mode in ("const0", "const1"):
        return "inverted"
    # Decoy transition arm.
    return "metastable" if plan.wrong_arm_violates else "inverted"
