"""The GK timing rules: Eqs. (1)-(6) of the paper, as pure functions.

Terminology (Sec. IV-A, Fig. 8):

* ``LB_ij`` / ``UB_ij`` — allowed path-delay window from FF *i* to FF
  *j* (Eq. (1)); all times are measured from FF *i*'s launching clock
  edge.
* ``L_glitch = D_Path + D_MUX`` — glitch length (Eq. (2)): the selected
  arm's delay (XOR/XNOR gate + delay elements) plus the GK MUX delay.
* ``D_ready`` — arm delay that must elapse after the data arrives at
  ``x`` before the glitch value is staged at the MUX input (equals the
  *selected* arm's ``D_Path``).
* ``D_react = D_MUX`` — latency from the key-input transition to the
  glitch appearing at the GK output.
* ``T_trigger`` — when the KEYGEN's transition reaches the key-input.

Eq. (5) bounds ``T_trigger`` for transmitting data **on** the glitch
level (the glitch must cover the capture FF's setup+hold window);
Eq. (6) bounds it for keeping the glitch **clear** of that window.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Tuple

__all__ = [
    "TriggerWindow",
    "path_delay_bounds",
    "glitch_length",
    "insertion_valid_on_level",
    "insertion_valid_off_level",
    "trigger_window_on_level",
    "trigger_window_off_level",
    "minimum_glitch_length",
]


@dataclass(frozen=True)
class TriggerWindow:
    """An open interval (earliest, latest) of valid trigger times."""

    earliest: float
    latest: float

    @property
    def empty(self) -> bool:
        return self.earliest >= self.latest

    @property
    def width(self) -> float:
        return max(0.0, self.latest - self.earliest)

    def contains(self, t: float) -> bool:
        return self.earliest < t < self.latest

    def midpoint(self) -> float:
        if self.empty:
            raise ValueError("empty trigger window has no midpoint")
        return (self.earliest + self.latest) / 2.0


def path_delay_bounds(
    t_clk: float,
    t_setup: float,
    t_hold: float,
    t_i: float = 0.0,
    t_j: float = 0.0,
) -> Tuple[float, float]:
    """Eq. (1): (LB_ij, UB_ij) for a launch/capture FF pair.

    ``LB_ij = T_hold^j + T_j - T_i`` and
    ``UB_ij = T_clk + T_j - T_i - T_set^j``.
    """
    lb = t_hold + t_j - t_i
    ub = t_clk + t_j - t_i - t_setup
    return lb, ub


def glitch_length(d_path: float, d_mux: float) -> float:
    """Eq. (2): ``L_glitch = D_Path + D_MUX``."""
    if d_path < 0 or d_mux < 0:
        raise ValueError("delays must be non-negative")
    return d_path + d_mux


def minimum_glitch_length(t_setup: float, t_hold: float) -> float:
    """Shortest glitch able to carry data into a flip-flop.

    Sec. IV-A: to transmit on the glitch level, ``L_glitch`` must be
    at least ``T_set^j + T_hold^j``.
    """
    return t_setup + t_hold


def insertion_valid_on_level(
    t_arrival: float,
    d_ready: float,
    d_react: float,
    lb: float,
    ub: float,
) -> bool:
    """Eq. (3): can a GK transmitting on the glitch level fit here?

    ``LB <= T_arrival + D_ready + D_react <= UB``.
    """
    total = t_arrival + d_ready + d_react
    return lb <= total <= ub


def insertion_valid_off_level(
    t_arrival: float,
    max_d_path: float,
    d_mux: float,
    lb: float,
    ub: float,
) -> bool:
    """Eq. (4): can a GK transmitting *off* the glitch level fit here?

    ``LB <= T_arrival + max(D_Path) + D_MUX <= UB``.
    """
    total = t_arrival + max_d_path + d_mux
    return lb <= total <= ub


def trigger_window_on_level(
    t_j: float,
    t_hold: float,
    l_glitch: float,
    d_react: float,
    ub: float,
    t_arrival: float,
    d_ready: float,
) -> TriggerWindow:
    """Eq. (5): trigger times for which the glitch carries the data.

    ``T_j + T_hold - L_glitch - D_react < T_trigger < UB - D_react``
    and ``T_arrival + D_ready < T_trigger``.
    """
    earliest = max(t_j + t_hold - l_glitch - d_react, t_arrival + d_ready)
    latest = ub - d_react
    return TriggerWindow(earliest, latest)


def trigger_window_off_level(
    lb: float,
    ub: float,
    l_glitch: float,
    d_react: float,
) -> TriggerWindow:
    """Eq. (6): trigger times keeping the glitch clear of the FF window.

    ``LB - D_react < T_trigger < UB - L_glitch - D_react``.
    """
    return TriggerWindow(lb - d_react, ub - l_glitch - d_react)
