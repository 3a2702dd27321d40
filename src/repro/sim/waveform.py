"""Waveform capture, glitch detection, and ASCII timing diagrams.

A :class:`Waveform` is an immutable-ish record of (time, value) changes
on one net.  The pulse/glitch queries are what the GK experiments use to
check that a glitch of the designed length appears exactly where
Eqs. (2)-(6) of the paper predict; the ASCII renderer regenerates the
paper's timing diagrams (Figs. 4, 6, 7, 9) in test and bench output.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass
from typing import Iterable, List, Optional, Tuple

from .logic import LogicValue

__all__ = ["Pulse", "Waveform", "render_waveforms"]

_GLYPH = {0: "_", 1: "#", None: "?"}


@dataclass(frozen=True)
class Pulse:
    """A maximal interval during which a net held *value*."""

    start: float
    end: float
    value: LogicValue

    @property
    def length(self) -> float:
        return self.end - self.start


class Waveform:
    """Sequence of value changes on a single net."""

    def __init__(self, net: str, initial: LogicValue = None) -> None:
        self.net = net
        self._times: List[float] = [float("-inf")]
        self._values: List[LogicValue] = [initial]

    def record(self, time: float, value: LogicValue) -> None:
        """Append a change; same-value records are collapsed."""
        if time < self._times[-1]:
            raise ValueError(
                f"non-monotonic record on {self.net}: {time} < {self._times[-1]}"
            )
        if value == self._values[-1]:
            return
        if time == self._times[-1]:
            # Zero-width pulse: overwrite in place.
            self._values[-1] = value
            if len(self._values) >= 2 and self._values[-2] == value:
                self._times.pop()
                self._values.pop()
            return
        self._times.append(time)
        self._values.append(value)

    @property
    def changes(self) -> List[Tuple[float, LogicValue]]:
        """All finite-time (time, new value) change points."""
        return [
            (t, v) for t, v in zip(self._times, self._values) if t != float("-inf")
        ]

    def value_at(self, time: float) -> LogicValue:
        """The value holding at *time* (changes take effect at their time)."""
        index = bisect_right(self._times, time) - 1
        return self._values[index]

    def final_value(self) -> LogicValue:
        return self._values[-1]

    def intervals(
        self, start: float, end: float
    ) -> List[Pulse]:
        """Constant-value intervals covering [start, end)."""
        if end <= start:
            return []
        out: List[Pulse] = []
        t = start
        value = self.value_at(start)
        index = bisect_right(self._times, start)
        while index < len(self._times) and self._times[index] < end:
            out.append(Pulse(t, self._times[index], value))
            t = self._times[index]
            value = self._values[index]
            index += 1
        out.append(Pulse(t, end, value))
        return out

    def pulses(
        self,
        value: LogicValue,
        start: float = 0.0,
        end: Optional[float] = None,
        max_length: Optional[float] = None,
    ) -> List[Pulse]:
        """Maximal intervals holding *value* within [start, end).

        With *max_length* set this returns only short pulses — i.e.
        glitches: momentary excursions shorter than the bound.
        """
        if end is None:
            end = self._times[-1] if self._times[-1] != float("-inf") else start
        found = [p for p in self.intervals(start, end) if p.value == value]
        if max_length is not None:
            found = [p for p in found if p.length <= max_length]
        return found

    def glitches(
        self, start: float, end: float, max_length: float
    ) -> List[Pulse]:
        """Pulses of either polarity shorter than *max_length*.

        The first and last intervals of the window are excluded: a pulse
        must be *bounded by transitions* on both sides to count as a
        glitch rather than a truncated steady level.
        """
        inner = self.intervals(start, end)[1:-1]
        return [p for p in inner if p.length <= max_length]

    def render(
        self, start: float, end: float, resolution: float = 0.5
    ) -> str:
        """ASCII strip: ``#`` for 1, ``_`` for 0, ``?`` for X."""
        ticks = int(round((end - start) / resolution))
        chars = [
            _GLYPH[self.value_at(start + (i + 0.5) * resolution)]
            for i in range(ticks)
        ]
        return "".join(chars)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<Waveform {self.net}: {len(self._times) - 1} changes>"


def render_waveforms(
    waveforms: Iterable[Waveform],
    start: float,
    end: float,
    resolution: float = 0.5,
    label_width: int = 10,
) -> str:
    """A multi-signal ASCII timing diagram (one row per waveform)."""
    rows = []
    ruler_ticks = int(round((end - start) / resolution))
    ruler = []
    for i in range(ruler_ticks):
        t = start + i * resolution
        ruler.append("|" if abs(t - round(t)) < 1e-9 and round(t) % 5 == 0 else ".")
    rows.append(" " * label_width + "".join(ruler) + f"   [{start}..{end} ns]")
    for wf in waveforms:
        label = wf.net[: label_width - 1].ljust(label_width)
        rows.append(label + wf.render(start, end, resolution))
    return "\n".join(rows)
