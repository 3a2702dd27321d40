"""Reference-host time: raw durations scaled by a kernel timed beside them.

The benchmark host runs a fixed pure-Python loop at two or three speeds
about 1.6-1.9x apart, switching every few to tens of seconds.  Raw wall times of
identical work therefore move by that much between runs.  Every time
this benchmark reports is instead expressed in *reference-host units*:

    host_factor = sqrt(kernel_before * kernel_after) / NOMINAL_KERNEL_S
    normalized = raw / host_factor ** SENSITIVITY

where ``kernel_before``/``kernel_after`` are timings of :func:`kernel`
taken right next to the measured work, and :data:`NOMINAL_KERNEL_S` is
the kernel's time on the reference host, frozen below.  The run record
keeps the host factor.  :data:`SENSITIVITY` is how much of the kernel's
slowdown the program's ops show: a tight interpreter loop suffers more
from the host's slow regime than the program does.

Both sides are CPU time: the raw time of an op is the benchmark
process's CPU time across it (every thread, so an in-process server's
too), and the kernel is timed in thread CPU time.  The host also takes
the vCPU away outright for 10-30 ms at a time; wall clocks count those
stalls and CPU clocks do not.  Every workload here is CPU-bound in one
process with no voluntary waits, so on a quiet host its CPU time equals
its wall time (the run record keeps both).

The kernel walks a small toy netlist built at import — indexed lookups
into a string-keyed dict, attribute loads, list indexing, a call and a
branch per step — timed in thread CPU time.  It allocates no GC-tracked
object, so neither the program's heap nor the collector's state can
change its speed: it tracks only the interpreter's raw speed.
"""

from __future__ import annotations

import math
import time
from typing import Callable, Tuple, TypeVar

__all__ = ["NOMINAL_KERNEL_S", "SENSITIVITY", "kernel", "kernel_seconds",
           "RefClock", "geometric_factor", "normalize"]

#: Kernel CPU time on the reference host, in seconds: the 5th
#: percentile of a minute of back-to-back runs on the 2-vCPU reference
#: host, i.e. its fast regime (the slow regime reads about 1.8 ms).
#: Frozen: changing it rescales every reported time.
NOMINAL_KERNEL_S = 1.09e-3
#: log(op slowdown) / log(kernel slowdown) on the reference host.
#: Instances that ran twice in one run under different host factors gave
#: 0.75 on attack-unsat (873 pairs), 0.76 on attack-dips (338) and 0.77
#: on oracle-serve (19728); across runs attack-unsat behaves more like
#: 0.6 and oracle-serve more like 1.0, so this is a compromise.  With 1.0
#: the slow regime over-corrected attack-unsat by about 15%.  Frozen
#: like the nominal.
SENSITIVITY = 0.76

T = TypeVar("T")


class _Gate:
    __slots__ = ("fanin", "value")


def _netlist(size: int):
    """A fixed toy netlist: gate name -> gate, the names in order, and
    a settled 0/1 level per gate."""
    gates = {}
    for index in range(size):
        gate = _Gate()
        gate.fanin = (index * 7919) % index if index else 0
        gate.value = (index * 40503 >> 3) & 1
        gates[f"n{index}"] = gate
    return gates, tuple(gates), [(index * 2654435761 >> 7) & 1
                                 for index in range(size)]


_SIZE = 512
_ROUNDS = 20
_GATES, _ORDER, _LEVELS = _netlist(_SIZE)


def _xor(a: int, b: int) -> int:
    return (a ^ b) & 1


def kernel() -> int:
    """The reference work: ``_ROUNDS`` walks over a 512-gate toy netlist.

    Each step is the bread and butter of the program's Python: a
    string-keyed dict lookup, slot attribute loads, a list index, a
    function call and a data-dependent branch.  Nothing is stored, and
    ``range`` iterators and ints are not GC-tracked.
    """
    gates, order, levels = _GATES, _ORDER, _LEVELS
    acc = 0
    for _ in range(_ROUNDS):
        for index in range(_SIZE):
            gate = gates[order[index]]
            if _xor(gate.value, levels[gate.fanin]):
                acc += 1
    return acc


def kernel_seconds() -> float:
    """CPU time of one :func:`kernel` run on this thread.

    CPU time, not wall time: the kernel measures how fast the CPU runs
    Python right now.  A 10-30 ms stretch in which another tenant holds
    the CPU would inflate a wall-clock reading several-fold and scale the
    neighbouring op down by as much; thread CPU time does not count it.
    """
    t0 = time.thread_time()
    kernel()
    return time.thread_time() - t0


def geometric_factor(before: float, after: float) -> float:
    """Host factor of work bracketed by two kernel timings."""
    return math.sqrt(before * after) / NOMINAL_KERNEL_S


def normalize(seconds: float, factor: float) -> float:
    """*seconds* measured under host *factor*, in reference-host time."""
    return seconds / factor ** SENSITIVITY


class RefClock:
    """A chain of kernel timings; each lap brackets the work since the last.

    ``lap()`` times the kernel and returns the host factor for the work
    done since the previous lap (geometric mean of the kernel time just
    before and just after it, over the nominal).  Consecutive laps share
    their kernel run, so bracketing N blocks costs N + 1 kernel runs.
    """

    def __init__(self) -> None:
        self._last = kernel_seconds()

    def lap(self) -> float:
        now = kernel_seconds()
        factor = geometric_factor(self._last, now)
        self._last = now
        return factor

    def restart(self) -> None:
        """Re-time the kernel without closing a lap (after unmeasured work)."""
        self._last = kernel_seconds()

    def timed(self, fn: Callable[[], T]) -> Tuple[T, float, float, float]:
        """Run *fn* between two kernel runs.

        Returns ``(result, wall_s, cpu_s, normalized_s)``; the normalized
        time is the process CPU time, normalized by the host factor.
        """
        self.restart()
        t0, c0 = time.perf_counter(), time.process_time()
        result = fn()
        wall, cpu = time.perf_counter() - t0, time.process_time() - c0
        return result, wall, cpu, normalize(cpu, self.lap())
