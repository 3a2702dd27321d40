"""Overhead of the observability layer on the hottest path.

The instrumented SAT attack must be no-op-cheap with observability
disabled (the acceptance bar is <3% vs. the uninstrumented seed) and
affordable when enabled. Run both benchmarks and compare:

    pytest benchmarks/test_obs_overhead.py --benchmark-only

The disabled benchmark is marked ``no_obs`` so the session-wide
snapshot fixture does not enable a session behind its back.
"""

import random

import pytest

from repro import obs
from repro.attacks import CombinationalOracle, sat_attack
from repro.locking import XorLock
from repro.netlist import Builder


def _medium_comb():
    """The 12-gate attack target the test suite uses (~4 ms/attack)."""
    b = Builder("med")
    a, bb, c, d = b.inputs("a", "b", "c", "d")
    n1 = b.nand2(a, bb)
    n2 = b.nor2(c, d)
    n3 = b.xor(n1, n2)
    n4 = b.and2(n3, a)
    n5 = b.or2(n4, d)
    n6 = b.xnor(n5, bb)
    b.po(n6, "y1")
    b.po(b.inv(n3), "y2")
    return b.circuit


def _attack_setup():
    circuit = _medium_comb()
    locked = XorLock().lock(circuit, 4, random.Random(7))
    return locked.circuit, CombinationalOracle(circuit)


@pytest.mark.no_obs
def test_sat_attack_obs_disabled(benchmark):
    """Baseline: instrumentation present but dormant."""
    locked, oracle = _attack_setup()
    assert not obs.is_enabled()
    result = benchmark(sat_attack, locked, oracle)
    assert result.completed


def test_sat_attack_obs_enabled(benchmark):
    """Same workload with spans + metrics live (autouse fixture)."""
    locked, oracle = _attack_setup()
    assert obs.is_enabled()
    result = benchmark(sat_attack, locked, oracle)
    assert result.completed


@pytest.mark.no_obs
def test_disabled_path_is_inert():
    """Disabled, the trace-propagation layer must not touch a frame.

    ``attach_context`` returning the *same* dict object is what makes
    an untraced client's wire bytes identical to the pre-obs protocol —
    the strongest form of the zero-overhead guarantee.
    """
    from repro.obs.propagate import attach_context, current_context
    from repro.obs.spans import _NULL, trace_span

    assert not obs.is_enabled()
    request = {"op": "query", "circuit": "abc", "count": 1,
               "planes": [["1", "1"]]}
    assert attach_context(request) is request
    assert "ctx" not in request
    assert current_context() is None
    assert trace_span("anything", key="value") is _NULL


@pytest.mark.no_obs
def test_disabled_path_overhead_budget():
    """Re-assert the <3% disabled-path bound on the obs primitives.

    The serving hot path adds one ``attach_context`` + one
    ``trace_span`` + one ``current_context`` per request; the cheapest
    real request (a one-lane query against the in-process transport) is
    ~1 ms, so 3% is ~30 us.  Demand far better — under 2 us for the
    whole trio — measured as a min-of-repeats to shrug off scheduler
    noise.
    """
    import timeit

    from repro.obs.propagate import attach_context, current_context
    from repro.obs.spans import trace_span

    assert not obs.is_enabled()
    request = {"op": "query", "circuit": "abc"}

    def trio():
        attach_context(request)
        current_context()
        with trace_span("x"):
            pass

    loops = 10000
    best = min(timeit.repeat(trio, number=loops, repeat=5)) / loops
    assert best < 2e-6, f"disabled obs trio took {best * 1e9:.0f}ns/call"
