"""Shared fixtures for the benchmark harness.

Every module regenerates one of the paper's tables or figures; run with

    pytest benchmarks/ --benchmark-only -s

(the ``-s`` shows the regenerated rows/diagrams next to the timings).

Each benchmark runs with ``repro.obs`` enabled; the per-test metric
snapshots (solver decisions/conflicts, simulator event counts, flow
retries, ...) are dumped to ``benchmarks/BENCH_obs.json`` at the end of
the session so perf numbers can be correlated with the work performed.
Mark a test ``@pytest.mark.no_obs`` to opt out (used by the overhead
benchmark, which measures the disabled path).
"""

import json
import os
import sys

import pytest

_SRC = os.path.join(os.path.dirname(__file__), os.pardir, "src")
if os.path.isdir(_SRC) and _SRC not in sys.path:
    sys.path.insert(0, os.path.abspath(_SRC))

from repro import obs  # noqa: E402
from repro.bench import BENCHMARKS, iwls_benchmark  # noqa: E402
from repro.bench.generator import (  # noqa: E402
    GeneratorSpec,
    random_sequential_circuit,
)

_OBS_DUMP = os.path.join(os.path.dirname(__file__), "BENCH_obs.json")
_SNAPSHOTS = {}


def pytest_configure(config):
    config.addinivalue_line(
        "markers", "no_obs: run this benchmark with observability disabled"
    )


@pytest.fixture(autouse=True)
def _obs_snapshot(request):
    """Collect a metric snapshot per benchmark test."""
    if request.node.get_closest_marker("no_obs"):
        yield
        return
    sink = obs.InMemorySink()
    session = obs.enable(sink)
    try:
        yield
        session.publish_metrics()
        if sink.last_snapshot:
            _SNAPSHOTS[request.node.nodeid] = dict(sink.last_snapshot)
    finally:
        obs.disable()


def _cores():
    try:
        return len(os.sched_getaffinity(0))
    except (AttributeError, OSError):
        return os.cpu_count() or 1


@pytest.fixture(scope="session")
def bench_record():
    """Stamp the cores the run could use into a BENCH payload.

    Every record a benchmark dumps goes through this, so the committed
    artifacts always say how many cores produced the numbers.
    """

    def stamp(payload):
        payload["cores"] = _cores()
        return payload

    return stamp


def pytest_sessionfinish(session, exitstatus):
    """Merge this run's snapshots into ``BENCH_obs.json``.

    Merging (not overwriting) keeps the committed artifact stable under
    partial runs — ``pytest benchmarks/test_obs_overhead.py`` must not
    wipe the table-regeneration snapshots CI uploaded last time.  The
    file is versioned (``schema``) and sorted, so a fresh run of the
    same code produces a byte-identical artifact apart from the metric
    values themselves.
    """
    if not _SNAPSHOTS:
        return
    existing = {}
    if os.path.exists(_OBS_DUMP):
        try:
            with open(_OBS_DUMP) as stream:
                existing = json.load(stream)
        except (OSError, ValueError):
            existing = {}
    if "snapshots" not in existing:  # pre-schema plain nodeid->snapshot
        existing = {"schema": 1, "snapshots": existing}
    existing["schema"] = 1
    existing["snapshots"].update(_SNAPSHOTS)
    with open(_OBS_DUMP, "w") as stream:
        json.dump(existing, stream, indent=2, sort_keys=True)
        stream.write("\n")


try:
    import pytest_benchmark  # noqa: F401
except ImportError:
    # CI's fast image has no pytest-benchmark; a minimal stand-in keeps
    # the suite runnable — one timed call, no statistics, for both the
    # plain and the pedantic form.
    @pytest.fixture
    def benchmark():
        import time

        def run(fn, *args, **kwargs):
            start = time.perf_counter()
            result = fn(*args, **kwargs)
            run.elapsed = time.perf_counter() - start
            return result

        def pedantic(fn, args=(), kwargs=None, rounds=1, iterations=1):
            return run(fn, *args, **(kwargs or {}))

        run.pedantic = pedantic
        return run


@pytest.fixture(scope="session")
def instances():
    """All seven benchmark stand-ins, generated once."""
    return {name: iwls_benchmark(name) for name in BENCHMARKS}


@pytest.fixture(scope="session")
def s1238():
    return iwls_benchmark("s1238")


#: The serving/width benchmarks' oracle: deep and interface-light, so a
#: lane carries ~100 gate evaluations per interface net (the generated
#: IWLS stand-ins sit near 3, which caps what batching or widening can
#: recover).  At ~4.6k gates it is the largest circuit in the benchmark
#: suite — deeper than any IWLS stand-in's combinational core.
DEEP_SPEC = GeneratorSpec(
    name="deep4k",
    num_inputs=48,
    num_outputs=32,
    num_flip_flops=0,
    num_combinational=4000,
    seed=11,
    reduce_dangling=True,
)


@pytest.fixture(scope="session")
def deep4k():
    """The deep generated oracle, built once per benchmark session."""
    return random_sequential_circuit(DEEP_SPEC)


@pytest.fixture(scope="session")
def s5378():
    return iwls_benchmark("s5378")
