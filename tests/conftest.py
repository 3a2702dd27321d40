"""Shared fixtures for the test suite."""

import os
import random
import sys
import zlib

import pytest

# Fallback when the package is not installed (e.g. a fresh checkout).
_SRC = os.path.join(os.path.dirname(__file__), os.pardir, "src")
if os.path.isdir(_SRC) and _SRC not in sys.path:
    sys.path.insert(0, os.path.abspath(_SRC))

from repro.bench import iwls_benchmark  # noqa: E402
from repro.netlist import Builder  # noqa: E402


def pytest_collection_modifyitems(items):
    """Auto-mark everything under tests/integration/ as ``integration``
    so the fast CI tier can deselect it with ``-m 'not integration'``."""
    for item in items:
        if "tests/integration/" in str(item.fspath).replace(os.sep, "/"):
            item.add_marker(pytest.mark.integration)


@pytest.fixture(autouse=True)
def _global_rng_guard(request):
    """Pin and restore the *global* ``random`` state around every test.

    Library code takes explicit ``random.Random(seed)`` instances, but a
    test (or a dependency) that reaches for the module-level functions
    would otherwise couple its outcome to whichever tests ran before it.
    Seeding from the test's nodeid keeps any such use deterministic and
    order-independent; restoring afterwards keeps the leak from
    spreading.
    """
    saved = random.getstate()
    random.seed(zlib.crc32(request.node.nodeid.encode()) ^ 0xC0FFEE)
    try:
        yield
    finally:
        random.setstate(saved)


@pytest.fixture(autouse=True)
def _force_trace():
    """Run every test under an enabled obs session when
    ``REPRO_FORCE_TRACE`` is set (the CI forced-trace differential
    tier): the *traced* serving path is what gets exercised, so trace
    propagation bugs cannot hide behind the disabled-path fast exit.

    Only for suites that never assert the disabled path (e.g.
    ``tests/serve/test_differential.py``).  Tests that manage their own
    session are unaffected — ``obs.enable`` replaces the forced one,
    and teardown's ``disable`` is a no-op on an already-closed session.
    """
    if not os.environ.get("REPRO_FORCE_TRACE"):
        yield
        return
    from repro import obs

    if obs.is_enabled():
        yield
        return
    obs.enable(obs.InMemorySink())
    try:
        yield
    finally:
        obs.disable()


@pytest.fixture
def pass_masks(monkeypatch):
    """The lane mask of every compiled-evaluator pass, in call order
    (one bit per pattern the pass carries)."""
    from repro.netlist.compiled import CompiledCircuit

    masks = []
    run_planes = CompiledCircuit.run_planes

    def recording(self, value, known, mask, *args, **kwargs):
        masks.append(mask)
        return run_planes(self, value, known, mask, *args, **kwargs)

    monkeypatch.setattr(CompiledCircuit, "run_planes", recording)
    return masks


@pytest.fixture
def rng():
    """A fresh, fixed-seed RNG per test (function-scoped on purpose:
    sharing one stream across tests would make them order-dependent)."""
    return random.Random(0xC0FFEE)


@pytest.fixture(scope="session")
def s1238():
    """The smallest IWLS benchmark stand-in (session-cached)."""
    return iwls_benchmark("s1238")


@pytest.fixture(scope="session")
def s5378():
    return iwls_benchmark("s5378")


def build_toy_sequential(name="toy"):
    """A 2-FF toy machine: q0' = a XOR q1, q1' = NAND(b, q0); y = q0 OR q1."""
    b = Builder(name)
    b.clock("clk")
    a, bb = b.inputs("a", "b")
    q0 = b.circuit.new_net("q0")
    q1 = b.circuit.new_net("q1")
    d0 = b.xor(a, q1)
    d1 = b.nand2(bb, q0)
    b.dff(d0, out=q0, name="ff0")
    b.dff(d1, out=q1, name="ff1")
    b.po(b.or2(q0, q1), "y")
    b.circuit.validate()
    return b.circuit


def build_toy_combinational(name="comb"):
    """y = (a AND b) XOR c; z = NOT a."""
    b = Builder(name)
    a, bb, c = b.inputs("a", "b", "c")
    b.po(b.xor(b.and2(a, bb), c), "y")
    b.po(b.inv(a), "z")
    b.circuit.validate()
    return b.circuit


@pytest.fixture
def toy_sequential():
    return build_toy_sequential()


@pytest.fixture
def toy_combinational():
    return build_toy_combinational()
