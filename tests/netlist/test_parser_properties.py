"""Properties of the ``.bench`` and structural Verilog readers.

* Damaged text, meaning s1238 written out and then truncated or
  mutated, either parses or raises :class:`NetlistError`, never any
  other exception.
* A write -> read round trip keeps the inputs, key inputs and outputs,
  and the compiled evaluator gives the same outputs on random patterns.
  The text itself is not byte-identical: gate names and order change.
"""

import functools
import io
import random

import pytest
from hypothesis import given, settings, strategies as st

from repro.bench import iwls_benchmark
from repro.bench.generator import GeneratorSpec, random_sequential_circuit
from repro.locking import XorLock
from repro.locking.xor_lock import lockable_nets
from repro.netlist import (
    NetlistError,
    parse_bench,
    parse_verilog,
    write_bench,
    write_verilog,
)
from repro.netlist.compiled import compile_circuit
from repro.netlist.transform import extract_combinational

FORMATS = {
    "bench": (write_bench, parse_bench),
    "verilog": (write_verilog, parse_verilog),
}

#: Characters that matter to either grammar, plus ordinary name text.
SYNTAX = "(),;=.\\/# \nabgGNOTANDMUXDFF_X101[]$"


def write(fmt, circuit):
    buffer = io.StringIO()
    FORMATS[fmt][0](circuit, buffer)
    return buffer.getvalue()


@functools.lru_cache(maxsize=None)
def s1238_text(fmt):
    return write(fmt, iwls_benchmark("s1238").circuit)


@st.composite
def damaged(draw, text):
    """*text* truncated, or with one span deleted, replaced, duplicated
    or one line moved."""
    size = len(text)
    start = draw(st.integers(0, size - 1))
    end = draw(st.integers(start, min(size, start + 64)))
    kind = draw(st.sampled_from(
        ("truncate", "delete", "replace", "duplicate", "move_line")
    ))
    if kind == "truncate":
        return text[:start]
    if kind == "delete":
        return text[:start] + text[end:]
    if kind == "replace":
        junk = draw(st.text(alphabet=SYNTAX, min_size=1, max_size=8))
        return text[:start] + junk + text[end:]
    if kind == "duplicate":
        return text[:end] + text[start:end] + text[end:]
    lines = text.splitlines(keepends=True)
    line = lines.pop(draw(st.integers(0, len(lines) - 1)))
    lines.insert(draw(st.integers(0, len(lines))), line)
    return "".join(lines)


@pytest.mark.parametrize("fmt", sorted(FORMATS))
@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_damaged_text_raises_only_netlist_error(fmt, data):
    text = data.draw(damaged(s1238_text(fmt)))
    try:
        FORMATS[fmt][1](text)
    except NetlistError:
        pass


@st.composite
def small_netlists(draw):
    """A small random sequential netlist, XOR-locked with 0-2 key bits."""
    circuit = random_sequential_circuit(GeneratorSpec(
        name="rt",
        num_inputs=draw(st.integers(1, 5)),
        num_outputs=draw(st.integers(1, 3)),
        num_flip_flops=draw(st.integers(0, 3)),
        num_combinational=draw(st.integers(4, 30)),
        seed=draw(st.integers(0, 2 ** 16)),
    ))
    key_bits = min(draw(st.integers(0, 2)), len(lockable_nets(circuit)))
    if key_bits:
        rng = random.Random(draw(st.integers(0, 2 ** 16)))
        circuit = XorLock().lock(circuit, key_bits, rng).circuit
    return circuit


def comb_outputs(circuit, patterns):
    """Output values of *circuit*'s combinational view, by net name."""
    return compile_circuit(
        extract_combinational(circuit).circuit
    ).query_outputs(patterns)


@pytest.mark.parametrize("fmt", sorted(FORMATS))
@settings(max_examples=40, deadline=None)
@given(circuit=small_netlists(), seed=st.integers(0, 2 ** 16))
def test_round_trip_keeps_interface_and_function(fmt, circuit, seed):
    parsed = FORMATS[fmt][1](write(fmt, circuit))
    assert parsed.inputs == circuit.inputs
    assert parsed.key_inputs == circuit.key_inputs
    assert parsed.outputs == circuit.outputs
    rng = random.Random(seed)
    sources = circuit.inputs + circuit.key_inputs + [
        ff.output for ff in circuit.flip_flops()
    ]
    patterns = [
        {net: rng.randint(0, 1) for net in sources} for _ in range(64)
    ]
    assert comb_outputs(parsed, patterns) == comb_outputs(circuit, patterns)
