"""Pass-width property suite: a pass is exactly as wide as its batch.

The compiled evaluator (:mod:`repro.netlist.compiled`) runs a
:class:`~repro.netlist.compiled.PlaneBatch` of *n* patterns in one
*n*-lane pass, and pattern dicts 64 per pass.  Nothing downstream may
be able to tell the pass widths apart — these properties pin that down
with hypothesis over random circuits and random ternary pattern sets,
comparing every plane batch with per-pattern dict evaluation (one
one-lane pass each), including the shapes where a width bug would
hide:

* **batch sizes around the dict path's 64-pattern pass** — one lane
  short, exact, one over, several passes' worth, and 4096;
* **all-X lanes** — patterns whose planes contribute no set bits, so a
  stray all-lanes word (a TIE cell, a LUT entry, flip-flop state) of
  the wrong width shows up as a spurious known;
* result order — lane-for-lane: result *i* is pattern *i* at every
  width, so plain list equality is the lane-level comparison.

Deterministic cases pin what no longer varies: the dict path's
64-pattern passes and the 64-pattern samples of the random-pattern
checks, whatever the environment says.
"""

import random
from functools import lru_cache

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.bench.generator import GeneratorSpec, random_sequential_circuit
from repro.netlist.compiled import (
    LANES,
    MASK,
    CompiledCircuit,
    PlaneBatch,
    compile_circuit,
    default_lanes,
)

TERNARY = (0, 1, None)

#: batch sizes at and around the dict path's 64-pattern pass
CHUNK_EDGE_COUNTS = (1, 63, 64, 65, 127, 128, 129, 140, 256, 257, 4096)


@lru_cache(maxsize=None)
def _circuit(seed: int, num_gates: int, num_flip_flops: int = 0):
    spec = GeneratorSpec(
        f"widthprop_{seed}_{num_gates}_{num_flip_flops}",
        num_inputs=6,
        num_outputs=4,
        num_flip_flops=num_flip_flops,
        num_combinational=num_gates,
        seed=seed,
    )
    return random_sequential_circuit(spec)


def _patterns(circuit, rng, count, x_bias):
    """*count* ternary patterns; *x_bias* is the per-net X probability."""
    patterns = []
    for _ in range(count):
        patterns.append({
            net: None if rng.random() < x_bias else rng.randint(0, 1)
            for net in circuit.inputs
        })
    return patterns


def _per_pattern(compiled, patterns, state=None):
    """Each pattern in its own one-lane pass."""
    return [compiled.query_outputs([pattern], state)[0]
            for pattern in patterns]


class TestCrossWidthProperties:
    @settings(max_examples=30, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(
        circuit_seed=st.integers(min_value=0, max_value=5),
        num_gates=st.sampled_from([12, 36]),
        pattern_seed=st.integers(min_value=0, max_value=2**16),
        count=st.integers(min_value=1, max_value=140),
        x_bias=st.sampled_from([0.0, 0.3, 1.0]),
    )
    def test_query_outputs_bit_identical_lane_for_lane(
        self, circuit_seed, num_gates, pattern_seed, count, x_bias
    ):
        circuit = _circuit(circuit_seed, num_gates)
        compiled = compile_circuit(circuit)
        rng = random.Random(pattern_seed)
        patterns = _patterns(circuit, rng, count, x_bias)
        reference = _per_pattern(compiled, patterns)
        assert compiled.query_outputs(patterns) == reference
        batch = PlaneBatch.pack(circuit.inputs, patterns)
        assert compiled.query_outputs(batch).unpack() == reference

    @settings(max_examples=15, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(
        circuit_seed=st.integers(min_value=0, max_value=3),
        pattern_seed=st.integers(min_value=0, max_value=2**16),
        count=st.sampled_from([5, 65, 130]),
    )
    def test_evaluate_many_bit_identical(self, circuit_seed, pattern_seed,
                                         count):
        """Full net-for-net dicts, not just the primary outputs."""
        circuit = _circuit(circuit_seed, 24)
        compiled = compile_circuit(circuit)
        rng = random.Random(pattern_seed)
        patterns = _patterns(circuit, rng, count, x_bias=0.25)
        assert compiled.evaluate_many(patterns) == [
            compiled.evaluate(pattern) for pattern in patterns]

    @settings(max_examples=15, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(
        circuit_seed=st.integers(min_value=0, max_value=3),
        pattern_seed=st.integers(min_value=0, max_value=2**16),
        count=st.sampled_from([1, 64, 65, 257]),
    )
    def test_sequential_step_state_agrees(self, circuit_seed, pattern_seed,
                                          count):
        """Flip-flop state fills every lane of the pass, at any width."""
        circuit = _circuit(circuit_seed, 30, num_flip_flops=4)
        compiled = compile_circuit(circuit)
        rng = random.Random(pattern_seed)
        state = {g.name: rng.choice(TERNARY) for g in circuit.flip_flops()}
        patterns = _patterns(circuit, rng, count, x_bias=0.3)
        reference = [compiled.step_state(pattern, state)[0]
                     for pattern in patterns]
        assert compiled.query_outputs(patterns, state) == reference
        batch = PlaneBatch.pack(circuit.inputs, patterns)
        assert compiled.query_outputs(batch, state).unpack() == reference


class TestChunkEdges:
    @pytest.mark.parametrize("count", CHUNK_EDGE_COUNTS)
    def test_partial_final_chunks_account_identically(self, count,
                                                      pass_masks):
        """A plane batch is one pass exactly *count* lanes wide; pattern
        dicts are 64 per pass, the last one partial; both equal
        per-pattern evaluation, in lane order."""
        circuit = _circuit(1, 24)
        compiled = compile_circuit(circuit)
        rng = random.Random(count * 7919)
        patterns = _patterns(circuit, rng, count, x_bias=0.2)
        reference = _per_pattern(compiled, patterns)
        assert len(reference) == count

        del pass_masks[:]
        batch = PlaneBatch.pack(circuit.inputs, patterns)
        got = compiled.query_outputs(batch)
        assert pass_masks == [(1 << count) - 1]
        assert got.count == count and got.unpack() == reference

        del pass_masks[:]
        assert compiled.query_outputs(patterns) == reference
        full, last = divmod(count, LANES)
        assert pass_masks == [MASK] * full + ([(1 << last) - 1] if last
                                              else [])

    def test_all_x_lanes(self):
        """All-X patterns: planes carry zero set bits at every width."""
        circuit = _circuit(2, 24)
        compiled = compile_circuit(circuit)
        patterns = [{net: None for net in circuit.inputs}
                    for _ in range(67)]
        reference = _per_pattern(compiled, patterns)
        assert compiled.query_outputs(patterns) == reference
        batch = PlaneBatch.pack(circuit.inputs, patterns)
        assert compiled.query_outputs(batch).unpack() == reference


class TestWidthContract:
    def test_default_is_64_without_overrides(self, monkeypatch, pass_masks):
        """Nothing sets the width: ``REPRO_LANES`` is not read, and
        pattern dicts go 64 per pass."""
        monkeypatch.setenv("REPRO_LANES", "256")
        assert default_lanes() == LANES == 64
        circuit = _circuit(0, 12)
        patterns = _patterns(circuit, random.Random(3), 130, 0.2)
        compile_circuit(circuit).query_outputs(patterns)
        assert pass_masks == [MASK, MASK, 0b11]


class TestSampleSizes:
    """The random-pattern checks draw 64 patterns whatever the
    environment says (they once followed a process-wide lane width, and
    their figures drifted with it)."""

    @pytest.fixture(autouse=True)
    def _wide_environment(self, monkeypatch):
        monkeypatch.setenv("REPRO_LANES", "256")

    @pytest.fixture
    def query_sizes(self, monkeypatch):
        sizes = []
        query_outputs = CompiledCircuit.query_outputs

        def recording(self, assignments, *args, **kwargs):
            sizes.append(len(assignments))
            return query_outputs(self, assignments, *args, **kwargs)

        monkeypatch.setattr(CompiledCircuit, "query_outputs", recording)
        return sizes

    @pytest.fixture(scope="class")
    def xor_locked(self):
        from repro.bench import iwls_benchmark
        from repro.locking import XorLock

        bench = iwls_benchmark("s1238")
        locked = XorLock().lock(bench.circuit, 8, random.Random(0))
        return bench.circuit, locked

    def test_recovered_corruption(self, xor_locked, query_sizes):
        from repro.attacks import recovered_corruption

        original, locked = xor_locked
        key = locked.random_wrong_key(random.Random(0xEC))
        rate = recovered_corruption(original, locked.circuit, key)
        assert query_sizes == [64, 64]
        # 295 of 64 patterns x 67 outputs of the combinational core.
        assert rate == 295 / (64 * 67)

    def test_equivalence_prefilter(self, xor_locked, query_sizes):
        from repro.netlist import check_equivalence

        original, locked = xor_locked
        result = check_equivalence(original, locked.circuit,
                                   key_b=locked.key)
        assert result.equivalent
        assert query_sizes == [64, 64]

    def test_signal_probabilities(self, xor_locked, pass_masks):
        from repro.attacks import signal_probabilities
        from repro.netlist.transform import extract_combinational

        _original, locked = xor_locked
        comb = extract_combinational(locked.circuit).circuit
        signal_probabilities(comb, 100, random.Random(2))
        # Two passes (key A, key B) of 64 samples, then two of 36.
        assert pass_masks == [MASK, MASK, (1 << 36) - 1, (1 << 36) - 1]

    def test_atpg_fault_simulation(self, xor_locked, pass_masks):
        from repro.netlist import fault_coverage

        original, _locked = xor_locked
        report = fault_coverage(original, sample=4, rng=random.Random(5))
        assert report.total == 8
        assert pass_masks and set(pass_masks) == {MASK}
