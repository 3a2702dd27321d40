"""Tests for the compiled circuit IR and its memoization contract."""

import pickle

import pytest

from repro.netlist import Builder, NetlistError, compile_circuit
from repro.netlist.compiled import CompiledCircuit, PlaneBatch
from repro.sim import (
    evaluate_combinational,
    evaluate_combinational_interpreted,
)
from tests.conftest import build_toy_combinational, build_toy_sequential


class TestTopoMemoization:
    def test_repeated_calls_hit_the_cache(self, toy_combinational):
        first = toy_combinational.topological_order()
        second = toy_combinational.topological_order()
        assert [g.name for g in first] == [g.name for g in second]
        assert first is not second  # callers get fresh lists, not aliases

    def test_structural_edit_invalidates(self, toy_combinational):
        c = toy_combinational
        before = [g.name for g in c.topological_order()]
        n = c.new_net("extra")
        c.add_gate(c.new_gate_name("inv"), "INV_X1", {"A": c.inputs[0]}, n)
        after = [g.name for g in c.topological_order()]
        assert len(after) == len(before) + 1

    def test_remove_gate_invalidates(self, toy_combinational):
        c = toy_combinational
        c.topological_order()
        victim = next(g.name for g in c.gates.values()
                      if g.function == "INV")
        mutations = c._mutations
        c.remove_gate(victim)
        assert c._mutations > mutations
        assert victim not in {g.name for g in c.topological_order()}

    def test_replace_cell_invalidates(self, toy_combinational):
        c = toy_combinational
        compiled = compile_circuit(c)
        gate = next(g for g in c.gates.values() if g.function == "AND2")
        faster = min(
            (cell for cell in c.library.cells_for("AND2")
             if cell.inputs == gate.cell.inputs),
            key=lambda cell: cell.delay,
        )
        c.replace_cell(gate.name, faster)
        recompiled = compile_circuit(c)
        assert recompiled is not compiled

    def test_release_driver_invalidates(self, toy_combinational):
        c = toy_combinational
        c.topological_order()
        mutations = c._mutations
        gate = next(iter(c.gates.values()))
        c.release_driver(gate.output)
        assert c._mutations > mutations
        c._claim_driver(gate.output, gate.name)  # restore for validate()


class TestCompiledCache:
    def test_compile_is_memoized(self, toy_sequential):
        assert compile_circuit(toy_sequential) is compile_circuit(
            toy_sequential
        )

    def test_edit_invalidates_compiled(self, toy_combinational):
        c = toy_combinational
        compiled = compile_circuit(c)
        n = c.new_net("extra")
        c.add_gate(c.new_gate_name("buf"), "BUF_X1", {"A": c.inputs[0]}, n)
        assert compile_circuit(c) is not compiled

    def test_circuit_compiled_accessor(self, toy_combinational):
        assert toy_combinational.compiled() is compile_circuit(
            toy_combinational
        )

    def test_clone_does_not_share_cache(self, toy_combinational):
        compiled = compile_circuit(toy_combinational)
        clone = toy_combinational.clone()
        assert compile_circuit(clone) is not compiled

    def test_stale_compiled_never_served(self):
        b = Builder("stale")
        a, bb = b.inputs("a", "b")
        b.po(b.and2(a, bb), "y")
        c = b.circuit
        assert evaluate_combinational(c, {"a": 1, "b": 1})["y"] == 1
        # Invert 'a' on the AND's pin through public mutators only: the
        # cached compiled form must not survive the edit.
        inverted = c.new_net("na")
        c.add_gate(c.new_gate_name("inv"), "INV_X1", {"A": a}, inverted)
        gate = next(g for g in c.gates.values() if g.function == "AND2")
        c.reconnect_pin(gate.name, "A", inverted)
        assert evaluate_combinational(c, {"a": 1, "b": 1})["y"] == 0


class TestPickle:
    def test_compiled_roundtrip(self, toy_sequential):
        compiled = compile_circuit(toy_sequential)
        clone = pickle.loads(pickle.dumps(compiled))
        assert isinstance(clone, CompiledCircuit)
        assert clone.net_names == compiled.net_names
        assert clone.evaluate({"a": 1, "b": 0}) == compiled.evaluate(
            {"a": 1, "b": 0}
        )

    def test_circuit_pickle_carries_compiled_cache(self, toy_sequential):
        default = compile_circuit(toy_sequential)
        wide = compile_circuit(toy_sequential, default.lanes * 4)
        clone = pickle.loads(pickle.dumps(toy_sequential))
        cached = clone._compiled_cache
        assert cached is not None and cached[0] == clone._mutations
        # The carried cache is served, not recompiled — per width.
        assert compile_circuit(clone) is cached[1][default.lanes]
        assert compile_circuit(clone, wide.lanes) is cached[1][wide.lanes]

    def test_pre_width_cache_tuple_still_served(self, toy_sequential):
        # Circuits pickled before the width parameter carried a bare
        # (mutations, CompiledCircuit) pair; compile_circuit adopts it.
        compiled = compile_circuit(toy_sequential)
        toy_sequential._compiled_cache = (toy_sequential._mutations,
                                          compiled)
        assert compile_circuit(toy_sequential) is compiled
        assert toy_sequential._compiled_cache[1] == {
            compiled.lanes: compiled
        }

    def test_pickle_carrying_cell_delays_still_loads(self, toy_sequential,
                                                     monkeypatch):
        # IRs in older campaign caches carry slots the class no longer
        # has (per-gate cell delays; the functions, fan-in names and
        # truth tables the Tseitin encoder read); unpickling skips them.
        compiled = compile_circuit(toy_sequential)
        order = toy_sequential.topological_order()
        old_state = dict(
            compiled.__getstate__(),
            delays=tuple(g.cell.delay for g in order),
            functions=tuple(g.function for g in order),
            fanin_name_tuples=tuple(g.input_nets() for g in order),
            truth_tables=tuple(g.truth_table for g in order),
        )
        monkeypatch.setattr(CompiledCircuit, "__getstate__",
                            lambda self: dict(old_state))
        data = pickle.dumps(compiled)
        monkeypatch.undo()
        clone = pickle.loads(data)
        for dropped in ("delays", "functions", "fanin_name_tuples",
                        "truth_tables"):
            assert not hasattr(clone, dropped)
        assert clone.net_names == compiled.net_names
        assert clone.evaluate({"a": 1, "b": 0}) == compiled.evaluate(
            {"a": 1, "b": 0}
        )

    def test_unpickled_circuit_still_evaluates(self, toy_combinational):
        compile_circuit(toy_combinational)
        clone = pickle.loads(pickle.dumps(toy_combinational))
        assert evaluate_combinational(
            clone, {"a": 1, "b": 1, "c": 1}
        )["y"] == 0


class TestStrictAssignments:
    CASES = [evaluate_combinational, evaluate_combinational_interpreted]

    @pytest.mark.parametrize("evaluate", CASES,
                             ids=["compiled", "interpreted"])
    def test_unknown_extra_rejected(self, evaluate):
        circuit = build_toy_combinational()
        with pytest.raises(NetlistError, match="unknown net 'nope'"):
            evaluate(circuit, {"a": 0, "b": 1, "c": 0, "nope": 1})

    @pytest.mark.parametrize("evaluate", CASES,
                             ids=["compiled", "interpreted"])
    def test_missing_input_rejected(self, evaluate):
        circuit = build_toy_combinational()
        with pytest.raises(NetlistError, match="no value supplied"):
            evaluate(circuit, {"a": 0, "b": 1})

    @pytest.mark.parametrize("evaluate", CASES,
                             ids=["compiled", "interpreted"])
    def test_known_extra_net_accepted(self, evaluate):
        # A floating (undriven but read) net is a real net: an extra
        # assignment supplies its value; omitting it means X.
        from repro.netlist import Circuit

        circuit = Circuit("floaty")
        circuit.add_input("a")
        circuit.add_gate("g", "AND2_X1", {"A": "a", "B": "hang"}, "y")
        circuit.add_output("y")
        values = evaluate(circuit, {"a": 1, "hang": 1})
        assert values["hang"] == 1 and values["y"] == 1
        assert evaluate(circuit, {"a": 1})["y"] is None

    @pytest.mark.parametrize("evaluate", CASES,
                             ids=["compiled", "interpreted"])
    def test_garbage_value_rejected(self, evaluate):
        circuit = build_toy_combinational()
        with pytest.raises(ValueError, match="not a logic value"):
            evaluate(circuit, {"a": 0, "b": 2, "c": 0})

    @pytest.mark.parametrize("evaluate", CASES,
                             ids=["compiled", "interpreted"])
    def test_garbage_extra_value_rejected(self, evaluate):
        circuit = build_toy_combinational()
        # 'y' is driven (its value gets overwritten) but garbage is
        # still rejected at the boundary.
        with pytest.raises(ValueError, match="not a logic value"):
            evaluate(circuit, {"a": 0, "b": 1, "c": 0, "y": "zero"})


class TestCompiledStructure:
    def test_schedule_matches_topological_order(self, toy_sequential):
        compiled = compile_circuit(toy_sequential)
        order = toy_sequential.topological_order()
        assert compiled.gate_names == tuple(g.name for g in order)
        assert compiled.out_names == tuple(g.output for g in order)
        assert tuple(
            tuple(compiled.net_names[i] for i in fanin)
            for fanin in compiled.fanin_tuples
        ) == tuple(g.input_nets() for g in order)

    def test_levels_monotone_along_fanin(self, s1238):
        compiled = compile_circuit(s1238.circuit)
        level_of = dict(zip(compiled.out_ids, compiled.levels))
        for out_id, fanin in zip(compiled.out_ids, compiled.fanin_tuples):
            for net_id in fanin:
                assert level_of.get(net_id, 0) < level_of[out_id]

    def test_sources_precede_gate_outputs(self, toy_sequential):
        compiled = compile_circuit(toy_sequential)
        assert all(i >= compiled.num_sources for i in compiled.out_ids)
        for net in list(toy_sequential.inputs) + [
            ff.output for ff in toy_sequential.flip_flops()
        ]:
            assert compiled.net_ids[net] < compiled.num_sources


class TestValidateAssignment:
    """The evaluator's boundary check on dict assignments, which
    ``query_outputs`` applies before packing a single bit."""

    def test_accepts_complete_assignment(self):
        compiled = compile_circuit(build_toy_combinational())
        assert compiled.query_outputs([{"a": 0, "b": 1, "c": 0}]) == \
            [{"y": 0, "z": 1}]

    def test_rejects_missing_and_unknown_nets(self):
        compiled = compile_circuit(build_toy_combinational())
        with pytest.raises(NetlistError, match="no value supplied"):
            compiled.query_outputs([{"a": 0, "b": 1}])
        with pytest.raises(NetlistError, match="unknown net"):
            compiled.query_outputs([{"a": 0, "b": 1, "c": 0, "zz": 1}])

    def test_rejects_bad_values(self):
        compiled = compile_circuit(build_toy_combinational())
        with pytest.raises(ValueError, match="not a logic value"):
            compiled.query_outputs([{"a": 0, "b": 2, "c": "junk"}])


class TestPlaneBatch:
    """Planes in, planes out: the same answers as dicts in, dicts out."""

    @staticmethod
    def patterns(circuit, count, seed):
        import random

        rng = random.Random(seed)
        nets = list(circuit.inputs) + list(circuit.key_inputs)
        return [{net: rng.choice((0, 1, None)) for net in nets}
                for _ in range(count)]

    def test_pack_unpack_round_trip(self):
        patterns = [{"a": 1, "b": None}, {"a": 0, "b": True},
                    {"a": 1.0, "b": 0}]
        batch = PlaneBatch.pack(["a", "b"], patterns)
        assert len(batch) == 3
        assert batch.value == [0b101, 0b010]
        assert batch.known == [0b111, 0b110]
        assert batch.unpack() == [{"a": 1, "b": None}, {"a": 0, "b": 1},
                                  {"a": 1, "b": 0}]
        assert PlaneBatch.pack(["a"], []).unpack() == []

    def test_pack_rejects_like_query_outputs(self):
        with pytest.raises(NetlistError, match="no value supplied"):
            PlaneBatch.pack(["a", "b"], [{"a": 0}])
        with pytest.raises(NetlistError, match="unknown net 'zz'"):
            PlaneBatch.pack(["a"], [{"a": 0, "zz": 1}])
        # Integers that bytes() accepts are still not logic values.
        for junk in (2, 32, 43, 95, "1", [1]):
            with pytest.raises(ValueError, match="not a logic value"):
                PlaneBatch.pack(["a"], [{"a": 1}, {"a": junk}])

    @pytest.mark.parametrize("count", [1, 7, 64, 65, 200])
    def test_query_outputs_planes_match_dicts(self, count):
        from repro.bench import iwls_benchmark
        from repro.netlist.transform import extract_combinational

        circuit = extract_combinational(
            iwls_benchmark("s1238").circuit).circuit
        compiled = compile_circuit(circuit)
        patterns = self.patterns(circuit, count, seed=count)
        answer = compiled.query_outputs(
            PlaneBatch.pack(compiled.inputs, patterns))
        assert isinstance(answer, PlaneBatch)
        assert answer.nets == compiled.outputs and len(answer) == count
        assert answer.unpack() == compiled.query_outputs(patterns)
        # No bit at or past the count, even from constant outputs.
        assert all(k < (1 << count) for k in answer.known)

    def test_key_inputs_follow_inputs(self):
        b = Builder("keyed")
        a, = b.inputs("a")
        key = b.key_input("keyin0")
        b.po(b.xor(a, key), "y")
        compiled = compile_circuit(b.circuit)
        patterns = self.patterns(b.circuit, 5, seed=1)
        batch = PlaneBatch.pack(["a", "keyin0"], patterns)
        assert compiled.query_outputs(batch).unpack() == \
            compiled.query_outputs(patterns)
        with pytest.raises(NetlistError, match="in order"):
            compiled.query_outputs(PlaneBatch.pack(["keyin0", "a"],
                                                   patterns))
        with pytest.raises(NetlistError, match="no value supplied"):
            compiled.query_outputs(PlaneBatch(["a"], [0], [1], 1))
        with pytest.raises(NetlistError, match="unknown net 'zz'"):
            compiled.query_outputs(PlaneBatch(["a", "keyin0", "zz"],
                                              [0, 0, 0], [1, 1, 1], 1))

    def test_constant_outputs_stay_inside_the_count(self):
        b = Builder("const")
        b.inputs("a")
        b.po(b.const1(), "one")
        compiled = compile_circuit(b.circuit)
        answer = compiled.query_outputs(PlaneBatch.pack(["a"], [{"a": 0}]))
        assert (answer.value, answer.known) == ([1], [1])

    def test_split_into_single_patterns(self):
        patterns = [{"a": v, "b": w} for v in (0, 1, None)
                    for w in (1, None, 0)]
        joined = PlaneBatch.pack(["a", "b"], patterns)
        assert joined.split([1] * len(patterns)) == \
            [PlaneBatch.pack(["a", "b"], [p]) for p in patterns]

    def test_concat_and_split_at_lane_offsets(self):
        first = PlaneBatch.pack(["a"], [{"a": 1}, {"a": None}])
        second = PlaneBatch.pack(["a"], [{"a": 0}, {"a": 1}, {"a": 1}])
        joined = PlaneBatch.concat([first, second])
        assert len(joined) == 5
        assert joined.unpack() == first.unpack() + second.unpack()
        assert joined.split([2, 3]) == [first, second]
        assert PlaneBatch.concat([first]) is first
        with pytest.raises(ValueError, match="add up"):
            joined.split([2, 2])
        with pytest.raises(ValueError, match="different nets"):
            PlaneBatch.concat([first, PlaneBatch.pack(["b"], [{"b": 0}])])
