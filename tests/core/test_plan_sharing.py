"""One timing analysis and one GK plan per unlocked design.

Table I's row and every non-P&R GK lock of a netlist share the plan
:func:`repro.core.insertion.plan_design` keeps on the netlist
(:meth:`Circuit.memo`).  Sharing must be exact: any edit or any other
planning argument misses, a caller's own analysis or wire map bypasses,
pickles never carry the plan, and campaign records do not depend on
whether jobs shared an instance.
"""

import os
import pickle
import random
import shutil

import pytest

from repro import obs
from repro.bench import iwls_benchmark
from repro.bench.generator import GeneratorSpec, random_sequential_circuit
from repro.bench.iwls import BenchmarkInstance
from repro.campaign import (
    CampaignConfig,
    CampaignMatrix,
    NetlistCache,
    execute_job,
    run_campaign,
)
from repro.campaign import worker
from repro.campaign.cache import CACHE_VERSION
from repro.core import GkLock, available_ffs, plan_design
from repro.locking import LockingError
from repro.netlist.compiled import compile_circuit
from repro.pnr import place, route
from repro.sta import ClockSpec, analyze

DATA = os.path.join(os.path.dirname(__file__), "data")


def _computed(fn):
    """Run *fn*; return its result and the planning passes it made."""
    with obs.capture() as sink:
        result = fn()
    counter = (sink.last_snapshot or {}).get("flow.plan.computed", {})
    return result, counter.get("value", 0)


@pytest.fixture
def design(s1238):
    return s1238.circuit.clone(), s1238.clock


class TestMemo:
    def test_second_call_shares(self, design):
        circuit, clock = design
        (first, shared1), passes1 = _computed(
            lambda: plan_design(circuit, clock))
        (second, shared2), passes2 = _computed(
            lambda: plan_design(circuit, clock))
        assert (shared1, passes1) == (False, 1)
        assert (shared2, passes2) == (True, 0)
        assert second is first
        with pytest.raises(TypeError):  # shared, so read-only
            first.plans["extra"] = None

    def test_available_ffs_shares_and_copies(self, design):
        circuit, clock = design
        plans, passes = _computed(lambda: available_ffs(circuit, clock))
        again, passes_again = _computed(lambda: available_ffs(circuit, clock))
        assert (passes, passes_again) == (1, 0)
        assert again == plans
        again.clear()  # the caller's own dict: the shared plan survives
        assert available_ffs(circuit, clock) == plans

    @pytest.mark.parametrize("edit", [
        "add_gate", "remove_gate", "rewire", "reconnect_pin", "replace_cell",
    ])
    def test_any_edit_misses(self, design, edit):
        circuit, clock = design
        plan_design(circuit, clock)
        gate = next(g for g in circuit.topological_order()
                    if g.function == "NAND2")
        if edit == "add_gate":
            circuit.add_gate("extra", "INV_X1", {"A": gate.output}, "extra_y")
        elif edit == "remove_gate":
            circuit.add_gate("extra", "INV_X1", {"A": gate.output}, "extra_y")
            plan_design(circuit, clock)
            circuit.remove_gate("extra")
        elif edit == "rewire":
            circuit.add_gate("extra", "BUF_X1", {"A": gate.output}, "extra_y")
            plan_design(circuit, clock)
            readers = [pin for pin in circuit.fanout_pins(gate.output)
                       if pin[0] != "extra"]
            circuit.rewire_sinks(gate.output, "extra_y", sinks=readers[:1])
        elif edit == "reconnect_pin":
            circuit.reconnect_pin(gate.name, "A", gate.pins["A"])
        else:
            circuit.replace_cell(gate.name, gate.cell)
        (_plan, shared), passes = _computed(
            lambda: plan_design(circuit, clock))
        assert (shared, passes) == (False, 1)

    @pytest.mark.parametrize("change", [
        "period", "skew", "uncertainty", "glitch_length", "margin",
    ])
    def test_other_arguments_miss(self, design, change):
        circuit, clock = design
        plan_design(circuit, clock)
        ff = circuit.flip_flops()[0].name
        args = {"clock": clock}
        if change == "period":
            args["clock"] = clock.with_period(clock.period + 0.5)
        elif change == "skew":
            args["clock"] = ClockSpec(period=clock.period, skew={ff: 0.05})
        elif change == "uncertainty":
            args["clock"] = ClockSpec(period=clock.period, uncertainty=0.05)
        elif change == "glitch_length":
            args["glitch_length"] = 0.8
        else:
            args["margin"] = 0.3
        (_plan, shared), passes = _computed(
            lambda: plan_design(circuit, **args))
        assert (shared, passes) == (False, 1)
        # one entry per netlist: the new key replaced the old one
        (_plan, shared), _ = _computed(lambda: plan_design(circuit, clock))
        assert not shared

    def test_equal_clock_objects_share(self, design):
        circuit, clock = design
        plan_design(circuit, clock)
        twin = ClockSpec(period=clock.period, skew=dict(clock.skew),
                         uncertainty=clock.uncertainty)
        (_plan, shared), _ = _computed(lambda: plan_design(circuit, twin))
        assert shared

    def test_analysis_or_wire_map_bypasses(self, design):
        circuit, clock = design
        memoized, _ = plan_design(circuit, clock)
        timing = analyze(circuit, clock)
        wires = route(place(circuit)).wire_delay
        for extra in ({"analysis": timing}, {"wire_delay": wires}):
            (plan, shared), passes = _computed(
                lambda: plan_design(circuit, clock, **extra))
            assert (shared, passes) == (False, 1)
            assert plan is not memoized
        # the bypassing calls left the entry alone
        again, shared = plan_design(circuit, clock)
        assert shared and again is memoized

    def test_violated_endpoints_match_a_fresh_analysis(self, design):
        circuit, clock = design
        tight = clock.with_period(clock.period * 0.8)
        plan, _ = plan_design(circuit, tight)
        timing = analyze(circuit, tight)
        expected = {e.ff for e in timing.setup_violations()
                    + timing.hold_violations()}
        assert expected and plan.violated == expected


class TestGkLock:
    def test_table_rows_of_one_design_plan_once(self, s5378):
        instance = BenchmarkInstance(s5378.circuit.clone(), s5378.clock,
                                     s5378.critical_delay)

        def rows():
            from repro.reporting.tables import lock_table2_config, table1_row

            table1_row("s5378", instance=instance)
            return [lock_table2_config(instance.circuit, instance.clock, c)
                    for c in ("gk4", "gk8", "gk16", "hybrid")]

        with obs.capture() as sink:
            locks = rows()
        assert all(lock is not None for lock in locks)
        assert sink.metric_value("flow.plan.computed") == 1
        spans = sink.spans_named("flow.plan")
        assert [s.attrs["shared"] for s in spans] == [True] * 4

    def test_lock_leaves_its_input_untouched(self, design):
        circuit, clock = design
        before = (dict(circuit.gates), circuit._mutations)
        GkLock(clock).lock(circuit, 4, random.Random(3))
        assert (dict(circuit.gates), circuit._mutations) == before

    def test_infeasible_lock_clones_nothing(self, design, monkeypatch):
        circuit, clock = design
        clones = []
        original_clone = type(circuit).clone

        def counted(self, name=None):
            clones.append(name)
            return original_clone(self, name)

        monkeypatch.setattr(type(circuit), "clone", counted)
        with pytest.raises(LockingError, match="feasible FFs"):
            GkLock(clock).lock(circuit, 2 * len(circuit.gates),
                               random.Random(1))
        assert clones == []

    def test_pnr_lock_plans_on_its_clone(self, design):
        circuit, clock = design
        with obs.capture() as sink:
            GkLock(clock, run_pnr=True).lock(circuit, 2, random.Random(5))
        assert sink.spans_named("flow.plan")[0].attrs["shared"] is False
        assert circuit._memo is None  # nothing planned on the input


class TestPickling:
    def _planned_instance(self):
        instance = iwls_benchmark("s1238")
        circuit = instance.circuit
        available_ffs(circuit, instance.clock)
        GkLock(instance.clock).lock(circuit, 4, random.Random(1))
        circuit.flip_flops()
        circuit.library.cells_for("NAND2")
        return instance

    def test_pickle_carries_no_plan(self):
        instance = self._planned_instance()
        assert instance.circuit._memo is not None
        loaded = pickle.loads(pickle.dumps(instance))
        assert loaded.circuit._memo is None
        assert loaded.circuit._ff_cache is None
        assert loaded.circuit.library._by_function is None
        (_plan, shared), passes = _computed(
            lambda: plan_design(loaded.circuit, loaded.clock))
        assert (shared, passes) == (False, 1)

    def test_instance_entry_bytes_unchanged_by_planning(self):
        """The campaign stores an instance right after generation and
        compilation; the memos must add nothing to those bytes."""
        planned = self._planned_instance()
        untouched = iwls_benchmark("s1238")
        for instance in (planned, untouched):
            compile_circuit(instance.circuit)
        dump = lambda value: pickle.dumps(  # noqa: E731
            value, protocol=pickle.HIGHEST_PROTOCOL)
        assert dump(planned) == dump(untouched)

    def test_cache_version_unchanged(self):
        # Instance entries written before plans were shared stay valid.
        assert CACHE_VERSION == 2

    def test_entry_written_before_the_memos_loads(self, tmp_path):
        """``tiny-seed7.pkl`` is a ``bench`` cache entry written by the
        code before these memos existed (see ``_tiny_instance`` for how
        it was built)."""
        cache = NetlistCache(str(tmp_path))
        key = cache.key(kind="bench", benchmark="tiny", seed=7)
        path = tmp_path / key[:2] / f"{key}.pkl"
        path.parent.mkdir(parents=True)
        shutil.copy(os.path.join(DATA, "tiny-seed7.pkl"), path)
        worker._INSTANCE_MEMO.pop(("tiny", 7), None)
        try:
            loaded = worker._instance("tiny", 7, cache)
        finally:
            worker._INSTANCE_MEMO.pop(("tiny", 7), None)
        assert cache.hits == 1
        fresh = _tiny_instance()
        assert loaded.clock == fresh.clock
        assert available_ffs(loaded.circuit, loaded.clock) == available_ffs(
            fresh.circuit, fresh.clock)
        assert (loaded.circuit.transitive_po_sets()
                == fresh.circuit.transitive_po_sets())
        assert ([g.name for g in loaded.circuit.flip_flops()]
                == [g.name for g in fresh.circuit.flip_flops()])
        locks = [GkLock(inst.clock).lock(inst.circuit, 2, random.Random(4))
                 for inst in (loaded, fresh)]
        assert locks[0].key == locks[1].key
        assert sorted(locks[0].circuit.gates) == sorted(locks[1].circuit.gates)


def _tiny_instance():
    """The design behind ``data/tiny-seed7.pkl``: a small generated
    netlist under its critical path plus 2 ns of glitch room."""
    circuit = random_sequential_circuit(GeneratorSpec(
        name="tiny", num_inputs=4, num_outputs=3, num_flip_flops=6,
        num_combinational=40, seed=7))
    timing = analyze(circuit, ClockSpec(period=100.0))
    critical = max(e.arrival_max for e in timing.endpoints.values())
    return BenchmarkInstance(
        circuit=circuit,
        clock=ClockSpec(period=round(critical * 1.08 + 2.0, 2)),
        critical_delay=critical,
    )


BENCHES = ("s1238", "s5378")


def _table_jobs(seed):
    return (CampaignMatrix.table1(BENCHES, seed=seed).expand()
            + CampaignMatrix.table2(BENCHES, seed=seed).expand())


@pytest.mark.parametrize("seed", [2019, 5])
def test_shared_instance_gives_the_records_of_fresh_ones(seed, monkeypatch):
    """A serial campaign shares one instance (and so one plan) per
    design across its Table I and Table II jobs; giving every job its
    own freshly generated instance must not change a record."""
    monkeypatch.setattr(worker, "_INSTANCE_MEMO", {})
    shared = run_campaign(_table_jobs(seed), CampaignConfig(jobs=1))
    assert shared.ok
    for spec in _table_jobs(seed):
        worker._INSTANCE_MEMO.clear()
        fresh = execute_job(spec)
        assert fresh["status"] == "ok"
        assert fresh["payload"] == shared.records[spec.job_id]["payload"]
