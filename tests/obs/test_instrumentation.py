"""Integration tests: instrumented hot paths emit spans and metrics.

These exercise the real solver / attack / simulator / flow code paths
under ``obs.capture()`` and also check that the always-on statistics
(solver counters, ``SatAttackResult.iteration_stats``) are populated
even when observability is disabled.
"""

import random

import pytest

from repro import obs
from repro.attacks import CombinationalOracle, sat_attack
from repro.core import GkLock, expose_gk_keys
from repro.locking import XorLock
from repro.netlist import Builder
from repro.netlist.cells import Cell, CellLibrary
from repro.sat import Solver
from repro.sim import EventSimulator
from repro.sta import ClockSpec


@pytest.fixture(autouse=True)
def _obs_off():
    obs.disable()
    yield
    obs.disable()


def medium_comb():
    """Same 12-gate circuit the SAT-attack tests lock (fast to attack)."""
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


def unit_gk_host():
    """One-FF host that GkLock accepts with a relaxed 3 ns clock."""
    b = Builder("unit")
    b.clock("clk")
    a = b.input("a")
    q = b.dff(b.inv(a), name="ff")
    b.po(q, "y")
    return b.circuit


def php_solver(holes=4):
    """Pigeonhole CNF (holes+1 pigeons): small but forces real conflicts."""
    s = Solver()
    pigeons = holes + 1
    var = [[s.new_var() for _ in range(holes)] for _ in range(pigeons)]
    for p in range(pigeons):
        s.add_clause(var[p])
    for h in range(holes):
        for p1 in range(pigeons):
            for p2 in range(p1 + 1, pigeons):
                s.add_clause([-var[p1][h], -var[p2][h]])
    return s


class TestSolverInstrumentation:
    def test_counters_accumulate_with_obs_disabled(self):
        s = php_solver()
        assert s.solve() is False
        assert s.num_solve_calls == 1
        assert s.num_decisions > 0
        assert s.num_conflicts > 0
        assert s.num_propagations > 0
        assert s.num_learned > 0

    def test_solve_emits_span_and_metrics(self):
        s = php_solver()
        with obs.capture() as sink:
            assert s.solve() is False
        (span,) = sink.spans_named("sat.solve")
        assert span.attrs["result"] == "UNSAT"
        assert span.attrs["decisions"] == s.num_decisions
        assert span.attrs["conflicts"] == s.num_conflicts
        assert sink.metric_value("sat.solver.calls") == 1
        assert sink.metric_value("sat.solver.decisions") == s.num_decisions
        assert sink.metric_value("sat.solver.conflicts") == s.num_conflicts
        assert sink.last_snapshot["sat.solve.seconds"]["count"] == 1

    def test_span_deltas_are_per_call(self):
        s = php_solver()
        s.solve()  # first call outside capture
        baseline = s.num_decisions
        with obs.capture() as sink:
            s.solve(assumptions=[1])
        (span,) = sink.spans_named("sat.solve")
        # the span reports this call's work, not the lifetime totals
        assert span.attrs["decisions"] == s.num_decisions - baseline

    def test_sat_result_also_annotated(self):
        s = Solver()
        a, b = s.new_var(), s.new_var()
        s.add_clause([a, b])
        with obs.capture() as sink:
            assert s.solve() is True
        assert sink.spans_named("sat.solve")[0].attrs["result"] == "SAT"


class TestSatAttackStats:
    """Satellite: SatAttackResult solver stats are populated and monotone."""

    @pytest.fixture(scope="class")
    def xor_result(self):
        c = medium_comb()
        locked = XorLock().lock(c, 4, random.Random(7))
        return sat_attack(locked.circuit, CombinationalOracle(c))

    def test_solver_stats_populated(self, xor_result):
        r = xor_result
        assert r.completed
        assert r.solver_decisions > 0
        assert r.solver_conflicts >= 0
        assert r.iteration_stats[-1].solver_propagations > 0
        assert r.oracle_queries == r.iterations > 0

    def test_iteration_stats_one_entry_per_dip(self, xor_result):
        stats = xor_result.iteration_stats
        assert len(stats) == xor_result.iterations
        assert [s.index for s in stats] == list(range(1, len(stats) + 1))

    def test_iteration_stats_monotone(self, xor_result):
        stats = xor_result.iteration_stats
        for field in (
            "seconds",
            "solver_decisions",
            "solver_conflicts",
            "solver_propagations",
            "oracle_queries",
            "clauses",
        ):
            series = [getattr(s, field) for s in stats]
            assert series == sorted(series), f"{field} not monotone: {series}"
        # cumulative: each iteration issues exactly one oracle query
        assert [s.oracle_queries for s in stats] == list(
            range(1, len(stats) + 1)
        )

    def test_final_iteration_matches_result_totals(self, xor_result):
        last = xor_result.iteration_stats[-1]
        assert last.oracle_queries == xor_result.oracle_queries
        assert last.solver_decisions <= xor_result.solver_decisions
        assert last.solver_conflicts <= xor_result.solver_conflicts

    def test_attack_spans_and_metrics(self):
        c = medium_comb()
        locked = XorLock().lock(c, 4, random.Random(7))
        with obs.capture() as sink:
            result = sat_attack(locked.circuit, CombinationalOracle(c))
        (attack,) = sink.spans_named("attack.sat")
        assert attack.attrs["iterations"] == result.iterations
        assert attack.attrs["completed"] is True
        # one span per DIP iteration plus the final UNSAT convergence check
        assert len(sink.spans_named("attack.sat.iteration")) == (
            result.iterations + 1
        )
        assert sink.metric_value("attack.sat.iterations") == result.iterations
        assert sink.metric_value("attack.sat.oracle_queries") == (
            result.oracle_queries
        )

    def test_gk_unsat_attack_reports_zero_iterations(self):
        host = unit_gk_host()
        locked = GkLock(ClockSpec(period=3.0)).lock(host, 2, random.Random(5))
        exposed = expose_gk_keys(locked)
        with obs.capture() as sink:
            result = sat_attack(exposed, CombinationalOracle(host))
        assert result.unsat_at_first_iteration
        assert result.iteration_stats == []
        # pre-touched counters still appear in the snapshot at zero
        assert sink.metric_value("attack.sat.iterations") == 0
        assert sink.metric_value("attack.sat.oracle_queries") == 0
        (attack,) = sink.spans_named("attack.sat")
        assert attack.attrs["unsat_at_first"] is True


def _glitchy_sim():
    """Transport-mode buffer passing a 0.5 ns pulse => a glitch at y."""
    lib = CellLibrary("evt")
    lib.add(Cell("BUF_E", "BUF", ("A",), "Y", area=1.0, delay=2.0))
    b = Builder("t", library=lib)
    a = b.input("a")
    y = b.buf(a)
    b.circuit.add_output(y)
    sim = EventSimulator(b.circuit, delay_mode="transport")
    sim.drive(a, [(1.0, 1), (1.5, 0)], initial=0)
    return sim


class TestSimInstrumentation:
    def test_counters_accumulate_with_obs_disabled(self):
        sim = _glitchy_sim()
        sim.run(10.0)
        assert sim.events_processed > 0
        assert sim.peak_queue_depth >= 1
        # two output transitions 0.5 ns apart < 1.0 ns threshold
        assert sim.glitches_observed >= 1

    def test_glitch_threshold_is_configurable(self):
        lib = CellLibrary("evt")
        lib.add(Cell("BUF_E", "BUF", ("A",), "Y", area=1.0, delay=2.0))
        b = Builder("t", library=lib)
        a = b.input("a")
        b.circuit.add_output(b.buf(a))
        sim = EventSimulator(
            b.circuit, delay_mode="transport", glitch_threshold=0.25
        )
        sim.drive(a, [(1.0, 1), (1.5, 0)], initial=0)
        sim.run(10.0)
        assert sim.glitches_observed == 0  # 0.5 ns gap > 0.25 ns threshold

    def test_run_emits_span_and_metrics(self):
        sim = _glitchy_sim()
        with obs.capture() as sink:
            sim.run(10.0)
        (span,) = sink.spans_named("sim.run")
        assert span.attrs["mode"] == "transport"
        assert span.attrs["events"] == sim.events_processed
        assert span.attrs["glitches"] == sim.glitches_observed
        assert sink.metric_value("sim.events") == sim.events_processed
        assert sink.metric_value("sim.glitches") >= 1
        assert sink.metric_value("sim.peak_queue_depth") >= 1


class TestFlowInstrumentation:
    def test_gk_lock_span_tree_and_counters(self):
        with obs.capture() as sink:
            locked = GkLock(ClockSpec(period=3.0), run_pnr=True).lock(
                unit_gk_host(), 2, random.Random(5)
            )
        (root,) = sink.spans_named("flow.gk_lock")
        children = [c.name for c in root.children]
        for stage in (
            "flow.pnr",
            "flow.sta.baseline",
            "flow.plan",
            "flow.insert",
            "flow.resynth",
            "flow.sta.post",
        ):
            assert stage in children, f"missing stage span {stage}"
        inserted = len(locked.metadata["gks"])
        assert sink.metric_value("flow.gk.inserted") == inserted
        assert sink.spans_named("flow.insert")[0].attrs["inserted"] == inserted
        # triage counters are always published, even at zero
        snap = sink.last_snapshot
        for name in (
            "flow.gk.false_violations",
            "flow.gk.true_violations",
            "flow.gk.drift_waived",
            "flow.gk.broken_windows",
        ):
            assert name in snap


class TestProfileInstrumentation:
    def test_attack_stage_children_cover_its_set_up(self):
        """``repro profile``'s ``attack`` stage spans its key exposure
        and oracle build beside the attack, so no set-up cost hides in
        the stage's self time."""
        from repro.bench import iwls_benchmark
        from repro.obs import run_profile

        report = run_profile(iwls_benchmark("s1238").circuit, key_bits=2,
                             sim_cycles=1)
        (root,) = report.roots
        (attack,) = [c for c in root.children if c.name == "attack"]
        assert [c.name for c in attack.children] == [
            "attack.expose_keys", "attack.oracle", "attack.sat"]
        assert sum(c.duration for c in attack.children) <= attack.duration
