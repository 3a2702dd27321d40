"""Tests for the placement and routing substrate."""

import os
import subprocess
import sys

import pytest

from repro.pnr import Layout, place, route
from repro.sta import ClockSpec, analyze


class TestPlacement:
    def test_all_gates_placed(self, s1238):
        layout = place(s1238.circuit)
        assert set(layout.positions) == set(s1238.circuit.gates)

    def test_positions_within_die(self, s1238):
        layout = place(s1238.circuit)
        for x, y in layout.positions.values():
            assert 0 <= x <= layout.width + 1e-6
            assert 0 <= y <= layout.height * 1.5  # row spill tolerance

    def test_utilization_reasonable(self, s1238):
        layout = place(s1238.circuit)
        assert 0.4 < layout.utilization < 1.0

    def test_deterministic(self, s1238):
        a = place(s1238.circuit)
        b = place(s1238.circuit)
        assert a.positions == b.positions

    def test_same_layout_under_any_hash_seed(self):
        """Set iteration order follows the process's string-hash seed;
        the layout must not (seen: s5378 GK plans under P&R moved with
        ``PYTHONHASHSEED``)."""
        script = (
            "from repro.bench import iwls_benchmark\n"
            "from repro.pnr import place\n"
            "layout = place(iwls_benchmark('s1238').circuit)\n"
            "print(sorted(layout.positions.items()))\n"
        )
        src = os.path.join(os.path.dirname(__file__), os.pardir, os.pardir,
                           "src")
        layouts = set()
        for seed in ("0", "1", "2"):
            env = dict(os.environ, PYTHONHASHSEED=seed,
                       PYTHONPATH=os.path.abspath(src))
            layouts.add(subprocess.run(
                [sys.executable, "-c", script], env=env, check=True,
                capture_output=True, text=True).stdout)
        assert len(layouts) == 1

    def test_no_same_row_overlap(self, toy_sequential):
        layout = place(toy_sequential)
        rows = {}
        for name, (x, y) in layout.positions.items():
            width = toy_sequential.gates[name].cell.area / layout.row_height
            rows.setdefault(round(y, 3), []).append((x - width / 2, x + width / 2))
        for intervals in rows.values():
            intervals.sort()
            for (s1, e1), (s2, _e2) in zip(intervals, intervals[1:]):
                assert e1 <= s2 + 1e-6

    def test_refinement_reduces_wirelength(self, s1238):
        rough = route(place(s1238.circuit, refinement_passes=0))
        refined = route(place(s1238.circuit, refinement_passes=3))
        assert refined.total_hpwl < rough.total_hpwl

    def test_empty_circuit(self):
        from repro.netlist import Circuit

        layout = place(Circuit("empty"))
        assert layout.die_area == 0.0


class TestRouting:
    def test_wire_delays_positive(self, s1238):
        estimate = route(place(s1238.circuit))
        assert estimate.wire_delay
        assert all(d > 0 for d in estimate.wire_delay.values())

    def test_clock_net_not_routed(self, s1238):
        estimate = route(place(s1238.circuit))
        assert s1238.circuit.clock not in estimate.wire_delay

    def test_delay_of_default_zero(self, s1238):
        estimate = route(place(s1238.circuit))
        assert estimate.delay_of("no_such_net") == 0.0

    def test_sta_accepts_annotation(self, s1238):
        estimate = route(place(s1238.circuit))
        bare = analyze(s1238.circuit, s1238.clock)
        annotated = analyze(
            s1238.circuit, s1238.clock, wire_delay=estimate.wire_delay
        )
        # wire delays can only push arrivals later
        assert annotated.worst_setup_slack() <= bare.worst_setup_slack()

    def test_net_hpwl_zero_for_single_pin(self, toy_sequential):
        layout = place(toy_sequential)
        # a PO net with one driver and no sinks has no extent
        assert layout.net_hpwl(toy_sequential.outputs[0]) >= 0.0
