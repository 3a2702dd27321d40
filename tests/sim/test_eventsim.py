"""Tests for the event-driven timing simulator."""

import pytest

from repro.netlist import Builder, NetlistError
from repro.netlist.cells import Cell, CellLibrary
from repro.sim import EventSimulator


def delay_library():
    """Tiny library with easy round delays."""
    lib = CellLibrary("evt")
    lib.add(Cell("INV_E", "INV", ("A",), "Y", area=1.0, delay=1.0))
    lib.add(Cell("BUF_E", "BUF", ("A",), "Y", area=1.0, delay=2.0))
    lib.add(Cell("AND_E", "AND2", ("A", "B"), "Y", area=1.0, delay=1.0))
    lib.add(
        Cell("DFF_E", "DFF", ("D", "CLK"), "Q", area=1.0, delay=0.5,
             setup=1.0, hold=0.5)
    )
    return lib


class TestPropagation:
    def test_single_gate_delay(self):
        b = Builder("t", library=delay_library())
        a = b.input("a")
        y = b.inv(a)
        b.circuit.add_output(y)
        sim = EventSimulator(b.circuit)
        sim.drive(a, [(5.0, 1)], initial=0)
        result = sim.run(10.0)
        assert result.waveforms[y].changes == [(6.0, 0)]
        assert result.waveforms[y].value_at(5.5) == 1

    def test_chained_delays_accumulate(self):
        b = Builder("t", library=delay_library())
        a = b.input("a")
        y = b.buf(b.inv(a))  # 1 + 2 ns
        b.circuit.add_output(y)
        sim = EventSimulator(b.circuit)
        sim.drive(a, [(1.0, 1)], initial=0)
        result = sim.run(10.0)
        assert result.waveforms[y].changes == [(4.0, 0)]

    def test_transport_mode_propagates_narrow_pulse(self):
        b = Builder("t", library=delay_library())
        a = b.input("a")
        y = b.buf(a)  # delay 2, pulse width 0.5 < delay
        b.circuit.add_output(y)
        sim = EventSimulator(b.circuit, delay_mode="transport")
        sim.drive(a, [(1.0, 1), (1.5, 0)], initial=0)
        result = sim.run(10.0)
        pulses = result.waveforms[y].pulses(1, 0.0, 10.0)
        assert len(pulses) == 1
        assert pulses[0].start == pytest.approx(3.0)
        assert pulses[0].length == pytest.approx(0.5)

    def test_inertial_mode_swallows_narrow_pulse(self):
        b = Builder("t", library=delay_library())
        a = b.input("a")
        y = b.buf(a)
        b.circuit.add_output(y)
        sim = EventSimulator(b.circuit, delay_mode="inertial")
        sim.drive(a, [(1.0, 1), (1.5, 0)], initial=0)
        result = sim.run(10.0)
        assert result.waveforms[y].pulses(1, 0.0, 10.0) == []

    def test_inertial_mode_passes_wide_pulse(self):
        b = Builder("t", library=delay_library())
        a = b.input("a")
        y = b.buf(a)
        b.circuit.add_output(y)
        sim = EventSimulator(b.circuit, delay_mode="inertial")
        sim.drive(a, [(1.0, 1), (5.0, 0)], initial=0)
        result = sim.run(10.0)
        assert len(result.waveforms[y].pulses(1, 0.0, 10.0)) == 1

    def test_unknown_mode_rejected(self, toy_combinational):
        with pytest.raises(ValueError, match="delay mode"):
            EventSimulator(toy_combinational, delay_mode="magic")

    def test_initial_settle(self):
        b = Builder("t", library=delay_library())
        a, bb = b.inputs("a", "b")
        y = b.and2(a, bb)
        b.circuit.add_output(y)
        sim = EventSimulator(b.circuit)
        sim.set_initial(a, 1)
        sim.set_initial(bb, 1)
        result = sim.run(1.0)
        assert result.waveforms[y].value_at(0.0) == 1

    def test_initial_settle_of_constants(self):
        """The settle pass is one lane wide: TIE cells settle to their
        constant, known, and an unset input stays X."""
        b = Builder("ties")
        a = b.input("a")
        one, zero = b.const1(), b.const0()
        for net in (b.and2(a, one), b.or2(a, zero), b.or2(a, one)):
            b.circuit.add_output(net)
        sim = EventSimulator(b.circuit)
        result = sim.run(1.0)
        assert [result.waveforms[net].value_at(0.0)
                for net in b.circuit.outputs] == [None, None, 1]
        assert result.waveforms[one].value_at(0.0) == 1
        assert result.waveforms[zero].value_at(0.0) == 0


class TestFlipFlops:
    def build_ff(self):
        b = Builder("ff", library=delay_library())
        b.clock("clk")
        d = b.input("d")
        q = b.dff(d, name="ff")
        b.circuit.add_output(q)
        return b.circuit

    def test_sampling_on_rising_edge(self):
        c = self.build_ff()
        sim = EventSimulator(c)
        sim.initialize_ffs(0)
        sim.drive("d", [(2.0, 1)], initial=0)
        sim.add_clock(10.0, 3)
        result = sim.run(30.0)
        values = [(s.time, s.value) for s in result.samples_of("ff")]
        assert values == [(0.0, 0), (10.0, 1), (20.0, 1)]

    def test_clk_to_q_delay(self):
        c = self.build_ff()
        sim = EventSimulator(c)
        sim.initialize_ffs(0)
        sim.drive("d", [(2.0, 1)], initial=0)
        sim.add_clock(10.0, 2)
        result = sim.run(30.0)
        q = c.gates["ff"].output
        assert result.waveforms[q].changes == [(10.5, 1)]

    def test_setup_violation_detected(self):
        c = self.build_ff()
        sim = EventSimulator(c)
        sim.initialize_ffs(0)
        sim.drive("d", [(9.5, 1)], initial=0)  # setup = 1.0: too late
        sim.add_clock(10.0, 2)
        result = sim.run(25.0)
        violations = result.violations_of("ff")
        assert violations and violations[0].kind == "setup"
        sample = [s for s in result.samples_of("ff") if s.time == 10.0][0]
        assert sample.value is None and sample.violated

    def test_hold_violation_detected(self):
        c = self.build_ff()
        sim = EventSimulator(c)
        sim.initialize_ffs(0)
        sim.drive("d", [(10.2, 1)], initial=0)  # hold = 0.5: too early
        sim.add_clock(10.0, 2)
        result = sim.run(25.0)
        violations = result.violations_of("ff")
        assert violations and violations[0].kind == "hold"

    def test_clean_capture_outside_windows(self):
        c = self.build_ff()
        sim = EventSimulator(c)
        sim.initialize_ffs(0)
        sim.drive("d", [(5.0, 1)], initial=0)
        sim.add_clock(10.0, 3)
        result = sim.run(30.0)
        assert not result.violations

    def test_clock_skew_shifts_sampling(self):
        c = self.build_ff()
        sim = EventSimulator(c)
        sim.initialize_ffs(0)
        sim.set_clock_skew("ff", 3.0)
        sim.drive("d", [(11.5, 1)], initial=0)  # after edge, before skewed edge
        sim.add_clock(10.0, 2)
        result = sim.run(25.0)
        sample = [s for s in result.samples_of("ff") if s.time == 13.0]
        assert sample and sample[0].value == 1 and not sample[0].violated

    def test_unknown_skew_target_rejected(self):
        c = self.build_ff()
        sim = EventSimulator(c)
        with pytest.raises(NetlistError, match="unknown flip-flop"):
            sim.set_clock_skew("nope", 1.0)


class TestStimulusErrors:
    def test_unknown_net_rejected(self, toy_combinational):
        sim = EventSimulator(toy_combinational)
        with pytest.raises(NetlistError, match="unknown net"):
            sim.set_initial("ghost", 1)

    def test_clockless_circuit_rejects_add_clock(self, toy_combinational):
        sim = EventSimulator(toy_combinational)
        with pytest.raises(NetlistError, match="no clock"):
            sim.add_clock(5.0, 2)
