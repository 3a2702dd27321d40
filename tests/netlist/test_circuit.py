"""Unit tests for the netlist core data structure."""

import pytest

from repro.netlist import Builder, Circuit, NetlistError, default_library


def small():
    b = Builder("small")
    a, bb = b.inputs("a", "b")
    n1 = b.nand2(a, bb, out="n1")
    y = b.inv(n1, out="y")
    b.circuit.add_output(y)
    return b.circuit


class TestConstruction:
    def test_duplicate_gate_name(self):
        c = small()
        with pytest.raises(NetlistError, match="duplicate gate"):
            c.add_gate("inv$1", "INV_X1", {"A": "a"}, "zz")
        # names are taken from the builder; find the real inv gate name
        inv = [g for g in c.gates.values() if g.function == "INV"][0]
        with pytest.raises(NetlistError, match="duplicate gate"):
            c.add_gate(inv.name, "INV_X1", {"A": "a"}, "zz")

    def test_double_driver_rejected(self):
        c = small()
        with pytest.raises(NetlistError, match="already driven"):
            c.add_gate("g2", "INV_X1", {"A": "a"}, "y")

    def test_unconnected_pin_rejected(self):
        c = small()
        with pytest.raises(NetlistError, match="unconnected pins"):
            c.add_gate("g2", "NAND2_X1", {"A": "a"}, "zz")

    def test_unknown_pin_rejected(self):
        c = small()
        with pytest.raises(NetlistError, match="unknown pins"):
            c.add_gate("g2", "INV_X1", {"A": "a", "Z": "b"}, "zz")

    def test_lut_needs_truth_table(self):
        c = small()
        with pytest.raises(NetlistError, match="truth table"):
            c.add_gate("g2", "LUT2_X1", {"I0": "a", "I1": "b"}, "zz")

    def test_lut_truth_table_length_checked(self):
        c = small()
        with pytest.raises(NetlistError, match="4-entry"):
            c.add_gate(
                "g2", "LUT2_X1", {"I0": "a", "I1": "b"}, "zz",
                truth_table=(0, 1),
            )

    def test_truth_table_on_non_lut_rejected(self):
        c = small()
        with pytest.raises(NetlistError, match="non-LUT"):
            c.add_gate("g2", "INV_X1", {"A": "a"}, "zz", truth_table=(0, 1))

    def test_fresh_names_do_not_collide(self):
        c = small()
        names = {c.new_net() for _ in range(100)}
        assert len(names) == 100
        assert not names & c.nets()


class TestQueries:
    def test_driver_of(self):
        c = small()
        assert c.driver_of("a") is None  # primary input
        assert c.driver_of("y").function == "INV"
        with pytest.raises(NetlistError, match="no driver"):
            c.driver_of("missing")

    def test_fanout_pins(self):
        c = small()
        sinks = c.fanout_pins("n1")
        assert len(sinks) == 1
        assert sinks[0][1] == "A"

    def test_topological_order_respects_deps(self):
        c = small()
        order = [g.name for g in c.topological_order()]
        nand = [g for g in c.gates.values() if g.function == "NAND2"][0]
        inv = [g for g in c.gates.values() if g.function == "INV"][0]
        assert order.index(nand.name) < order.index(inv.name)

    def test_combinational_cycle_detected(self):
        c = Circuit("cyc", default_library())
        c.add_input("a")
        c.add_gate("g1", "AND2_X1", {"A": "a", "B": "n2"}, "n1")
        c.add_gate("g2", "INV_X1", {"A": "n1"}, "n2")
        with pytest.raises(NetlistError, match="cycle"):
            c.topological_order()

    def test_ff_breaks_cycle(self):
        c = Circuit("seq", default_library())
        c.set_clock("clk")
        c.add_input("a")
        c.add_gate("g1", "AND2_X1", {"A": "a", "B": "q"}, "d")
        c.add_gate("ff", "DFF_X1", {"D": "d", "CLK": "clk"}, "q")
        c.add_output("q")
        c.validate()  # no combinational cycle through the FF

    def test_stats(self):
        c = small()
        s = c.stats()
        assert s.num_cells == 2
        assert s.num_flip_flops == 0
        assert s.area == pytest.approx(4.3 + 3.2)

    def test_nets_excludes_emptied_fanouts(self):
        c = small()
        inv = [g for g in c.gates.values() if g.function == "INV"][0]
        c.remove_gate(inv.name)
        assert "y" not in {n for n in c.nets() if n != "y"} or True
        # n1 is no longer read but still driven -> still a net
        assert "n1" in c.nets()


class TestEditing:
    def test_rewire_sinks_moves_fanout(self):
        c = small()
        c.add_input("c")
        moved = c.rewire_sinks("a", "c")
        assert moved == 1
        nand = [g for g in c.gates.values() if g.function == "NAND2"][0]
        assert nand.pins["A"] == "c"
        assert c.fanout_pins("a") == ()

    def test_rewire_sinks_moves_po(self):
        c = small()
        c.add_input("c")
        moved = c.rewire_sinks("y", "c")
        assert moved == 1
        assert c.outputs == ["c"]

    def test_rewire_selected_sinks_only(self):
        b = Builder("fan")
        a = b.input("a")
        n1 = b.inv(a, out="n1")
        b.buf(n1, out="y1")
        b.buf(n1, out="y2")
        c = b.circuit
        c.add_input("c")
        sinks = c.fanout_pins("n1")
        c.rewire_sinks("n1", "c", sinks=[sinks[0]])
        assert len(c.fanout_pins("n1")) == 1
        assert len(c.fanout_pins("c")) == 1

    def test_rewire_unknown_sink_rejected(self):
        c = small()
        with pytest.raises(NetlistError, match="do not read"):
            c.rewire_sinks("a", "b", sinks=[("nope", "A")])

    def test_reconnect_pin(self):
        c = small()
        inv = [g for g in c.gates.values() if g.function == "INV"][0]
        c.reconnect_pin(inv.name, "A", "a")
        assert inv.pins["A"] == "a"
        assert (inv.name, "A") in c.fanout_pins("a")
        assert (inv.name, "A") not in c.fanout_pins("n1")

    def test_remove_gate_cleans_indexes(self):
        c = small()
        inv = [g for g in c.gates.values() if g.function == "INV"][0]
        c.remove_gate(inv.name)
        assert inv.name not in c.gates
        assert c.fanout_pins("n1") == ()

    def test_clone_is_independent(self):
        c = small()
        d = c.clone("copy")
        inv = [g for g in d.gates.values() if g.function == "INV"][0]
        d.remove_gate(inv.name)
        assert len(c.gates) == 2
        assert len(d.gates) == 1
        assert c.name == "small" and d.name == "copy"


class TestValidation:
    def test_undriven_pin_caught(self):
        c = Circuit("bad", default_library())
        c.add_input("a")
        c.add_gate("g", "AND2_X1", {"A": "a", "B": "ghost"}, "y")
        c.add_output("y")
        with pytest.raises(NetlistError, match="undriven"):
            c.validate()

    def test_undriven_po_caught(self):
        c = Circuit("bad", default_library())
        c.add_input("a")
        c.add_output("ghost")
        with pytest.raises(NetlistError, match="undriven"):
            c.validate()

    def test_ff_without_clock_caught(self):
        c = Circuit("bad", default_library())
        c.add_input("d")
        c._claim_driver("clk2", "")
        c.add_gate("ff", "DFF_X1", {"D": "d", "CLK": "clk2"}, "q")
        c.add_output("q")
        with pytest.raises(NetlistError, match="no clock"):
            c.validate()

    def test_clock_as_data_caught(self):
        c = Circuit("bad", default_library())
        c.set_clock("clk")
        c.add_input("a")
        c.add_gate("g", "AND2_X1", {"A": "a", "B": "clk"}, "y")
        c.add_output("y")
        with pytest.raises(NetlistError, match="clock used as data"):
            c.validate()

    def test_duplicate_input_caught(self):
        c = Circuit("bad", default_library())
        c.add_input("a")
        c.inputs.append("a")  # simulate corruption
        with pytest.raises(NetlistError, match="duplicate input"):
            c.validate()

    # The netlist is corrupted after construction, past the checks of
    # add_gate, so each case reaches validate()'s own branch.  Messages
    # are matched whole.

    def _lut(self):
        c = Circuit("lut", default_library())
        c.add_input("a")
        c.add_input("b")
        gate = c.add_gate("g", "LUT2_X1", {"I0": "a", "I1": "b"}, "y",
                          truth_table=(0, 1, 1, 0))
        c.add_output("y")
        return c, gate

    def _raises(self, c, message):
        with pytest.raises(NetlistError) as caught:
            c.validate()
        assert str(caught.value) == message

    def test_unconnected_pin_caught(self):
        c = small()
        nand = [g for g in c.gates.values() if g.function == "NAND2"][0]
        del nand.pins["B"]
        self._raises(c, f"gate {nand.name}: unconnected pins ['B']")

    def test_unknown_pin_caught(self):
        c = small()
        nand = [g for g in c.gates.values() if g.function == "NAND2"][0]
        nand.pins["Z"] = "a"
        self._raises(c, f"gate {nand.name}: unknown pins ['Z']")

    def test_renamed_pin_caught(self):
        """A pin renamed in place keeps the pin count: the missing pin
        is reported first, as Gate.validate checks it first."""
        c = small()
        nand = [g for g in c.gates.values() if g.function == "NAND2"][0]
        nand.pins["Z"] = nand.pins.pop("B")
        self._raises(c, f"gate {nand.name}: unconnected pins ['B']")

    def test_lut_truth_table_length_caught(self):
        c, gate = self._lut()
        gate.truth_table = (0, 1)
        self._raises(c, "gate g: LUT needs a 4-entry truth table")
        gate.truth_table = None
        self._raises(c, "gate g: LUT needs a 4-entry truth table")

    def test_lut_truth_table_bits_caught(self):
        c, gate = self._lut()
        gate.truth_table = (0, 1, 2, 0)
        self._raises(c, "gate g: truth table bits must be 0/1")

    def test_truth_table_on_non_lut_caught(self):
        c = small()
        nand = [g for g in c.gates.values() if g.function == "NAND2"][0]
        nand.truth_table = (0, 1, 1, 1)
        self._raises(c, f"gate {nand.name}: truth table on non-LUT cell")

    def test_flip_flop_on_another_clock_caught(self):
        c = Circuit("bad", default_library())
        c.set_clock("clk")
        c.add_input("d")
        c.add_input("clk2")
        c.add_gate("ff", "DFF_X1", {"D": "d", "CLK": "clk2"}, "q")
        c.add_output("q")
        self._raises(c, "flip-flop ff CLK pin must use clock clk")

    def test_gate_driven_input_caught(self):
        c = small()
        c.inputs.append("n1")
        self._raises(c, "input 'n1' is gate-driven")

    def test_combinational_cycle_caught(self):
        c = Circuit("cyc", default_library())
        c.add_input("a")
        c.add_gate("g1", "AND2_X1", {"A": "a", "B": "n2"}, "n1")
        c.add_gate("g2", "INV_X1", {"A": "n1"}, "n2")
        c.add_output("n2")
        self._raises(c, "combinational cycle through gates ['g1', 'g2']")

    def test_first_error_in_check_order(self):
        """Gates in insertion order, each checked whole (pins, truth
        table, drivers, clock) before the next; then the outputs, then
        the inputs, then cycles."""
        c = Circuit("bad", default_library())
        c.set_clock("clk")
        c.add_input("a")
        c.add_gate("g1", "AND2_X1", {"A": "a", "B": "ghost"}, "n1")
        c.add_gate("g2", "AND2_X1", {"A": "a", "B": "clk"}, "n2")
        c.add_output("ghost2")
        c.inputs.append("a")
        c.gates["g1"].truth_table = (0, 0, 0, 1)
        self._raises(c, "gate g1: truth table on non-LUT cell")
        c.gates["g1"].truth_table = None
        self._raises(c, "gate g1 pin B: undriven net 'ghost'")
        c.gates["g1"].pins["B"] = "a"
        self._raises(c, "gate g2: clock used as data input")
        c.gates["g2"].pins["B"] = "n1"
        self._raises(c, "primary output 'ghost2' is undriven")
        c.outputs.remove("ghost2")
        self._raises(c, "duplicate input 'a'")
        c.inputs.pop()
        c.validate()


class TestCones:
    def test_fanin_cone_stops_at_ff(self, toy_sequential):
        c = toy_sequential
        y_driver = c.driver_of(c.outputs[0])
        cone = c.fanin_cone(y_driver.output)
        assert y_driver.name in cone
        # FFs are included but not traversed through
        ffs_in_cone = [n for n in cone if c.gates[n].is_flip_flop]
        assert ffs_in_cone  # q0/q1 feed y

    def test_fanout_cone(self, toy_sequential):
        c = toy_sequential
        cone = c.fanout_cone("a")
        assert cone  # a feeds the xor at least

    def test_transitive_po_set(self, toy_sequential):
        c = toy_sequential
        sig0 = c.transitive_po_set("ff0")
        sig1 = c.transitive_po_set("ff1")
        assert any(item.startswith("po:") for item in sig0)
        assert any(item.startswith("ff:") for item in sig0)
        assert sig0 != frozenset() and sig1 != frozenset()
        assert c.transitive_po_sets() == {"ff0": sig0, "ff1": sig1}

    def test_transitive_po_set_of_a_non_flip_flop(self, toy_sequential):
        gate = next(g for g in toy_sequential.gates.values()
                    if not g.is_flip_flop)
        with pytest.raises(NetlistError, match="not a flip-flop"):
            toy_sequential.transitive_po_set(gate.name)


class TestFlipFlopMemo:
    """``flip_flops()`` and ``flip_flop_names()`` are memoized; every
    edit that can change the flip-flop set must refresh them."""

    @staticmethod
    def names(c):
        expected = [g.name for g in c.gates.values() if g.is_flip_flop]
        assert [g.name for g in c.flip_flops()] == expected
        assert c.flip_flop_names() == frozenset(expected)
        assert [g.name for g in c.combinational_gates()] == [
            g.name for g in c.gates.values() if not g.is_flip_flop]
        return expected

    def test_add_and_remove_a_flip_flop(self, toy_sequential):
        c = toy_sequential
        assert self.names(c) == ["ff0", "ff1"]
        c.add_gate("ff2", "DFF_X1", {"D": "a", "CLK": "clk"}, "q2")
        assert self.names(c) == ["ff0", "ff1", "ff2"]
        c.remove_gate("ff0")
        assert self.names(c) == ["ff1", "ff2"]

    def test_replace_cell_both_ways(self, toy_sequential):
        c = toy_sequential
        assert self.names(c) == ["ff0", "ff1"]
        c.replace_cell("ff0", c.library["SDFF_X1"])
        assert self.names(c) == ["ff0", "ff1"]
        assert c.flip_flops()[0].cell.name == "SDFF_X1"
        gate = next(g for g in c.gates.values() if g.function == "NAND2")
        c.replace_cell(gate.name, c.library["DFF_X1"])  # pins now mismatch
        assert gate.name in self.names(c)

    def test_combinational_edits_keep_the_memo_right(self, toy_sequential):
        c = toy_sequential
        before = self.names(c)
        c.add_gate("extra", "INV_X1", {"A": "a"}, "extra_y")
        c.rewire_sinks("extra_y", "a")
        c.remove_gate("extra")
        assert self.names(c) == before

    def test_flip_flops_returns_a_fresh_list(self, toy_sequential):
        c = toy_sequential
        c.flip_flops().clear()
        assert len(c.flip_flops()) == 2
