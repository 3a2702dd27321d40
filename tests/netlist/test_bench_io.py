"""Tests for the ISCAS .bench reader/writer."""

import io
import itertools

import pytest

from repro.netlist import NetlistError, parse_bench, write_bench
from repro.sim import CycleSimulator, evaluate_combinational

SMALL = """
# c17-style toy
INPUT(a)
INPUT(b)
INPUT(c)
OUTPUT(y)
n1 = NAND(a, b)
n2 = NOR(b, c)
y = XOR(n1, n2)
"""


class TestParse:
    def test_basic_parse(self):
        c = parse_bench(SMALL, "toy")
        assert c.inputs == ["a", "b", "c"]
        assert c.outputs == ["y"]
        assert c.stats().num_cells == 3

    def test_function_semantics(self):
        c = parse_bench(SMALL, "toy")
        for va, vb, vc in itertools.product((0, 1), repeat=3):
            values = evaluate_combinational(c, {"a": va, "b": vb, "c": vc})
            n1 = 1 - (va & vb)
            n2 = 1 - (vb | vc)
            assert values["y"] == n1 ^ n2

    def test_dff_creates_clock(self):
        c = parse_bench("INPUT(a)\nOUTPUT(q)\nq = DFF(a)\n")
        assert c.clock == "clock"
        assert len(c.flip_flops()) == 1

    def test_no_dff_no_clock(self):
        c = parse_bench(SMALL)
        assert c.clock is None

    def test_wide_gate_decomposition(self):
        text = """
INPUT(a)
INPUT(b)
INPUT(c)
INPUT(d)
OUTPUT(y)
y = NAND(a, b, c, d)
"""
        c = parse_bench(text)
        assert all(g.cell.num_inputs <= 2 for g in c.gates.values())
        for bits in itertools.product((0, 1), repeat=4):
            pattern = dict(zip("abcd", bits))
            values = evaluate_combinational(c, pattern)
            expected = 1 - (bits[0] & bits[1] & bits[2] & bits[3])
            assert values["y"] == expected, bits

    def test_wide_xor_decomposition(self):
        text = "INPUT(a)\nINPUT(b)\nINPUT(c)\nOUTPUT(y)\ny = XNOR(a, b, c)\n"
        c = parse_bench(text)
        for bits in itertools.product((0, 1), repeat=3):
            values = evaluate_combinational(c, dict(zip("abc", bits)))
            assert values["y"] == 1 - (bits[0] ^ bits[1] ^ bits[2])

    def test_key_inputs_classified(self):
        text = "INPUT(a)\nINPUT(keyinput0)\nOUTPUT(y)\ny = XOR(a, keyinput0)\n"
        c = parse_bench(text)
        assert c.inputs == ["a"]
        assert c.key_inputs == ["keyinput0"]

    def test_comments_and_blanks_ignored(self):
        c = parse_bench("# header\n\n" + SMALL + "\n# trailer\n")
        assert c.stats().num_cells == 3

    def test_bad_line_rejected(self):
        with pytest.raises(NetlistError, match="cannot parse"):
            parse_bench("INPUT(a)\nwhat is this\n")

    @pytest.mark.parametrize(
        "line", ["y = NOT(a, a)", "y = DFF()", "y = MUX(a, b)"]
    )
    def test_wrong_operand_count_rejected(self, line):
        with pytest.raises(NetlistError, match="operand"):
            parse_bench(f"INPUT(a)\nINPUT(b)\nOUTPUT(y)\n{line}\n")

    def test_unsupported_function_rejected(self):
        with pytest.raises(NetlistError, match="unsupported"):
            parse_bench("INPUT(a)\nOUTPUT(y)\ny = MAJ(a, a, a)\n")

    def test_buff_and_not(self):
        c = parse_bench("INPUT(a)\nOUTPUT(y)\nOUTPUT(z)\ny = BUFF(a)\nz = NOT(a)\n")
        values = evaluate_combinational(c, {"a": 1})
        assert values["y"] == 1 and values["z"] == 0


class TestRoundTrip:
    def test_combinational_roundtrip(self):
        c = parse_bench(SMALL, "toy")
        buf = io.StringIO()
        write_bench(c, buf)
        c2 = parse_bench(buf.getvalue(), "again")
        for bits in itertools.product((0, 1), repeat=3):
            pattern = dict(zip("abc", bits))
            va = evaluate_combinational(c, pattern)
            vb = evaluate_combinational(c2, pattern)
            assert va["y"] == vb["y"]

    def test_sequential_roundtrip(self, toy_sequential):
        buf = io.StringIO()
        write_bench(toy_sequential, buf)
        c2 = parse_bench(buf.getvalue(), "again")
        seq = [{"a": k % 2, "b": (k // 2) % 2} for k in range(8)]
        sim_a = CycleSimulator(toy_sequential)
        sim_b = CycleSimulator(c2)
        for step in seq:
            out_a = sim_a.step(step)
            out_b = sim_b.step(step)
            assert [out_a[o] for o in toy_sequential.outputs] == [
                out_b[o] for o in c2.outputs
            ]

    def test_key_inputs_roundtrip(self):
        text = "INPUT(a)\nINPUT(keyinput0)\nOUTPUT(y)\ny = XOR(a, keyinput0)\n"
        c = parse_bench(text)
        buf = io.StringIO()
        write_bench(c, buf)
        c2 = parse_bench(buf.getvalue())
        assert c2.key_inputs == ["keyinput0"]
