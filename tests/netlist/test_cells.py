"""Unit tests for the cell library model."""

import pytest

from repro.netlist.cells import Cell, CellLibrary, default_library


class TestCell:
    def test_combinational_cell(self):
        cell = Cell("AND2_T", "AND2", ("A", "B"), "Y", area=5.0, delay=0.1)
        assert not cell.is_sequential
        assert cell.num_inputs == 2

    def test_sequential_cell(self):
        cell = Cell(
            "DFF_T", "DFF", ("D", "CLK"), "Q", area=16.0, delay=0.15,
            setup=0.12, hold=0.05,
        )
        assert cell.is_sequential
        assert cell.setup == 0.12

    def test_unknown_function_rejected(self):
        with pytest.raises(ValueError, match="unknown cell function"):
            Cell("BAD", "AND3", ("A", "B", "C"), "Y", area=1.0, delay=0.1)

    def test_negative_area_rejected(self):
        with pytest.raises(ValueError, match="negative"):
            Cell("BAD", "BUF", ("A",), "Y", area=-1.0, delay=0.1)

    def test_negative_delay_rejected(self):
        with pytest.raises(ValueError, match="negative"):
            Cell("BAD", "BUF", ("A",), "Y", area=1.0, delay=-0.1)


class TestCellLibrary:
    def test_lookup(self):
        lib = default_library()
        assert "INV_X1" in lib
        assert lib["INV_X1"].function == "INV"

    def test_missing_cell_raises(self):
        lib = default_library()
        with pytest.raises(KeyError, match="NOPE"):
            lib["NOPE"]

    def test_duplicate_rejected(self):
        lib = CellLibrary("t")
        cell = Cell("BUF_T", "BUF", ("A",), "Y", area=1.0, delay=0.1)
        lib.add(cell)
        with pytest.raises(ValueError, match="duplicate"):
            lib.add(cell)

    def test_cheapest_picks_smallest_area(self):
        lib = default_library()
        assert lib.cheapest("INV").name == "INV_X1"
        assert lib.cheapest("BUF").name == "BUF_X1"

    def test_cheapest_unknown_function(self):
        lib = default_library()
        with pytest.raises(KeyError, match="no cell with function"):
            lib.cheapest("AND9")

    def test_cells_for_sorted_by_area(self):
        lib = default_library()
        buffers = lib.cells_for("BUF")
        areas = [c.area for c in buffers]
        assert areas == sorted(areas)

    def test_add_clears_the_cells_for_memo(self):
        lib = default_library()
        assert lib.cells_for("BUF") is lib.cells_for("BUF")  # memoized
        assert lib.cheapest("BUF").name == "BUF_X1"
        tiny = Cell("BUF_T", "BUF", ("A",), "Y", area=0.5, delay=0.3)
        lib.add(tiny)
        assert lib.cells_for("BUF")[0] is tiny
        assert lib.cheapest("BUF") is tiny
        assert lib.cells_for("LUT") == lib.cells_for("LUT")

    def test_delay_elements_sorted_by_delay_descending(self):
        lib = default_library()
        elems = lib.delay_elements()
        delays = [c.delay for c in elems]
        assert delays == sorted(delays, reverse=True)
        assert all(c.function in ("BUF", "INV") for c in elems)

    def test_iteration_and_len(self):
        lib = default_library()
        assert len(lib) == len(list(lib))


class TestDefaultLibrary:
    def test_has_all_needed_functions(self):
        lib = default_library()
        for function in (
            "BUF", "INV", "AND2", "NAND2", "OR2", "NOR2", "XOR2", "XNOR2",
            "MUX2", "MUX4", "TIE0", "TIE1", "DFF", "SDFF", "LUT",
        ):
            assert lib.cheapest(function) is not None

    def test_dff_has_setup_and_hold(self):
        dff = default_library().cheapest("DFF")
        assert dff.setup > 0 and dff.hold > 0
        assert dff.delay > 0  # clk->q

    def test_inverter_is_smallest(self):
        lib = default_library()
        inv_area = lib.cheapest("INV").area
        assert all(c.area >= inv_area for c in lib if c.function != "TIE0"
                   and c.function != "TIE1")

    def test_mux4_selects_declared_last(self):
        mux4 = default_library().cheapest("MUX4")
        assert mux4.inputs == ("A", "B", "C", "D", "S0", "S1")
