"""Tests for arena scenario parsing, validation, and cell expansion."""

import json

import pytest

from repro.arena import ArenaCell, Expectation, Scenario


def minimal(**overrides):
    data = {"schemes": ["xor"], "attacks": ["removal"]}
    data.update(overrides)
    return data


class TestValidation:
    def test_defaults_fill_in(self):
        scenario = Scenario.from_dict(minimal())
        assert scenario.benchmarks == ("s1238",)
        assert scenario.key_bits == (8,)
        assert scenario.seeds == (2019,)
        assert scenario.name == "arena"

    def test_unknown_scheme_lists_choices(self):
        with pytest.raises(ValueError, match="unknown scheme.*rot13"):
            Scenario.from_dict(minimal(schemes=["rot13"]))

    def test_unknown_attack_lists_choices(self):
        with pytest.raises(ValueError, match="unknown attack"):
            Scenario.from_dict(minimal(attacks=["rubber-hose"]))

    def test_unknown_benchmark_rejected(self):
        with pytest.raises(ValueError, match="unknown benchmark"):
            Scenario.from_dict(minimal(benchmarks=["c17"]))

    def test_unknown_top_level_key_rejected(self):
        with pytest.raises(ValueError, match="unknown scenario keys"):
            Scenario.from_dict(minimal(schemas=["xor"]))

    def test_empty_axis_rejected(self):
        with pytest.raises(ValueError, match="non-empty"):
            Scenario.from_dict({"schemes": [], "attacks": ["sat"]})

    def test_duplicate_axis_entries_rejected(self):
        with pytest.raises(ValueError, match="duplicate schemes"):
            Scenario.from_dict(minimal(schemes=["xor", "xor"]))

    def test_nonpositive_key_bits_rejected(self):
        with pytest.raises(ValueError, match="positive"):
            Scenario.from_dict(minimal(key_bits=[0]))

    def test_params_for_absent_attack_rejected(self):
        with pytest.raises(ValueError, match="attack_params"):
            Scenario.from_dict(
                minimal(attack_params={"sat": {"max_iterations": 4}})
            )

    def test_param_no_runner_reads_rejected(self):
        """A removed or misspelt knob fails the load instead of running
        a silently different (cold) attack."""
        with pytest.raises(ValueError) as excinfo:
            Scenario.from_dict(minimal(
                attacks=["sat"],
                attack_params={"sat": {"portfolio": 4, "warm_strat": True}},
            ))
        message = str(excinfo.value)
        assert "portfolio" in message and "warm_strat" in message
        assert "max_iterations" in message and "warm_start" in message

    def test_expectation_bad_axis_rejected(self):
        with pytest.raises(ValueError, match="'where' keys"):
            Scenario.from_dict(minimal(
                expectations=[{"where": {"planet": "mars"},
                               "expect": {"success": True}}]
            ))

    def test_expectation_needs_expect(self):
        with pytest.raises(ValueError, match="non-empty 'expect'"):
            Scenario.from_dict(minimal(expectations=[{"where": {}}]))


class TestFromFile:
    def test_round_trip(self, tmp_path):
        path = tmp_path / "s.json"
        path.write_text(json.dumps(minimal(name="disk")))
        scenario = Scenario.from_file(str(path))
        assert scenario.name == "disk"
        assert scenario.to_dict()["schemes"] == ["xor"]

    def test_invalid_json_reported_with_path(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{nope")
        with pytest.raises(ValueError, match="not valid JSON"):
            Scenario.from_file(str(path))

    def test_non_object_rejected(self, tmp_path):
        path = tmp_path / "list.json"
        path.write_text("[1, 2]")
        with pytest.raises(ValueError, match="JSON object"):
            Scenario.from_file(str(path))


class TestCells:
    def test_cross_product_is_deterministic(self):
        scenario = Scenario.from_dict(minimal(
            schemes=["xor", "sarlock"], attacks=["removal"],
            key_bits=[2, 4], seeds=[1, 2],
        ))
        first, _ = scenario.cells()
        second, _ = scenario.cells()
        assert first == second
        assert len(first) == 2 * 1 * 2 * 2

    def test_gk_specific_attack_skipped_with_reason(self):
        scenario = Scenario.from_dict(
            minimal(schemes=["xor", "gk"], attacks=["scan"])
        )
        runnable, skipped = scenario.cells()
        assert [cell.scheme for cell in runnable] == ["gk"]
        assert len(skipped) == 1
        cell, reason = skipped[0]
        assert cell.scheme == "xor"
        assert "GK" in reason

    def test_unsupported_key_width_skipped(self):
        scenario = Scenario.from_dict(
            minimal(schemes=["xor", "gk"], attacks=["removal"],
                    key_bits=[3])
        )
        runnable, skipped = scenario.cells()
        assert [cell.scheme for cell in runnable] == ["xor"]
        ((cell, reason),) = skipped
        assert cell.scheme == "gk" and "multiple" in reason

    def test_params_for(self):
        scenario = Scenario.from_dict(minimal(
            attack_params={"removal": {"samples": 50}}
        ))
        assert scenario.params_for("removal") == {"samples": 50}
        assert scenario.params_for("sat") == {}


class TestExpectation:
    def test_matches_filters_on_axes(self):
        expectation = Expectation.from_dict(
            {"where": {"scheme": "xor"}, "expect": {"success": True}}
        )
        hit = ArenaCell("s1238", "xor", "sat", 8, 1)
        miss = ArenaCell("s1238", "gk", "sat", 8, 1)
        assert expectation.matches(hit)
        assert not expectation.matches(miss)

    def test_check_reports_each_mismatch(self):
        expectation = Expectation.from_dict(
            {"expect": {"success": True, "key_correct": True}}
        )
        problems = expectation.check({"success": False, "key_correct": True})
        assert len(problems) == 1
        assert "success" in problems[0]

    def test_empty_where_matches_everything(self):
        expectation = Expectation.from_dict({"expect": {"completed": True}})
        assert expectation.matches(ArenaCell("s1238", "xor", "sat", 8, 1))
