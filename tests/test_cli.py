"""Tests for the command-line interface."""

import json

import pytest

from repro.cli import main
from repro.netlist import parse_bench, write_bench


@pytest.fixture()
def bench_file(tmp_path, toy_sequential):
    path = tmp_path / "toy.bench"
    with open(path, "w") as stream:
        write_bench(toy_sequential, stream)
    return str(path)


class TestInfo:
    def test_info_on_file(self, bench_file, capsys):
        assert main(["info", bench_file]) == 0
        out = capsys.readouterr().out
        assert "cells" in out and "FFs" in out
        assert "clock" in out

    def test_info_on_iwls(self, capsys):
        assert main(["info", "iwls:s1238", "--paths", "2"]) == 0
        out = capsys.readouterr().out
        assert "341" in out

    def test_explicit_period(self, bench_file, capsys):
        assert main(["info", bench_file, "--period", "5.0"]) == 0
        assert "5.0 ns" in capsys.readouterr().out


class TestLockAndAttack:
    def test_xor_lock_roundtrip(self, bench_file, tmp_path, capsys):
        locked_path = str(tmp_path / "locked.bench")
        key_path = str(tmp_path / "key.json")
        assert main([
            "lock", bench_file, "--scheme", "xor", "--key-bits", "2",
            "-o", locked_path, "--key-file", key_path,
        ]) == 0
        with open(locked_path) as stream:
            locked = parse_bench(stream.read())
        assert len(locked.key_inputs) == 2
        with open(key_path) as stream:
            key = json.load(stream)
        assert set(key) == set(locked.key_inputs)

    def test_attack_cracks_xor_file(self, bench_file, tmp_path, capsys):
        locked_path = str(tmp_path / "locked.bench")
        main(["lock", bench_file, "--scheme", "xor", "--key-bits", "2",
              "-o", locked_path])
        code = main(["attack", locked_path, bench_file])
        out = capsys.readouterr().out
        assert code == 0
        assert "functional accuracy    : 1.000" in out

    def test_warm_cache_reattack_needs_no_dip(
        self, bench_file, tmp_path, capsys
    ):
        locked_path = str(tmp_path / "locked.bench")
        main(["lock", bench_file, "--scheme", "xor", "--key-bits", "2",
              "-o", locked_path])
        attack = ["attack", locked_path, bench_file,
                  "--warm-cache", str(tmp_path / "cache")]
        assert main(attack) == 0
        assert "DIP iterations         : 0" not in capsys.readouterr().out
        assert main(attack) == 0
        out = capsys.readouterr().out
        assert "DIP iterations         : 0" in out
        assert "warm-start clauses     : 0" not in out

    def test_gk_lock_reports_overhead(self, capsys):
        assert main([
            "lock", "iwls:s1238", "--scheme", "gk", "--key-bits", "4",
        ]) == 0
        out = capsys.readouterr().out
        assert "overhead" in out and "key" in out

    def test_unknown_scheme_rejected(self, bench_file):
        with pytest.raises(SystemExit):
            main(["lock", bench_file, "--scheme", "rot13"])


class TestReports:
    def test_table1_single_bench(self, capsys):
        assert main(["table1", "s1238"]) == 0
        out = capsys.readouterr().out
        assert "s1238" in out and "Cov.(%)" in out

    def test_figures(self, capsys):
        assert main(["figures"]) == 0
        out = capsys.readouterr().out
        assert "Fig. 4" in out and "Fig. 9" in out


class TestReproduceCommand:
    def test_parser_accepts_reproduce(self):
        from repro.cli import build_parser

        args = build_parser().parse_args(["reproduce", "--full", "--seed", "7"])
        assert args.full is True
        assert args.seed == 7
        assert args.func.__name__ == "cmd_reproduce"


class TestObservabilityFlags:
    @pytest.fixture()
    def locked_file(self, bench_file, tmp_path):
        locked_path = str(tmp_path / "locked.bench")
        main(["lock", bench_file, "--scheme", "xor", "--key-bits", "2",
              "-o", locked_path, "--quiet"])
        return locked_path

    def test_quiet_suppresses_progress_keeps_results(
        self, bench_file, capsys
    ):
        assert main([
            "lock", bench_file, "--scheme", "xor", "--key-bits", "2",
            "--quiet",
        ]) == 0
        out = capsys.readouterr().out
        assert "locked with" not in out and "overhead" not in out
        assert '"keyin_' in out  # the key JSON is a result, not progress

    def test_quiet_attack_keeps_verdict(
        self, locked_file, bench_file, capsys
    ):
        assert main(["attack", locked_file, bench_file, "-q"]) == 0
        out = capsys.readouterr().out
        assert "completed              : True" in out
        assert "functional accuracy" in out
        assert "solver decisions" not in out  # info line, silenced

    def test_trace_writes_jsonl(
        self, locked_file, bench_file, tmp_path, capsys
    ):
        trace_path = tmp_path / "trace.jsonl"
        assert main([
            "attack", locked_file, bench_file, "--trace", str(trace_path),
        ]) == 0
        records = [
            json.loads(line) for line in trace_path.read_text().splitlines()
        ]
        kinds = {r["type"] for r in records}
        assert kinds == {"span", "metrics"}
        names = {r["name"] for r in records if r["type"] == "span"}
        assert "attack.sat" in names and "sat.solve" in names

    def test_profile_prints_tree_and_metrics_to_stderr(
        self, locked_file, bench_file, capsys
    ):
        assert main([
            "attack", locked_file, bench_file, "--profile", "--quiet",
        ]) == 0
        captured = capsys.readouterr()
        assert "functional accuracy" in captured.out  # results on stdout
        assert "attack.sat" in captured.err  # span tree on stderr
        assert "sat.solver.decisions" in captured.err  # metrics table

    def test_obs_disabled_after_command(self, locked_file, bench_file):
        from repro import obs

        main(["attack", locked_file, bench_file, "--profile", "--quiet"])
        assert not obs.is_enabled()

    def test_parser_accepts_profile(self):
        from repro.cli import build_parser

        args = build_parser().parse_args(
            ["profile", "iwls:s1238", "--key-bits", "2", "--seed", "3"]
        )
        assert args.func.__name__ == "cmd_profile"
        assert args.key_bits == 2
        assert args.seed == 3
        assert args.max_iterations == 64
        assert args.sim_cycles == 8


class TestVersion:
    def test_version_flag_prints_and_exits_zero(self, capsys):
        from repro import __version__

        with pytest.raises(SystemExit) as excinfo:
            main(["--version"])
        assert excinfo.value.code == 0
        assert __version__ in capsys.readouterr().out

    def test_help_epilog_names_the_version(self, capsys):
        from repro import __version__

        with pytest.raises(SystemExit):
            main(["--help"])
        assert f"repro version {__version__}" in capsys.readouterr().out


class TestServe:
    def test_serve_smoke_registers_and_drains(self, bench_file, capsys):
        assert main(["serve", bench_file, "--port", "0",
                     "--serve-seconds", "0.05"]) == 0
        captured = capsys.readouterr()
        assert "serving 1 circuit(s)" in captured.out
        assert "drained" in captured.err

    def test_serve_refuses_locked_netlist(self, bench_file, tmp_path):
        locked_path = str(tmp_path / "locked.bench")
        main(["lock", bench_file, "--scheme", "xor", "--key-bits", "2",
              "-o", locked_path])
        with pytest.raises(SystemExit, match="locked"):
            main(["serve", locked_path, "--serve-seconds", "0.05"])

    def test_serve_workers_smoke_spawns_and_drains(self, bench_file,
                                                   capsys):
        """`--workers 2` boots the sharded backend: the netlist is
        registered through the supervisor (its owning worker printed)
        and shutdown drains the fleet."""
        assert main(["serve", bench_file, "--workers", "2",
                     "--serve-seconds", "0.05"]) == 0
        captured = capsys.readouterr()
        assert "(worker " in captured.out
        assert "2 workers" in captured.out
        assert "drained" in captured.err
        assert "respawns" in captured.err

    def test_serve_workers_validation(self, bench_file):
        with pytest.raises(SystemExit, match="workers"):
            main(["serve", bench_file, "--workers", "0",
                  "--serve-seconds", "0.05"])

    def test_serve_workers_refuses_locked_netlist(self, bench_file,
                                                  tmp_path):
        """The sharded path applies the same oracle-view policy."""
        locked_path = str(tmp_path / "locked.bench")
        main(["lock", bench_file, "--scheme", "xor", "--key-bits", "2",
              "-o", locked_path])
        with pytest.raises(SystemExit, match="locked"):
            main(["serve", locked_path, "--workers", "2",
                  "--serve-seconds", "0.05"])


class TestAttackRemoteFlags:
    def test_remote_without_oracle_or_circuit_rejected(
            self, bench_file, tmp_path):
        locked_path = str(tmp_path / "locked.bench")
        main(["lock", bench_file, "--scheme", "xor", "--key-bits", "2",
              "-o", locked_path])
        with pytest.raises(SystemExit, match="--remote needs"):
            main(["attack", locked_path, "--remote", "127.0.0.1:1"])

    def test_remote_circuit_id_conflicts_with_netlist(
            self, bench_file, tmp_path):
        locked_path = str(tmp_path / "locked.bench")
        main(["lock", bench_file, "--scheme", "xor", "--key-bits", "2",
              "-o", locked_path])
        with pytest.raises(SystemExit, match="not both"):
            main(["attack", locked_path, bench_file,
                  "--remote", "127.0.0.1:1", "--circuit", "abc"])

    def test_attack_without_any_oracle_rejected(self, bench_file, tmp_path):
        locked_path = str(tmp_path / "locked.bench")
        main(["lock", bench_file, "--scheme", "xor", "--key-bits", "2",
              "-o", locked_path])
        with pytest.raises(SystemExit, match="needs an oracle"):
            main(["attack", locked_path])
