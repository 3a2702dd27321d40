"""Tests for the command-line interface."""

import json
import signal

import pytest

from repro.cli import main
from repro.netlist import parse_bench, write_bench
from repro.serve import RemoteOracle

from tests.serve.conftest import serve_process


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
        # Zero DIPs from a seeded solver is not the GK signature.
        assert "UNSAT at 1st iteration : False" in out

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

    def test_serve_prints_the_id_a_client_registers(self, capsys):
        """The printed ID is the one RemoteOracle's registration of the
        same netlist gets, so the two share one entry and one budget."""
        from repro.cli import _load
        from repro.serve import circuit_content_id, registration_view
        from repro.serve.client import register_request

        assert main(["serve", "iwls:s1238", "--serve-seconds", "0.05"]) == 0
        printed = capsys.readouterr().out.split()[0]
        view, _ = registration_view(register_request(_load("iwls:s1238")))
        assert printed == circuit_content_id(view)

    def test_help_names_one_width(self, capsys):
        """``--max-batch`` is the one serving width; no lane knob."""
        with pytest.raises(SystemExit):
            main(["serve", "--help"])
        out = capsys.readouterr().out
        assert "--max-batch" in out and "--lanes" not in out

    def test_serve_refuses_locked_netlist(self, bench_file, tmp_path):
        locked_path = str(tmp_path / "locked.bench")
        main(["lock", bench_file, "--scheme", "xor", "--key-bits", "2",
              "-o", locked_path])
        with pytest.raises(SystemExit, match="locked"):
            main(["serve", locked_path, "--serve-seconds", "0.05"])


class TestServeSignals:
    """A background `repro serve` drains on SIGINT or SIGTERM."""

    @pytest.mark.parametrize("signum", [signal.SIGINT, signal.SIGTERM],
                             ids=["SIGINT", "SIGTERM"])
    def test_signal_drains_server_and_workers(self, bench_file, tmp_path,
                                              signum):
        # `&` from a non-interactive shell starts it with SIGINT ignored.
        with serve_process(bench_file, tmp_path, preexec_fn=lambda:
                           signal.signal(signal.SIGINT, signal.SIG_IGN)
                           ) as (server, _address):
            server.send_signal(signum)
            assert server.wait(timeout=10.0) == 0
        assert "drained:" in (tmp_path / "serve.err").read_text()


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


class TestRefusedInput:
    """A refused input or an unreachable server is one line on stderr
    and status 2, not a traceback."""

    @pytest.mark.parametrize("argv", [
        ["info", "missing.bench"],
        ["info", "bad.bench"],
        ["lock", "iwls:s1238", "--scheme", "gk", "--key-bits", "5000"],
        ["top", "127.0.0.1:1", "--once"],
        ["attack", "l.bench", "iwls:s1238", "--remote", "127.0.0.1:1"],
        ["info", "iwls:s99"],
        ["serve", "iwls:s1238", "--max-batch", "0"],
        ["serve", "iwls:s1238", "--window-ms", "-1"],
        ["serve", "iwls:s1238", "--window-ms", "nan"],
        ["serve", "iwls:s1238", "--max-pending", "0"],
        ["serve", "iwls:s1238", "--budget", "-1"],
        ["attack", "l.bench", "iwls:s1238", "--verify-samples", "0"],
        ["attack", "l.bench", "iwls:s1238", "--verify-samples", "-5"],
    ], ids=["missing-file", "bad-netlist", "infeasible-lock",
            "top-refused", "remote-refused", "unknown-iwls-name",
            "max-batch-0", "negative-window", "nan-window", "max-pending-0",
            "negative-budget", "verify-samples-0",
            "negative-verify-samples"])
    def test_one_line_and_status_2(self, argv, tmp_path, monkeypatch,
                                   capsys):
        monkeypatch.chdir(tmp_path)
        (tmp_path / "bad.bench").write_text(
            "INPUT(a)\nINPUT(b)\nINPUT(c)\nOUTPUT(y)\ny = FOO(a, b, c)\n")
        assert main(["lock", "iwls:s1238", "--scheme", "xor",
                     "--key-bits", "4", "-o", "l.bench"]) == 0
        capsys.readouterr()
        assert main(argv) == 2
        captured = capsys.readouterr()
        (line,) = captured.err.splitlines()
        assert line.startswith(f"repro {argv[0]}: ")
        assert "Traceback" not in captured.out + captured.err


class TestOpsSurface:
    """`repro serve --metrics-file` and `repro top` against a served
    process."""

    @staticmethod
    def _query(address, circuit, patterns):
        """*patterns* one-pattern queries; returns the circuit id."""
        with RemoteOracle(address, circuit=circuit) as oracle:
            for value in range(patterns):
                oracle.query({net: value % 2 for net in oracle.inputs})
            return oracle.circuit_id

    @pytest.mark.parametrize("traced", [False, True],
                             ids=["untraced", "traced"])
    def test_metrics_file(self, bench_file, toy_sequential, tmp_path,
                          traced):
        """The dump written on the way out has the request counter, the
        circuit's query count and the latency histogram, each family
        once; under ``--trace`` the registry dump follows."""
        path = tmp_path / "m.prom"
        flags = ["--metrics-file", str(path), "--metrics-interval", "0"]
        if traced:
            flags += ["--trace", str(tmp_path / "trace.jsonl")]
        with serve_process(bench_file, tmp_path, *flags) as (server,
                                                             address):
            cid = self._query(address, toy_sequential, 3)
            server.send_signal(signal.SIGTERM)
            assert server.wait(timeout=10.0) == 0
        lines = path.read_text().splitlines()
        families = [line.split()[2] for line in lines
                    if line.startswith("# TYPE")]
        assert len(families) == len(set(families))
        (requests,) = [line for line in lines
                       if line.startswith("repro_serve_requests ")]
        # two registrations (the server's and the client's) and 3
        # queries; the final dump's own obs poll is not a request
        assert int(requests.split()[1]) == 5
        assert f'repro_serve_circuit_queries{{circuit="{cid}"}} 3' in lines
        (inf,) = [line for line in lines if line.startswith(
            'repro_serve_request_seconds_bucket{le="+Inf"}')]
        (count,) = [line for line in lines if line.startswith(
            "repro_serve_request_seconds_count ")]
        assert inf.split()[1] == count.split()[1]
        assert ("repro_serve_batch_flushes" in families) == traced

    def test_top_once(self, bench_file, toy_sequential, tmp_path, capsys):
        """One frame: the circuit's query count, no rate yet, no worker
        table."""
        with serve_process(bench_file, tmp_path) as (server, address):
            cid = self._query(address, toy_sequential, 5)
            assert main(["top", "%s:%d" % address, "--once"]) == 0
            server.send_signal(signal.SIGTERM)
            assert server.wait(timeout=10.0) == 0
        out = capsys.readouterr().out
        (row,) = [line for line in out.splitlines()
                  if line.startswith(cid[:15])]
        assert row.split()[1:3] == ["5", "-"]
        assert "worker" not in out
