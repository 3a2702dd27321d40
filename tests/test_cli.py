"""Tests for the command-line interface."""

import json
import os
import signal
import subprocess
import sys
import time

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

    @pytest.mark.parametrize("workers", ["1", "2"])
    def test_serve_prints_the_id_a_client_registers(self, capsys, workers):
        """The printed ID is the one RemoteOracle's registration of the
        same netlist gets, so the two share one entry and one budget."""
        from repro.cli import _load
        from repro.serve import circuit_content_id, registration_view
        from repro.serve.client import register_request

        assert main(["serve", "iwls:s1238", "--workers", workers,
                     "--serve-seconds", "0.05"]) == 0
        printed = capsys.readouterr().out.split()[0]
        view, _ = registration_view(register_request(_load("iwls:s1238")))
        assert printed == circuit_content_id(view)

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


def _children(pid):
    """PIDs whose parent is *pid*, read from ``/proc/<pid>/stat``."""
    found = []
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            with open(f"/proc/{entry}/stat") as stream:
                fields = stream.read().rsplit(")", 1)[1].split()
        except OSError:
            continue
        if int(fields[1]) == pid:
            found.append(int(entry))
    return found


def _running(pid):
    """Alive and not a zombie awaiting its reaper."""
    try:
        with open(f"/proc/{pid}/stat") as stream:
            return stream.read().rsplit(")", 1)[1].split()[0] != "Z"
    except OSError:
        return False


@pytest.mark.skipif(not os.path.isdir("/proc"),
                    reason="reads worker PIDs from /proc")
class TestServeSignals:
    """A background `repro serve --workers 2` drains on SIGINT or
    SIGTERM and takes its forked workers with it."""

    @pytest.mark.parametrize("signum", [signal.SIGINT, signal.SIGTERM],
                             ids=["SIGINT", "SIGTERM"])
    def test_signal_drains_server_and_workers(self, bench_file, tmp_path,
                                              signum):
        src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
        env = dict(os.environ, PYTHONPATH=os.path.abspath(src),
                   PYTHONUNBUFFERED="1")
        out_path, err_path = tmp_path / "serve.out", tmp_path / "serve.err"
        with open(out_path, "w") as out, open(err_path, "w") as err:
            # `&` from a non-interactive shell starts it with SIGINT
            # ignored.  Files, not pipes: surviving workers would hold a
            # pipe open and hang the read.
            server = subprocess.Popen(
                [sys.executable, "-m", "repro", "serve", bench_file,
                 "--port", "0", "--workers", "2"],
                stdout=out, stderr=err, env=env,
                preexec_fn=lambda: signal.signal(signal.SIGINT,
                                                 signal.SIG_IGN),
            )
        workers = []
        try:
            deadline = time.monotonic() + 60.0
            while "serving" not in out_path.read_text():
                assert server.poll() is None, err_path.read_text()
                assert time.monotonic() < deadline, "server never served"
                time.sleep(0.05)
            workers = _children(server.pid)
            assert len(workers) >= 2
            server.send_signal(signum)
            assert server.wait(timeout=10.0) == 0
        finally:
            if server.poll() is None:
                server.kill()
                server.wait()
            survivors = [pid for pid in workers if _running(pid)]
            for pid in survivors:
                os.kill(pid, signal.SIGKILL)
        assert "drained:" in err_path.read_text()
        assert survivors == []

    def test_workers_exit_when_the_front_end_is_killed(self, bench_file):
        """SIGKILL drains nobody: each worker must notice its front end
        is gone, exit, and release the server's stdout/stderr pipes."""
        import select

        src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
        env = dict(os.environ, PYTHONPATH=os.path.abspath(src),
                   PYTHONUNBUFFERED="1")
        server = subprocess.Popen(
            [sys.executable, "-m", "repro", "serve", bench_file,
             "--port", "0", "--workers", "2"],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env,
        )
        workers = []
        try:
            out = b""
            deadline = time.monotonic() + 60.0
            while b"serving" not in out:
                remaining = deadline - time.monotonic()
                assert remaining > 0, "server never served"
                ready, _, _ = select.select([server.stdout], [], [],
                                            remaining)
                if ready:
                    chunk = os.read(server.stdout.fileno(), 4096)
                    assert chunk, "server exited early"
                    out += chunk
            workers = _children(server.pid)
            assert len(workers) >= 2
            server.kill()
            server.wait(timeout=10.0)
            deadline = time.monotonic() + 10.0
            while any(_running(pid) for pid in workers) and \
                    time.monotonic() < deadline:
                time.sleep(0.05)
            survivors = [pid for pid in workers if _running(pid)]
            # Returns only once every holder of the pipes has exited.
            server.communicate(timeout=10.0)
        finally:
            if server.poll() is None:
                server.kill()
            for pid in workers:
                if _running(pid):
                    os.kill(pid, signal.SIGKILL)
            server.communicate()
        assert survivors == []


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
