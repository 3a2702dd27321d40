"""End-to-end: the SAT attack over the serving stack.

The claim under test: a served oracle is a *faithful* substitute for
the in-process one — same recovered key, same DIP trajectory, same
per-pattern query accounting — with the whole wire stack (framing,
batching, admission, budget bookkeeping) in the loop.
"""

import random

import pytest

from repro.attacks import (
    CombinationalOracle,
    sat_attack,
    verify_key_against_oracle,
)
from repro.bench import iwls_benchmark
from repro.locking import XorLock
from repro.serve import RemoteOracle, ThreadedServer


@pytest.mark.parametrize("bench_name,key_bits", [
    ("s1238", 6),
    ("s5378", 4),
])
def test_served_attack_is_byte_identical(bench_name, key_bits):
    bench = iwls_benchmark(bench_name)
    locked = XorLock().lock(bench.circuit, key_bits, random.Random(7))

    local = CombinationalOracle(bench.circuit)
    local_result = sat_attack(locked.circuit, local)
    assert local_result.completed and local_result.key is not None

    with ThreadedServer() as (host, port):
        with RemoteOracle((host, port), circuit=bench.circuit) as remote:
            remote_result = sat_attack(locked.circuit, remote)
            assert remote_result.completed

            # Byte-identical recovery: same key, same DIP trajectory.
            assert remote_result.key == local_result.key
            assert remote_result.iterations == local_result.iterations
            assert remote_result.dips == local_result.dips

            # Identical query accounting, client- and server-side.
            assert remote.query_count == local.query_count
            assert remote.server_query_count == remote.query_count

            # And the key actually unlocks the chip, verified remotely.
            assert verify_key_against_oracle(
                locked.circuit, remote, remote_result.key, samples=32
            ) == 1.0


def test_served_attack_respects_budget():
    """An oracle with a too-small budget stops the attack with the
    typed error instead of silently returning junk."""
    from repro.serve import QueryBudgetExceededError

    bench = iwls_benchmark("s1238")
    locked = XorLock().lock(bench.circuit, 6, random.Random(7))
    with ThreadedServer() as (host, port):
        with RemoteOracle((host, port), circuit=bench.circuit,
                          budget=0) as remote:
            with pytest.raises(QueryBudgetExceededError):
                sat_attack(locked.circuit, remote)


def test_cli_attack_against_live_server(tmp_path, capsys):
    """`repro attack --remote` cracks a served oracle, and `--circuit`
    reattaches to the already-registered design."""
    from repro.cli import main
    from repro.netlist.bench_io import write_bench

    bench = iwls_benchmark("s1238")
    locked = XorLock().lock(bench.circuit, 4, random.Random(3))
    locked_path = tmp_path / "locked.bench"
    oracle_path = tmp_path / "oracle.bench"
    with open(locked_path, "w") as stream:
        write_bench(locked.circuit, stream)
    with open(oracle_path, "w") as stream:
        write_bench(bench.circuit, stream)

    with ThreadedServer() as (host, port):
        address = f"{host}:{port}"
        assert main(["attack", str(locked_path), str(oracle_path),
                     "--remote", address]) == 0
        out = capsys.readouterr().out
        assert "functional accuracy    : 1.000" in out

        # Reattach by circuit ID: no oracle netlist needed at all.  The
        # CLI prints a 16-char ID prefix; fetch the full ID by
        # re-registering the same netlist the same way the CLI loaded
        # it (registration is idempotent by content).
        printed_prefix = out.split("circuit ")[1].split(".")[0].strip()
        from repro.netlist.bench_io import parse_bench
        from repro.serve import RemoteOracle

        with open(oracle_path) as stream:
            reparsed = parse_bench(stream.read(), name="oracle.bench")
        oracle = RemoteOracle((host, port), circuit=reparsed)
        assert oracle.circuit_id.startswith(printed_prefix)
        assert main(["attack", str(locked_path),
                     "--remote", address,
                     "--circuit", oracle.circuit_id]) == 0
        assert "functional accuracy    : 1.000" in capsys.readouterr().out
