"""Command-line interface: ``python -m repro <command>``.

Gives the library's main flows a tool-like surface operating on
``.bench`` / structural-Verilog netlists:

* ``info``     — netlist statistics and timing summary
* ``lock``     — encrypt a design (gk / xor / sarlock / antisat / tdk /
  hybrid), writing the locked netlist and the key
* ``attack``   — run the SAT attack against a locked netlist + oracle
  (in-process, or served: ``--remote HOST:PORT`` queries an oracle
  server instead)
* ``serve``    — host activated-chip oracles on the asyncio server
  (dynamic lane-wide batching, admission control; see
  :mod:`repro.serve`)
* ``profile``  — run the whole pipeline under the observability
  harness and print the span tree + metrics table
* ``table1`` / ``table2`` — regenerate the paper's tables (fanned out
  over a process-pool campaign; ``--jobs 1`` forces the serial path,
  which produces byte-identical aggregates)
* ``campaign`` — run a declarative job matrix (benchmark x scheme x
  attack x seed) on the campaign engine: ``--jobs N`` workers, per-job
  ``--timeout``, bounded retries, a resumable JSONL result store
  (``--store`` / ``--resume``), and a content-addressed netlist cache
  (``--cache-dir``)
* ``arena``    — run a scheme x attack scenario file (stdlib JSON) on
  the campaign engine and print the leaderboard; incompatible cells
  are skipped with an explicit reason, and ``--store``/``--resume``
  make an interrupted run replay to a byte-identical leaderboard
* ``list``     — the registered locking schemes and attack families
  (names, capability tags, descriptions); every scheme/attack choice
  above is derived from these registries
* ``figures``  — print the paper's timing diagrams
* ``reproduce`` — regenerate the whole evaluation in one run

Scheme and attack ``choices=`` lists are built from
:mod:`repro.locking.registry` / :mod:`repro.attacks.registry` at
parser-construction time, so a newly registered scheme or attack shows
up in ``lock``, ``campaign`` and ``arena`` without touching this file.

Every command accepts three observability flags:

* ``--trace FILE`` — stream spans and the final metric snapshot to
  *FILE* as JSONL (see :mod:`repro.obs`);
* ``--profile``    — print a span tree + metric table to stderr when
  the command finishes;
* ``--quiet``      — suppress informational chatter, keeping only the
  primary result on stdout (trace/metric output goes to stderr, so the
  two streams never mix).
"""

from __future__ import annotations

import argparse
import json
import random
import sys
from contextlib import nullcontext
from typing import Dict, Optional

from . import __version__
from .attacks.oracle import CombinationalOracle
from .attacks.sat_attack import sat_attack, verify_key_against_oracle
from .bench.iwls import BENCHMARKS, iwls_benchmark
from .locking.base import LockingScheme
from .netlist.bench_io import parse_bench, write_bench
from .netlist.circuit import Circuit
from .netlist.stats import overhead
from .netlist.verilog_io import parse_verilog, write_verilog
from .sta.clock import ClockSpec
from .sta.report import slack_report
from .sta.timing import analyze

__all__ = ["main"]

#: set per-invocation by :func:`main` from ``--quiet``
_QUIET = False


def _emit(text: str = "", *, result: bool = False, err: bool = False) -> None:
    """Print *text*, honouring ``--quiet``.

    Informational lines (the default) are suppressed under ``--quiet``;
    *result* lines — the output a script would parse — always print.
    *err* routes to stderr (observability reports live there, keeping
    stdout machine-readable).
    """
    if _QUIET and not result:
        return
    print(text, file=sys.stderr if err else sys.stdout)


def _load(path: str) -> Circuit:
    if path.startswith("iwls:"):
        return iwls_benchmark(path[5:]).circuit
    with open(path) as stream:
        text = stream.read()
    if path.endswith((".v", ".sv")):
        return parse_verilog(text)
    return parse_bench(text, name=path.rsplit("/", 1)[-1])


def _save(circuit: Circuit, path: str) -> None:
    with open(path, "w") as stream:
        if path.endswith((".v", ".sv")):
            write_verilog(circuit, stream)
        else:
            write_bench(circuit, stream)


def _clock_for(circuit: Circuit, period: Optional[float]) -> ClockSpec:
    if period is not None:
        return ClockSpec(period=period)
    probe = analyze(circuit, ClockSpec(period=1e9))
    critical = max(
        (e.arrival_max + circuit.gates[e.ff].cell.setup
         for e in probe.endpoints.values()),
        default=1.0,
    )
    return ClockSpec(period=round(critical * 1.08 + 0.005, 2))


def _scheme(name: str, clock: ClockSpec) -> LockingScheme:
    from .core.flow import build_scheme

    try:
        return build_scheme(name, clock)
    except KeyError as exc:
        raise SystemExit(str(exc))


def cmd_info(args: argparse.Namespace) -> int:
    circuit = _load(args.netlist)
    stats = circuit.stats()
    _emit(f"name        : {circuit.name}", result=True)
    _emit(f"cells       : {stats.num_cells} "
          f"({stats.num_flip_flops} FFs, {stats.num_combinational} comb)",
          result=True)
    _emit(f"area        : {stats.area:.1f} um^2", result=True)
    _emit(f"ports       : {stats.num_inputs} PIs, {stats.num_key_inputs} "
          f"keys, {stats.num_outputs} POs", result=True)
    if circuit.flip_flops():
        clock = _clock_for(circuit, args.period)
        _emit(f"clock       : {clock.period} ns"
              + ("" if args.period else " (auto: critical x 1.08)"),
              result=True)
        _emit(slack_report(analyze(circuit, clock), limit=args.paths),
              result=True)
    return 0


def cmd_lock(args: argparse.Namespace) -> int:
    circuit = _load(args.netlist)
    clock = _clock_for(circuit, args.period)
    scheme = _scheme(args.scheme, clock)
    rng = random.Random(args.seed)
    locked = scheme.lock(circuit, args.key_bits, rng)
    _emit(f"locked with {args.scheme}: {locked.circuit}")
    _emit(f"overhead: {overhead(circuit, locked.circuit)}")
    if args.output:
        _save(locked.circuit, args.output)
        _emit(f"netlist -> {args.output}")
    if args.key_file:
        with open(args.key_file, "w") as stream:
            json.dump(locked.key, stream, indent=2, sort_keys=True)
        _emit(f"key     -> {args.key_file}")
    else:
        _emit(f"key     : {json.dumps(locked.key, sort_keys=True)}",
              result=True)
    return 0


def _attack_oracle(args: argparse.Namespace):
    """The activated chip: in-process, or a served RemoteOracle."""
    if getattr(args, "remote", None):
        from .serve import RemoteOracle

        if getattr(args, "circuit", None):
            if args.oracle:
                raise SystemExit(
                    "pass an oracle netlist or --circuit, not both"
                )
            oracle = RemoteOracle(args.remote, circuit_id=args.circuit)
        elif args.oracle:
            oracle = RemoteOracle(args.remote, circuit=_load(args.oracle))
        else:
            raise SystemExit(
                "--remote needs an oracle netlist to register or "
                "--circuit ID of an already-served one"
            )
        _emit(f"oracle: {args.remote} circuit {oracle.circuit_id[:16]}...")
        return oracle
    if not args.oracle:
        raise SystemExit("attack needs an oracle netlist (or --remote)")
    return CombinationalOracle(_load(args.oracle))


def _maybe_adopt_remote_trace(args: argparse.Namespace, oracle) -> None:
    """After a ``--remote`` attack under ``--trace``/``--profile``, pull
    the server's buffered span trees home so the report shows one
    stitched tree: client root → route → request → batch flush."""
    if not getattr(args, "remote", None):
        return
    from .obs import context as _obs
    from .serve import adopt_remote_trace

    if _obs.ACTIVE is None:
        return
    adopted = adopt_remote_trace(oracle.connection)
    if adopted:
        _emit(f"adopted {adopted} remote span tree(s)", err=True)


def cmd_attack(args: argparse.Namespace) -> int:
    locked = _load(args.locked)
    oracle = _attack_oracle(args)
    warm = nullcontext()
    if args.warm_cache:
        from .attacks.warm_start import warm_solver
        from .campaign.cache import NetlistCache

        warm = warm_solver(
            NetlistCache(args.warm_cache), locked, "sat", oracle
        )
    try:
        with warm as solver:
            result = sat_attack(locked, oracle,
                                max_iterations=args.max_iterations,
                                solver=solver)
        _emit(f"completed              : {result.completed}", result=True)
        _emit(f"DIP iterations         : {result.iterations}", result=True)
        _emit(f"UNSAT at 1st iteration : {result.unsat_at_first_iteration}",
              result=True)
        _emit(f"oracle queries         : {result.oracle_queries}")
        _emit(f"solver decisions       : {result.solver_decisions}")
        _emit(f"solver conflicts       : {result.solver_conflicts}")
        if solver is not None:
            _emit(f"warm-start clauses     : {solver.num_imported}")
        if result.key is not None:
            accuracy = verify_key_against_oracle(
                locked, oracle, result.key, samples=args.verify_samples
            )
            _emit(f"recovered key          : "
                  f"{json.dumps(result.key, sort_keys=True)}", result=True)
            _emit(f"functional accuracy    : {accuracy:.3f}", result=True)
            return 0 if accuracy == 1.0 else 1
        _emit("no consistent key", result=True)
        return 1
    finally:
        _maybe_adopt_remote_trace(args, oracle)


def cmd_profile(args: argparse.Namespace) -> int:
    from .obs import JsonlSink, run_profile

    circuit = _load(args.netlist)
    clock = _clock_for(circuit, args.period)
    extra = [JsonlSink(args.trace)] if args.trace else []
    report = run_profile(
        circuit,
        clock,
        key_bits=args.key_bits,
        seed=args.seed,
        max_iterations=args.max_iterations,
        sim_cycles=args.sim_cycles,
        extra_sinks=extra,
    )
    _emit(report.render(), result=True)
    if args.trace:
        _emit(f"trace   -> {args.trace}")
    return 0


def _campaign_config(args: argparse.Namespace,
                     default_store: Optional[str] = None):
    from .campaign import CampaignConfig

    store = getattr(args, "store", None) or default_store
    return CampaignConfig(
        jobs=getattr(args, "jobs", 0),
        timeout=getattr(args, "timeout", None),
        retries=getattr(args, "retries", 2),
        cache_dir=getattr(args, "cache_dir", None),
        store_path=store,
        resume=bool(getattr(args, "resume", False)) and store is not None,
    )


def _campaign_progress(total: int):
    """Per-job status lines on stderr as results land."""
    done = [0]

    def report(record: Dict) -> None:
        done[0] += 1
        took = record.get("duration")
        took_text = f"{took:6.2f}s" if took is not None else "      -"
        cache = record.get("cache") or {}
        hit = " cache" if cache.get("hits") else ""
        _emit(
            f"[{done[0]:>3}/{total}] {record['status']:<8}{took_text}  "
            f"{record['kind']}({_params_text(record['params'])})"
            f"{hit}",
            err=True,
        )

    return report


def _params_text(params: Dict) -> str:
    return " ".join(f"{k}={v}" for k, v in sorted(params.items()))


def _warn_failures(result) -> None:
    for record in result.failed():
        _emit(
            f"FAILED {record['kind']}({_params_text(record['params'])}): "
            f"{record['status']} after {record.get('attempts', 1)} "
            f"attempt(s): {record.get('error')}",
            result=True, err=True,
        )


def cmd_table1(args: argparse.Namespace) -> int:
    from .campaign import CampaignMatrix, run_campaign
    from .reporting.tables import format_table1, table1_row_from_dict

    names = args.benchmarks or list(BENCHMARKS)
    result = run_campaign(
        CampaignMatrix.table1(names),
        _campaign_config(args),
        progress=_campaign_progress(len(names)),
    )
    rows = [
        table1_row_from_dict(record["payload"]["row"])
        for record in result.ordered()
        if record["status"] == "ok"
    ]
    _emit(format_table1(rows), result=True)
    _warn_failures(result)
    return 0 if result.ok else 1


def cmd_table2(args: argparse.Namespace) -> int:
    from .campaign import CampaignMatrix, run_campaign
    from .reporting.tables import format_table2, table2_rows_from_cells

    names = args.benchmarks or list(BENCHMARKS)
    matrix = CampaignMatrix.table2(names)
    result = run_campaign(
        matrix,
        _campaign_config(args),
        progress=_campaign_progress(len(matrix)),
    )
    cells = {
        (record["params"]["benchmark"], record["params"]["config"]):
            record["payload"]["overhead"]
        for record in result.ordered()
        if record["status"] == "ok"
    }
    rows = table2_rows_from_cells(cells, names)
    _emit(format_table2(rows), result=True)
    _warn_failures(result)
    return 0 if result.ok else 1


def cmd_campaign(args: argparse.Namespace) -> int:
    import json as _json

    from .campaign import CampaignMatrix, run_campaign

    if args.matrix:
        text = args.matrix
        if not text.lstrip().startswith("{"):
            with open(text) as stream:
                text = stream.read()
        matrix = CampaignMatrix.from_dict(_json.loads(text))
    else:
        seeds = args.seeds or [2019]
        benchmarks = args.benchmarks or list(BENCHMARKS)
        if args.kind == "table1":
            matrix = CampaignMatrix.table1(benchmarks, seed=seeds[0])
        elif args.kind == "table2":
            matrix = CampaignMatrix.table2(
                benchmarks, configs=args.configs or None, seed=seeds[0]
            )
        elif args.kind == "lock":
            matrix = CampaignMatrix.lock(
                benchmarks, args.schemes or ["gk"],
                args.key_bits or [8], seeds,
            )
        else:
            matrix = CampaignMatrix.attack(
                benchmarks, args.schemes or ["gk", "xor"],
                args.attacks or ["sat"], args.key_bits or [8], seeds,
            )

    config = _campaign_config(args, default_store="campaign.jsonl")
    _emit(
        f"campaign {matrix.kind}: {len(matrix)} jobs on "
        f"{config.resolve_jobs(len(matrix))} worker(s)"
        + (f", store={config.store_path}" if config.store_path else "")
        + (f", cache={config.cache_dir}" if config.cache_dir else "")
    )
    result = run_campaign(
        matrix, config, progress=_campaign_progress(len(matrix))
    )

    if matrix.kind in ("table1", "table2"):
        _emit(_render_campaign_table(matrix, result), result=True)
    counts = " ".join(
        f"{status}={count}"
        for status, count in sorted(result.status_counts.items())
    )
    cache = result.cache_stats()
    _emit(
        f"done in {result.wall_seconds:.2f}s: {counts}; resumed "
        f"{result.resumed}; cache hits={cache['hits']} "
        f"misses={cache['misses']}",
        result=True,
    )
    _warn_failures(result)
    return 0 if result.ok else 1


def _render_campaign_table(matrix, result) -> str:
    from .reporting.tables import (
        format_table1,
        format_table2,
        table1_row_from_dict,
        table2_rows_from_cells,
    )

    ok = [r for r in result.ordered() if r["status"] == "ok"]
    if matrix.kind == "table1":
        return format_table1(
            [table1_row_from_dict(r["payload"]["row"]) for r in ok]
        )
    benchmarks = list(dict.fromkeys(
        record["params"]["benchmark"] for record in result.ordered()
    ))
    cells = {
        (r["params"]["benchmark"], r["params"]["config"]):
            r["payload"]["overhead"]
        for r in ok
    }
    return format_table2(table2_rows_from_cells(cells, benchmarks))


def cmd_arena(args: argparse.Namespace) -> int:
    from .arena import Scenario, run_arena
    from .reporting.leaderboard import format_leaderboard, leaderboard_markdown

    try:
        scenario = Scenario.from_file(args.scenario)
    except (OSError, ValueError) as exc:
        raise SystemExit(str(exc))

    config = _campaign_config(args, default_store=f"{scenario.name}.jsonl")
    runnable, skipped = scenario.cells()
    _emit(
        f"arena {scenario.name}: {len(runnable)} cells "
        f"({len(skipped)} skipped) on "
        f"{config.resolve_jobs(len(runnable))} worker(s)"
        + (f", store={config.store_path}" if config.store_path else "")
        + (f", cache={config.cache_dir}" if config.cache_dir else "")
    )
    result = run_arena(
        scenario, config, progress=_campaign_progress(len(runnable))
    )

    _emit(format_leaderboard(result), result=True)
    if args.markdown:
        with open(args.markdown, "w") as stream:
            stream.write(leaderboard_markdown(result))
        _emit(f"markdown -> {args.markdown}")
    _warn_failures(result.campaign)
    return 0 if result.ok else 1


def cmd_list(args: argparse.Namespace) -> int:
    from .attacks.registry import attack_infos
    from .locking.registry import scheme_infos

    lines = ["locking schemes:"]
    for info in scheme_infos():
        tags = f"  [{', '.join(sorted(info.tags))}]" if info.tags else ""
        lines.append(f"  {info.name:<18}{info.description}{tags}")
    lines.append("")
    lines.append("attack families:")
    for info in attack_infos():
        tags = f"  [{', '.join(sorted(info.tags))}]" if info.tags else ""
        lines.append(f"  {info.name:<18}{info.description}{tags}")
    _emit("\n".join(lines), result=True)
    return 0


def cmd_reproduce(args: argparse.Namespace) -> int:
    from .reporting.summary import reproduce

    reproduce(fast=not args.full,
              echo=lambda text: _emit(text, result=True), seed=args.seed,
              jobs=args.jobs, cache_dir=args.cache_dir)
    return 0


def _fleet_trace_buffer():
    """Make sure the active session buffers span trees for the ``obs``
    op (``--fleet-trace``); enables a session when none is active."""
    from . import obs
    from .obs import context as _obs
    from .obs.sinks import SpanBuffer

    buffer = SpanBuffer()
    session = _obs.ACTIVE
    if session is None:
        obs.enable(buffer)
    else:
        session.sinks.append(buffer)
    return buffer


def _write_metrics_file(path: str, text: str) -> None:
    """Atomic replace, so a scraper never reads a half-written dump."""
    import os

    tmp = f"{path}.tmp"
    with open(tmp, "w") as stream:
        stream.write(text)
    os.replace(tmp, path)


def _install_obs_dumper(path: str, interval_s: float, handle):
    """Periodic (and SIGUSR1-triggered) Prometheus-text dump.

    *handle* is the endpoint's async dispatcher; each dump asks it for
    the ``obs`` snapshot and rewrites *path* atomically.  Returns the
    periodic task (or None when the interval is 0) for cancellation.
    """
    import asyncio
    import signal as _signal

    from .obs.export import render_exposition

    loop = asyncio.get_running_loop()

    async def dump() -> None:
        try:
            response = await handle({"op": "obs"})
            _write_metrics_file(path, render_exposition(response))
        except Exception as exc:  # noqa: BLE001 - keep serving
            _emit(f"metrics dump failed: {exc}", err=True)

    async def periodic() -> None:
        while True:
            await asyncio.sleep(interval_s)
            await dump()

    if hasattr(_signal, "SIGUSR1"):
        try:
            loop.add_signal_handler(
                _signal.SIGUSR1, lambda: loop.create_task(dump()))
        except (NotImplementedError, RuntimeError):
            pass  # platforms/loops without signal handler support
    return loop.create_task(periodic()) if interval_s > 0 else None


def cmd_serve(args: argparse.Namespace) -> int:
    import asyncio

    from .serve import (
        AdmissionConfig,
        BatchConfig,
        OracleServer,
        ServerConfig,
    )

    if args.workers < 1:
        raise SystemExit("--workers must be >= 1")
    if args.lanes is not None:
        from .netlist.compiled import check_lanes

        try:
            check_lanes(args.lanes)
        except ValueError as exc:
            raise SystemExit(f"--lanes: {exc}")
    batch = BatchConfig(
        max_batch=args.max_batch,
        window_s=args.window_ms / 1000.0,
    )
    admission = AdmissionConfig(max_pending=args.max_pending)
    circuits = [(_load(path), path) for path in args.netlists]

    if args.workers > 1:
        return _serve_sharded(args, batch, admission, circuits)

    config = ServerConfig(
        host=args.host,
        port=args.port,
        batch=batch,
        admission=admission,
        default_budget=args.budget,
        lanes=args.lanes,
        trace=args.fleet_trace,
        slow_log_path=args.slow_log,
        slow_request_s=args.slow_threshold_ms / 1000.0,
    )
    if args.fleet_trace:
        _fleet_trace_buffer()
    server = OracleServer(config=config)

    async def run() -> None:
        for circuit, path in circuits:
            entry = server.registry.register(
                _oracle_view(circuit), budget=args.budget
            )
            _emit(f"{entry.circuit_id}  {path} "
                  f"({len(entry.compiled.inputs)} in, "
                  f"{len(entry.compiled.outputs)} out)", result=True)
        host, port = await server.start()
        _emit(f"serving {len(circuits)} circuit(s) on {host}:{port} "
              f"({server.registry.lane_width()} lanes, "
              f"batch<= {server.batcher.max_batch}, "
              f"window {args.window_ms}ms)",
              result=True)
        dumper = None
        if args.metrics_file:
            dumper = _install_obs_dumper(
                args.metrics_file, args.metrics_interval, server.handle)
        try:
            if args.serve_seconds is not None:
                await asyncio.sleep(args.serve_seconds)
            else:
                await server.serve_forever()
        finally:
            if dumper is not None:
                dumper.cancel()
            await server.drain()
            if args.metrics_file:
                response = await server.handle({"op": "obs"})
                from .obs.export import render_exposition
                _write_metrics_file(args.metrics_file,
                                    render_exposition(response))
            stats = server.batcher.stats()
            _emit(f"drained: {stats['batches']} batches, "
                  f"{stats['lanes_total']} queries, occupancy mean "
                  f"{stats['occupancy_mean']}", err=True)

    try:
        asyncio.run(run())
    except KeyboardInterrupt:
        _emit("interrupted; drained", err=True)
    return 0


def _serve_sharded(args: argparse.Namespace, batch, admission,
                   circuits) -> int:
    """``repro serve --workers N``: the multi-process backend."""
    import asyncio
    import io

    from .netlist.bench_io import write_bench
    from .serve import ShardConfig, ShardSupervisor

    def _bench_text(circuit) -> str:
        stream = io.StringIO()
        write_bench(circuit, stream)
        return stream.getvalue()

    supervisor = ShardSupervisor(ShardConfig(
        workers=args.workers,
        host=args.host,
        port=args.port,
        batch=batch,
        admission=admission,
        default_budget=args.budget,
        lanes=args.lanes,
        trace=args.fleet_trace,
        slow_log_path=args.slow_log,
        slow_request_s=args.slow_threshold_ms / 1000.0,
    ))
    if args.fleet_trace:
        # The supervisor's own routing spans ship through this buffer
        # alongside the worker trees its polling loop collects.
        supervisor.span_buffer = _fleet_trace_buffer()

    async def run() -> None:
        host, port = await supervisor.start()
        try:
            # Register through the supervisor itself, so each netlist
            # lands on (and is restored to) the worker the ring assigns.
            for circuit, path in circuits:
                request = {
                    "op": "register",
                    "netlist": _bench_text(_oracle_view(circuit)),
                    "name": circuit.name,
                }
                if args.budget is not None:
                    request["budget"] = args.budget
                response = await supervisor.handle(request)
                if not response.get("ok"):
                    raise SystemExit(f"{path}: {response.get('error')}")
                owner = supervisor.owner_index(response["circuit"])
                _emit(f"{response['circuit']}  {path} "
                      f"(worker {owner})", result=True)
            # Workers resolve max_batch=None against their own registry
            # width; mirror that resolution for the banner.
            from .netlist.compiled import default_lanes
            lanes = args.lanes if args.lanes is not None else default_lanes()
            batch_width = (batch.max_batch if batch.max_batch is not None
                           else lanes)
            _emit(f"serving {len(circuits)} circuit(s) on {host}:{port} "
                  f"({args.workers} workers, {lanes} lanes, "
                  f"batch<= {batch_width}, "
                  f"window {args.window_ms}ms)", result=True)
            dumper = None
            if args.metrics_file:
                dumper = _install_obs_dumper(
                    args.metrics_file, args.metrics_interval,
                    supervisor.handle)
            try:
                if args.serve_seconds is not None:
                    await asyncio.sleep(args.serve_seconds)
                else:
                    await supervisor.serve_forever()
            finally:
                if dumper is not None:
                    dumper.cancel()
        finally:
            # The drain covers registration failures too: workers are
            # real child processes and must not outlive a SystemExit.
            await supervisor.drain()
            _emit(f"drained: {supervisor.requests} requests, "
                  f"{supervisor.respawned_total} respawns", err=True)

    try:
        asyncio.run(run())
    except KeyboardInterrupt:
        _emit("interrupted; drained", err=True)
    return 0


def _oracle_view(circuit: Circuit):
    """Same normalization the server applies to registered netlists."""
    from .netlist.transform import extract_combinational

    if circuit.key_inputs:
        raise SystemExit(
            f"{circuit.name}: refusing to serve a locked netlist — an "
            f"oracle wraps the original (keyless) design"
        )
    if circuit.flip_flops():
        return extract_combinational(circuit).circuit
    return circuit


def cmd_top(args: argparse.Namespace) -> int:
    """Live fleet dashboard: plain full redraws, no curses."""
    import time as _time

    from .obs.export import render_top
    from .serve import ServeConnection

    connection = ServeConnection(args.address)
    try:
        while True:
            response = connection.fetch_obs()
            fleet = response.get("fleet") or {}
            clock_text = _time.strftime("%H:%M:%S")
            if not args.once:
                # ANSI clear + home: a dumb full redraw works on any
                # terminal a CI log might replay, unlike curses.
                sys.stdout.write("\x1b[2J\x1b[H")
            _emit(render_top(fleet, clock_text=clock_text), result=True)
            if args.once:
                return 0
            sys.stdout.flush()
            _time.sleep(args.interval)
    except KeyboardInterrupt:
        return 0
    finally:
        connection.close()


def cmd_figures(args: argparse.Namespace) -> int:
    from .reporting.figures import (
        figure4_gk_waveform,
        figure6_keygen_waveform,
        figure7_scenarios,
        figure9_trigger_windows,
    )

    for figure in (
        figure4_gk_waveform(),
        figure6_keygen_waveform(),
        figure7_scenarios(),
        figure9_trigger_windows(),
    ):
        _emit("=" * 74, result=True)
        _emit(figure.title, result=True)
        _emit(figure.diagram, result=True)
    return 0


def build_parser() -> argparse.ArgumentParser:
    obs_flags = argparse.ArgumentParser(add_help=False)
    group = obs_flags.add_argument_group("observability")
    group.add_argument("--trace", metavar="FILE",
                       help="write spans + metrics to FILE as JSONL")
    group.add_argument("--profile", action="store_true",
                       help="print a span tree + metric table to stderr")
    group.add_argument("--quiet", "-q", action="store_true",
                       help="suppress informational output on stdout")

    pool_flags = argparse.ArgumentParser(add_help=False)
    group = pool_flags.add_argument_group("campaign")
    group.add_argument("--jobs", "-j", type=int, default=0, metavar="N",
                       help="worker processes (0 = one per CPU core; "
                            "1 = serial, in-process)")
    group.add_argument("--timeout", type=float, metavar="SEC",
                       help="per-job wall-clock deadline")
    group.add_argument("--retries", type=int, default=2, metavar="N",
                       help="extra attempts for transient failures")
    group.add_argument("--cache-dir", metavar="DIR",
                       help="content-addressed netlist cache directory")
    group.add_argument("--store", metavar="FILE",
                       help="JSONL result store (one record per job)")
    group.add_argument("--resume", action="store_true",
                       help="skip jobs already completed in --store")

    # Every scheme/attack choices= list below derives from the
    # registries — a new @register_scheme/@register_attack shows up
    # here without edits (asserted by tests/test_cli_registry_drift.py).
    from .attacks.registry import attack_names
    from .locking.registry import scheme_names
    from .reporting.tables import TABLE2_CONFIGS

    schemes = list(scheme_names())
    attacks = list(attack_names())

    parser = argparse.ArgumentParser(
        prog="repro",
        description="Glitch Key-gate logic locking — paper reproduction CLI",
        epilog=f"repro version {__version__}",
    )
    parser.add_argument(
        "--version", action="version", version=f"%(prog)s {__version__}"
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("info", help="netlist statistics and timing",
                       parents=[obs_flags])
    p.add_argument("netlist", help=".bench/.v file, or iwls:<name>")
    p.add_argument("--period", type=float, help="clock period in ns")
    p.add_argument("--paths", type=int, default=10, help="endpoints to list")
    p.set_defaults(func=cmd_info)

    p = sub.add_parser("lock", help="encrypt a design", parents=[obs_flags])
    p.add_argument("netlist")
    p.add_argument("--scheme", default="gk", choices=schemes)
    p.add_argument("--key-bits", type=int, default=8)
    p.add_argument("--seed", type=int, default=2019)
    p.add_argument("--period", type=float)
    p.add_argument("--output", "-o", help="write the locked netlist here")
    p.add_argument("--key-file", help="write the correct key (JSON) here")
    p.set_defaults(func=cmd_lock)

    p = sub.add_parser("attack", help="SAT-attack a locked netlist",
                       parents=[obs_flags])
    p.add_argument("locked", help="locked netlist (key inputs present)")
    p.add_argument("oracle", nargs="?",
                   help="original netlist (the activated chip); optional "
                        "with --remote --circuit")
    p.add_argument("--max-iterations", type=int, default=256)
    p.add_argument("--verify-samples", type=int, default=64)
    p.add_argument("--warm-cache", metavar="DIR",
                   help="warm-start the SAT solver from the clause pool "
                        "kept in this cache directory, and update the "
                        "pool afterwards: repeated attacks on the same "
                        "netlist+oracle start from what earlier runs "
                        "learned")
    p.add_argument("--remote", metavar="HOST:PORT",
                   help="query a served oracle instead of an in-process "
                        "one (see `repro serve`)")
    p.add_argument("--circuit", metavar="ID",
                   help="content hash of an already-served circuit "
                        "(skips registering the oracle netlist)")
    p.set_defaults(func=cmd_attack)

    p = sub.add_parser(
        "serve",
        help="host activated-chip oracles (lane-wide dynamic batching)",
        parents=[obs_flags],
    )
    p.add_argument("netlists", nargs="+", metavar="NETLIST",
                   help=".bench/.v file or iwls:<name> — the *original* "
                        "(keyless) designs to serve")
    p.add_argument("--host", default="127.0.0.1")
    p.add_argument("--port", type=int, default=0,
                   help="TCP port (0 = ephemeral, printed on startup)")
    p.add_argument("--lanes", type=int, default=None, metavar="N",
                   help="bit-parallel lane width circuits are compiled "
                        "at — any positive multiple of 64 (default: "
                        "REPRO_LANES or 64); sharded workers inherit it")
    p.add_argument("--max-batch", type=int, default=None, metavar="N",
                   help="lanes per batch flush; 1 disables coalescing "
                        "(default: match --lanes)")
    p.add_argument("--window-ms", type=float, default=2.0, metavar="MS",
                   help="max latency a lone query waits for co-batching")
    p.add_argument("--max-pending", type=int, default=1024, metavar="N",
                   help="admission bound on queued patterns")
    p.add_argument("--workers", type=int, default=1, metavar="N",
                   help="worker processes; >1 shards circuits across a "
                        "supervised fleet by consistent hash (each "
                        "circuit owned by exactly one worker)")
    p.add_argument("--budget", type=int, metavar="N",
                   help="per-circuit query budget (refuse queries beyond)")
    p.add_argument("--serve-seconds", type=float, metavar="SEC",
                   help="run for SEC seconds then drain (CI smoke mode; "
                        "default: serve until interrupted)")
    group = p.add_argument_group("fleet observability")
    group.add_argument("--metrics-file", metavar="FILE",
                       help="dump a Prometheus-style text snapshot to "
                            "FILE (atomic replace) every "
                            "--metrics-interval seconds and on SIGUSR1")
    group.add_argument("--metrics-interval", type=float, default=5.0,
                       metavar="SEC",
                       help="seconds between --metrics-file dumps "
                            "(0 = SIGUSR1 only)")
    group.add_argument("--slow-log", metavar="FILE",
                       help="always-on JSONL log of slow/refused "
                            "requests (workers append to FILE.wN)")
    group.add_argument("--slow-threshold-ms", type=float, default=1000.0,
                       metavar="MS",
                       help="answered requests at or above MS are "
                            "logged as slow (errors always are)")
    group.add_argument("--fleet-trace", action="store_true",
                       help="trace inside the serving processes and "
                            "buffer span trees for the obs op / remote "
                            "trace adoption")
    p.set_defaults(func=cmd_serve)

    p = sub.add_parser(
        "top",
        help="live fleet view of a serve endpoint (plain redraw)",
        parents=[obs_flags],
    )
    p.add_argument("address", metavar="HOST:PORT",
                   help="a `repro serve` endpoint (single or sharded)")
    p.add_argument("--interval", type=float, default=2.0, metavar="SEC",
                   help="seconds between refreshes")
    p.add_argument("--once", action="store_true",
                   help="print one snapshot and exit (no redraw)")
    p.set_defaults(func=cmd_top)

    p = sub.add_parser(
        "profile",
        help="profile the whole GK pipeline (synth/P&R/STA/lock/attack/sim)",
        parents=[obs_flags],
    )
    p.add_argument("netlist", help=".bench/.v file, or iwls:<name>")
    p.add_argument("--key-bits", type=int, default=8)
    p.add_argument("--seed", type=int, default=2019)
    p.add_argument("--period", type=float)
    p.add_argument("--max-iterations", type=int, default=64)
    p.add_argument("--sim-cycles", type=int, default=8)
    p.set_defaults(func=cmd_profile)

    p = sub.add_parser("table1", help="regenerate paper Table I",
                       parents=[obs_flags, pool_flags])
    p.add_argument("benchmarks", nargs="*", choices=list(BENCHMARKS) + [[]])
    p.set_defaults(func=cmd_table1)

    p = sub.add_parser("table2", help="regenerate paper Table II",
                       parents=[obs_flags, pool_flags])
    p.add_argument("benchmarks", nargs="*", choices=list(BENCHMARKS) + [[]])
    p.set_defaults(func=cmd_table2)

    p = sub.add_parser(
        "campaign",
        help="run a declarative experiment matrix on the process pool",
        parents=[obs_flags, pool_flags],
    )
    p.add_argument("--kind", default="table2",
                   choices=["table1", "table2", "lock", "attack"],
                   help="job kind when building the matrix from flags")
    p.add_argument("--matrix", metavar="JSON|FILE",
                   help="full matrix spec as a JSON dict "
                        '(e.g. \'{"kind": "lock", "axes": {...}}\') '
                        "or a path to one; overrides the axis flags")
    p.add_argument("--benchmarks", nargs="*", choices=list(BENCHMARKS),
                   metavar="BENCH", help="benchmark axis (default: all)")
    p.add_argument("--configs", nargs="*", choices=list(TABLE2_CONFIGS),
                   help="table2 configuration axis")
    p.add_argument("--schemes", nargs="*", choices=schemes,
                   help="locking-scheme axis (lock/attack kinds)")
    p.add_argument("--attacks", nargs="*", choices=attacks,
                   help="attack axis (attack kind)")
    p.add_argument("--key-bits", nargs="*", type=int, metavar="N",
                   help="key-width axis (lock/attack kinds)")
    p.add_argument("--seeds", nargs="*", type=int, metavar="N",
                   help="seed axis")
    p.set_defaults(func=cmd_campaign)

    p = sub.add_parser(
        "arena",
        help="run a scheme x attack scenario and print the leaderboard",
        parents=[obs_flags, pool_flags],
    )
    p.add_argument("scenario", metavar="SCENARIO.json",
                   help="declarative scenario file (see repro.arena)")
    p.add_argument("--markdown", metavar="FILE",
                   help="also write the leaderboard as markdown to FILE")
    p.set_defaults(func=cmd_arena)

    p = sub.add_parser(
        "list",
        help="registered locking schemes and attack families",
        parents=[obs_flags],
    )
    p.set_defaults(func=cmd_list)

    p = sub.add_parser("figures", help="regenerate paper Figs. 4/6/7/9",
                       parents=[obs_flags])
    p.set_defaults(func=cmd_figures)

    p = sub.add_parser(
        "reproduce", help="regenerate the paper's whole evaluation",
        parents=[obs_flags, pool_flags],
    )
    p.add_argument("--full", action="store_true",
                   help="run the SAT attack on three benchmarks, not one")
    p.add_argument("--seed", type=int, default=2019)
    p.set_defaults(func=cmd_reproduce)
    return parser


def main(argv: Optional[list] = None) -> int:
    global _QUIET
    parser = build_parser()
    args = parser.parse_args(argv)
    _QUIET = bool(getattr(args, "quiet", False))

    # `profile` manages its own observability session (run_profile) and
    # threads --trace through as an extra sink; every other command gets
    # a session assembled here from the shared flags.
    if args.func is cmd_profile:
        return args.func(args)

    from . import obs

    sinks = []
    memory = None
    if getattr(args, "trace", None):
        sinks.append(obs.JsonlSink(args.trace))
    if getattr(args, "profile", False):
        memory = obs.InMemorySink()
        sinks.append(memory)
    if not sinks:
        return args.func(args)

    session = obs.enable(*sinks)
    try:
        code = args.func(args)
        snapshot = session.publish_metrics()
    finally:
        obs.disable()
    if memory is not None:
        _emit(obs.render_span_tree(memory.roots), result=True, err=True)
        _emit("", result=True, err=True)
        _emit(obs.render_metrics_table(snapshot), result=True, err=True)
    return code


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
