"""Child-process job execution.

:func:`execute_job` is the one entry point: it looks the job kind up in
a registry, runs the handler under a wall-clock deadline and an
observability capture, and returns a plain-dict record — never raising
— so the parent can treat every outcome uniformly.  The same function
runs in-process for serial campaigns (``--jobs 1``) and inside pool
workers for parallel ones, which is what makes serial and parallel
aggregates byte-identical: there is exactly one code path that computes
a cell.

Deadlines use ``SIGALRM`` (``signal.setitimer``), which interrupts
CPU-bound pure-Python work between bytecodes; on platforms without it
the deadline degrades to unenforced and the runner's hang backstop
takes over.

Extra job kinds (the test suite's stub workers, future attack grids)
register via :func:`register_kind`; pool workers replay registrations
by importing each ``worker_modules`` entry — a dotted module name or a
``.py`` file path — in their initializer.
"""

from __future__ import annotations

import importlib
import importlib.util
import signal
import threading
import time
import traceback
from contextlib import contextmanager, nullcontext
from dataclasses import asdict
from io import StringIO
from typing import Any, Callable, Dict, Iterable, Mapping, Optional

from .cache import NetlistCache
from .matrix import JobSpec, content_id

__all__ = [
    "JobTimeout", "TransientJobError", "register_kind", "execute_job",
    "init_worker", "pool_execute",
]


class JobTimeout(Exception):
    """Raised inside a worker when its wall-clock deadline expires."""


class TransientJobError(RuntimeError):
    """An error worth retrying (flaky infrastructure, not a wrong answer).

    Handlers raise this to mark the attempt retryable; any other
    exception is treated as deterministic and fails the cell for good.
    """


# ----------------------------------------------------------------------
# Kind registry
# ----------------------------------------------------------------------

Handler = Callable[[Dict[str, Any], NetlistCache], Dict[str, Any]]

_KINDS: Dict[str, Handler] = {}


def register_kind(name: str, handler: Optional[Handler] = None):
    """Register a job kind (usable as a decorator)."""
    if handler is not None:
        _KINDS[name] = handler
        return handler

    def decorator(fn: Handler) -> Handler:
        _KINDS[name] = fn
        return fn

    return decorator


def load_worker_modules(modules: Iterable[str]) -> None:
    """Import registration modules (dotted names or ``.py`` paths)."""
    for entry in modules:
        if entry.endswith(".py"):
            spec = importlib.util.spec_from_file_location(
                "repro_campaign_ext_" + content_id("mod", {"path": entry}),
                entry,
            )
            assert spec is not None and spec.loader is not None
            module = importlib.util.module_from_spec(spec)
            spec.loader.exec_module(module)
        else:
            importlib.import_module(entry)


# ----------------------------------------------------------------------
# Deadlines
# ----------------------------------------------------------------------

@contextmanager
def _deadline(seconds: Optional[float]):
    """Raise :class:`JobTimeout` after *seconds* of wall-clock time."""
    usable = (
        seconds is not None
        and seconds > 0
        and hasattr(signal, "SIGALRM")
        and threading.current_thread() is threading.main_thread()
    )
    if not usable:
        yield
        return

    def _on_alarm(signum, frame):
        raise JobTimeout(f"job exceeded {seconds}s wall-clock deadline")

    previous = signal.signal(signal.SIGALRM, _on_alarm)
    signal.setitimer(signal.ITIMER_REAL, float(seconds))
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, previous)


# ----------------------------------------------------------------------
# Built-in kinds: the paper's sweeps
# ----------------------------------------------------------------------

#: per-process memo of generated benchmark instances: the four Table II
#: cells of one benchmark share a worker's generation work
_INSTANCE_MEMO: Dict[Any, Any] = {}


def _instance(benchmark: str, seed: int, cache: NetlistCache):
    """One benchmark instance, cheapest source first: the per-process
    memo, then the on-disk cache (pool workers share one generation
    through it), then generation — which also populates the cache."""
    memo_key = (benchmark, seed)
    instance = _INSTANCE_MEMO.get(memo_key)
    if instance is None:
        disk_key = cache.key(kind="bench", benchmark=benchmark, seed=seed)
        instance = cache.get_object(disk_key) if cache.enabled else None
        if instance is None:
            from ..bench.iwls import iwls_benchmark
            from ..netlist.compiled import compile_circuit

            instance = iwls_benchmark(benchmark, seed=seed)
            # Compile before pickling: the compiled IR rides along in
            # the cache entry, so other pool workers skip recompilation.
            compile_circuit(instance.circuit)
            cache.put_object(disk_key, instance)
        if len(_INSTANCE_MEMO) >= 8:
            _INSTANCE_MEMO.clear()
        _INSTANCE_MEMO[memo_key] = instance
    return instance


def _netlist_text(circuit) -> str:
    # Structural Verilog: unlike .bench it can express every cell a
    # locking flow inserts (KEYGEN MUX4s, camouflaged LUTs, ...).
    from ..netlist.verilog_io import write_verilog

    buffer = StringIO()
    write_verilog(circuit, buffer)
    return buffer.getvalue()


def _summary(artifact: Mapping[str, Any]) -> Dict[str, Any]:
    """The part of a cached artifact that travels home to the parent
    (everything except bulky netlist text, which stays on disk)."""
    return {k: v for k, v in artifact.items() if k != "netlist"}


@register_kind("table1")
def _run_table1(params: Dict[str, Any], cache: NetlistCache) -> Dict[str, Any]:
    from ..reporting.tables import table1_row

    name, seed = params["benchmark"], int(params["seed"])
    key = cache.key(kind="table1", benchmark=name, seed=seed)

    def compute() -> Dict[str, Any]:
        row = table1_row(name, instance=_instance(name, seed, cache))
        return {"row": asdict(row)}

    return cache.get_or_compute(key, compute)


@register_kind("table2")
def _run_table2(params: Dict[str, Any], cache: NetlistCache) -> Dict[str, Any]:
    from ..reporting.tables import lock_table2_config

    name = params["benchmark"]
    config = params["config"]
    seed = int(params["seed"])
    run_pnr = bool(params.get("run_pnr", False))
    key = cache.key(kind="table2", benchmark=name, config=config,
                    seed=seed, run_pnr=run_pnr)

    def compute() -> Dict[str, Any]:
        from ..netlist.stats import overhead

        instance = _instance(name, seed, cache)
        locked = lock_table2_config(
            instance.circuit, instance.clock, config, seed=seed,
            run_pnr=run_pnr,
        )
        if locked is None:  # the paper's "-": the configuration won't fit
            return {"benchmark": name, "config": config, "overhead": None,
                    "key": None, "netlist": None}
        oh = overhead(instance.circuit, locked.circuit)
        return {
            "benchmark": name,
            "config": config,
            "overhead": [oh.cell_percent, oh.area_percent],
            "key": locked.key,
            "netlist": _netlist_text(locked.circuit),
        }

    return _summary(cache.get_or_compute(key, compute))


@register_kind("lock")
def _run_lock(params: Dict[str, Any], cache: NetlistCache) -> Dict[str, Any]:
    from ..core.flow import build_scheme
    from ..netlist.stats import overhead

    name = params["benchmark"]
    scheme = params["scheme"]
    key_bits = int(params["key_bits"])
    seed = int(params["seed"])
    key = cache.key(kind="lock", benchmark=name, scheme=scheme,
                    key_bits=key_bits, seed=seed)

    def compute() -> Dict[str, Any]:
        import random

        instance = _instance(name, 2019, cache)
        locked = build_scheme(scheme, instance.clock).lock(
            instance.circuit, key_bits, random.Random(seed)
        )
        oh = overhead(instance.circuit, locked.circuit)
        return {
            "benchmark": name,
            "scheme": scheme,
            "key_bits": key_bits,
            "overhead": [oh.cell_percent, oh.area_percent],
            "key": locked.key,
            "netlist": _netlist_text(locked.circuit),
        }

    return _summary(cache.get_or_compute(key, compute))


@register_kind("attack")
def _run_attack(params: Dict[str, Any], cache: NetlistCache) -> Dict[str, Any]:
    from ..attacks.oracle import CombinationalOracle
    from ..attacks.sat_attack import sat_attack, verify_key_against_oracle
    from ..core.flow import build_scheme, expose_gk_keys

    name = params["benchmark"]
    scheme = params["scheme"]
    attack = params.get("attack", "sat")
    key_bits = int(params["key_bits"])
    seed = int(params["seed"])
    max_iterations = int(params.get("max_iterations", 128))
    warm_start = bool(params.get("warm_start", False))
    # Cold cells keep their historical cache identity; a warm-started
    # cell depends on the pools earlier cells left in the cache.
    extra_key = {"warm_start": True} if warm_start else {}
    key = cache.key(kind="attack", benchmark=name, scheme=scheme,
                    attack=attack, key_bits=key_bits, seed=seed,
                    max_iterations=max_iterations, **extra_key)

    def compute() -> Dict[str, Any]:
        import random

        instance = _instance(name, 2019, cache)
        locked = build_scheme(scheme, instance.clock).lock(
            instance.circuit, key_bits, random.Random(seed)
        )
        base = {"benchmark": name, "scheme": scheme, "attack": attack,
                "key_bits": key_bits}
        if attack == "removal":
            from ..attacks.removal import removal_attack

            result = removal_attack(
                locked, samples=300, rng=random.Random(seed + 1)
            )
            base.update(success=result.success)
            return base
        if attack != "sat":
            # Every other family dispatches through the attack
            # registry; the payload carries the normalized outcome.
            from ..attacks.registry import (
                AttackContext, attack_names, run_attack,
            )

            if attack not in attack_names():
                raise ValueError(
                    f"unknown attack {attack!r}; choose from "
                    f"{', '.join(attack_names())}"
                )
            outcome = run_attack(attack, AttackContext(
                locked=locked, clock=instance.clock, seed=seed,
                params=dict(params), cache=cache,
            ))
            base.update(
                success=outcome.success,
                completed=outcome.completed,
                key_correct=outcome.key_correct,
                oracle_queries=outcome.oracle_queries,
                outcome=outcome.to_dict(),
            )
            return base
        # The paper's Sec. VI preprocessing: GK-style schemes are
        # attacked through their exposed Boolean key view.
        target = (
            expose_gk_keys(locked)
            if "gks" in locked.metadata
            else locked.circuit
        )
        # params["oracle"] = "host:port" routes the DIP loop through a
        # served oracle pool (e.g. `repro serve --workers N`) instead
        # of an in-process one.  The cache key deliberately excludes
        # the address: the differential suite pins served answers as
        # bit-identical to local ones, so both runs share one cell.
        oracle_address = params.get("oracle")
        if oracle_address:
            from ..serve import RemoteOracle, ServeError

            try:
                oracle = RemoteOracle(oracle_address,
                                      circuit=instance.circuit)
            except (OSError, ServeError) as exc:
                raise TransientJobError(
                    f"oracle {oracle_address}: {exc}"
                ) from exc
        else:
            oracle = CombinationalOracle(instance.circuit)
        warm = nullcontext()
        if warm_start and cache.enabled:
            from ..attacks.warm_start import warm_solver

            warm = warm_solver(cache, target, "sat", oracle)
        try:
            with warm as solver:
                result = sat_attack(
                    target, oracle, max_iterations=max_iterations,
                    solver=solver,
                )
            accuracy = None
            if result.key is not None:
                accuracy = verify_key_against_oracle(
                    target, oracle, result.key, samples=32
                )
        except Exception as exc:
            # A dead pool is infrastructure, not a wrong answer.
            if oracle_address and (getattr(exc, "retryable", False)
                                   or isinstance(exc, OSError)):
                raise TransientJobError(
                    f"oracle {oracle_address}: {exc}"
                ) from exc
            raise
        finally:
            if oracle_address:
                oracle.close()
        base.update(
            completed=result.completed,
            iterations=result.iterations,
            unsat_at_first_iteration=result.unsat_at_first_iteration,
            oracle_queries=result.oracle_queries,
            accuracy=accuracy,
        )
        return base

    return cache.get_or_compute(key, compute)


# ----------------------------------------------------------------------
# Execution wrapper
# ----------------------------------------------------------------------

def execute_job(
    spec: Mapping[str, Any],
    cache: Optional[NetlistCache] = None,
    timeout: Optional[float] = None,
    trace_ctx: Optional[Mapping[str, Any]] = None,
) -> Dict[str, Any]:
    """Run one job; always returns a record, never raises.

    The record carries the job outcome (``status`` one of ``ok`` /
    ``error`` / ``timeout``), the payload, the worker's span/metric
    snapshot (``obs``), and the cache hit/miss delta for this job.

    *trace_ctx* is the runner's wire-form trace context.  The job span
    records it, so when the record's ``obs`` payload is adopted back
    into the runner's session the job tree attaches under the
    submitting ``campaign.run`` span — one campaign, one span tree,
    even across pool processes.  It travels as a separate argument,
    never inside the spec: job IDs and cache keys hash the params, and
    a trace ID would perturb both.
    """
    from .. import obs
    from ..obs.propagate import TraceContext, remote_span
    from ..obs.snapshots import capture_payload

    job = spec if isinstance(spec, JobSpec) else JobSpec.from_dict(spec)
    cache = cache if cache is not None else NetlistCache(None)
    handler = _KINDS.get(job.kind)
    hits0, misses0 = cache.hits, cache.misses

    record: Dict[str, Any] = {
        "type": "result",
        "job_id": job.job_id,
        "kind": job.kind,
        "params": job.param_dict,
        "status": "ok",
        "payload": None,
        "error": None,
        "transient": False,
    }
    start = time.perf_counter()
    with obs.capture() as sink:
        ctx = TraceContext.from_wire(trace_ctx)
        with remote_span("campaign.job", ctx, job_id=job.job_id,
                         kind=job.kind):
            try:
                if handler is None:
                    raise ValueError(f"unknown job kind {job.kind!r}")
                with _deadline(timeout):
                    record["payload"] = handler(job.param_dict, cache)
            except JobTimeout as exc:
                record["status"] = "timeout"
                record["error"] = str(exc)
            except TransientJobError as exc:
                record["status"] = "error"
                record["error"] = str(exc)
                record["transient"] = True
            except Exception as exc:  # deterministic failure of one cell
                record["status"] = "error"
                record["error"] = f"{type(exc).__name__}: {exc}"
                record["traceback"] = traceback.format_exc(limit=20)
    record["duration"] = time.perf_counter() - start
    record["obs"] = capture_payload(sink)
    record["cache"] = {"hits": cache.hits - hits0,
                       "misses": cache.misses - misses0}
    return record


# ----------------------------------------------------------------------
# Pool plumbing (must be top-level: pickled by ProcessPoolExecutor)
# ----------------------------------------------------------------------

#: per-worker-process state, set by :func:`init_worker`
_WORKER_CACHE: Optional[NetlistCache] = None


def init_worker(cache_dir: Optional[str], worker_modules: Iterable[str]) -> None:
    global _WORKER_CACHE
    _WORKER_CACHE = NetlistCache(cache_dir)
    load_worker_modules(worker_modules)


def pool_execute(spec_dict: Dict[str, Any],
                 timeout: Optional[float],
                 trace_ctx: Optional[Dict[str, Any]] = None,
                 ) -> Dict[str, Any]:
    cache = _WORKER_CACHE if _WORKER_CACHE is not None else NetlistCache(None)
    return execute_job(spec_dict, cache=cache, timeout=timeout,
                       trace_ctx=trace_ctx)
