"""The campaign scheduler.

Fans a job list out over a ``ProcessPoolExecutor`` (at most one
in-flight job per worker, so the blast radius of a dying worker is
bounded and known), enforces retry policy, and streams every outcome
into the JSONL result store as it lands.

Failure taxonomy:

* ``error`` + ``transient`` — the handler raised
  :class:`~repro.campaign.worker.TransientJobError`; retried with
  exponential backoff up to ``retries`` extra attempts.
* ``error`` (deterministic) — recorded once, never retried: rerunning
  a pure function on the same inputs cannot change the answer.
* ``timeout`` — the worker's SIGALRM deadline fired; recorded, not
  retried (a deterministic job that timed out once will time out
  again).  Only that matrix cell fails.
* ``crashed`` — the worker process died (segfault, OOM-kill,
  ``os._exit``).  ``ProcessPoolExecutor`` breaks the whole pool (a
  future or the next ``submit`` raises ``BrokenProcessPool``), so the
  runner rebuilds it and quarantines every job that was in flight:
  suspects rerun one at a time (uncharged), so the next pool break
  names its culprit with certainty — only the true crasher is charged
  attempts, and innocent bystanders always complete unharmed.
* a *hung* worker (deadline unenforceable or blocked in C code) is
  detected by the parent after ``timeout + hang_grace`` seconds; the
  pool is torn down, the overdue job is charged a timeout, and the
  rest are resubmitted without penalty.

With ``resume=True`` every job whose latest stored record is ``ok`` is
skipped and its payload replayed from the store, so a rerun only
computes missing or failed cells.
"""

from __future__ import annotations

import os
import time
from collections import Counter
from concurrent.futures import FIRST_COMPLETED, ProcessPoolExecutor, wait
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple, Union

from .cache import NetlistCache
from .matrix import CampaignMatrix, JobSpec
from .store import ResultStore
from .worker import execute_job, init_worker, load_worker_modules, pool_execute

__all__ = ["CampaignConfig", "CampaignResult", "run_campaign"]

Progress = Callable[[Dict[str, Any]], None]


@dataclass
class CampaignConfig:
    """Knobs of one campaign run."""

    jobs: int = 0                      #: worker count; 0 = auto
    timeout: Optional[float] = None    #: per-job wall-clock seconds
    retries: int = 2                   #: extra attempts for transient failures
    backoff: float = 0.25              #: base backoff seconds (doubles per attempt)
    cache_dir: Optional[str] = None    #: netlist cache root; None disables
    store_path: Optional[str] = None   #: JSONL result store; None disables
    resume: bool = False               #: skip jobs already ok in the store
    worker_modules: Tuple[str, ...] = ()  #: extra kind-registration modules
    hang_grace: float = 5.0            #: parent-side slack past `timeout`
    mp_start_method: Optional[str] = None

    def resolve_jobs(self, num_jobs: int) -> int:
        if self.jobs > 0:
            return max(1, min(self.jobs, max(1, num_jobs)))
        return max(1, min(os.cpu_count() or 1, max(1, num_jobs)))


@dataclass
class CampaignResult:
    """Everything a finished campaign knows, in matrix order."""

    jobs: List[JobSpec]
    records: Dict[str, Dict[str, Any]]
    wall_seconds: float = 0.0
    workers: int = 1
    resumed: int = 0

    def ordered(self) -> List[Dict[str, Any]]:
        return [self.records[spec.job_id] for spec in self.jobs]

    def payloads(self) -> List[Optional[Dict[str, Any]]]:
        return [record.get("payload") for record in self.ordered()]

    @property
    def status_counts(self) -> Dict[str, int]:
        return dict(Counter(r["status"] for r in self.ordered()))

    @property
    def ok(self) -> bool:
        return all(r["status"] == "ok" for r in self.ordered())

    def failed(self) -> List[Dict[str, Any]]:
        return [r for r in self.ordered() if r["status"] != "ok"]

    def cache_stats(self) -> Dict[str, int]:
        hits = sum(r.get("cache", {}).get("hits", 0) for r in self.ordered())
        misses = sum(r.get("cache", {}).get("misses", 0) for r in self.ordered())
        return {"hits": hits, "misses": misses}


# ----------------------------------------------------------------------

@dataclass
class _Attempt:
    spec: JobSpec
    attempt: int = 1
    ready_at: float = 0.0


def run_campaign(
    matrix: Union[CampaignMatrix, Sequence[JobSpec]],
    config: Optional[CampaignConfig] = None,
    progress: Optional[Progress] = None,
) -> CampaignResult:
    """Run every cell of *matrix*; returns records in matrix order.

    *progress*, when given, is called with each finalized record as it
    lands (completion order, not matrix order).
    """
    config = config or CampaignConfig()
    jobs = list(matrix.expand() if isinstance(matrix, CampaignMatrix) else matrix)
    workers = config.resolve_jobs(len(jobs))

    store = ResultStore(config.store_path) if config.store_path else None
    resumed_records: Dict[str, Dict[str, Any]] = {}
    if store is not None:
        if config.resume:
            resumed_records = {
                job_id: record
                for job_id, record in store.load().items()
                if record.get("status") == "ok"
            }
        else:
            store.truncate()

    result = CampaignResult(jobs=jobs, records={}, workers=workers)
    todo: List[JobSpec] = []
    seen: set = set()
    for spec in jobs:
        if spec.job_id in seen:
            continue
        seen.add(spec.job_id)
        if spec.job_id in resumed_records:
            record = dict(resumed_records[spec.job_id])
            record["resumed"] = True
            result.records[spec.job_id] = record
            result.resumed += 1
        else:
            todo.append(spec)

    def finalize(record: Dict[str, Any], attempt: int) -> None:
        record["attempts"] = attempt
        record["workers"] = workers
        result.records[record["job_id"]] = record
        if store is not None:
            store.append(record)
        _adopt_obs(record)
        if progress is not None:
            progress(record)

    start = time.perf_counter()
    try:
        if todo:
            # One span for the whole run; its exported context travels
            # to every job (as a separate argument — never inside the
            # spec, which would perturb job IDs), so adopted job trees
            # stitch under it: one campaign, one span tree.
            from ..obs.propagate import current_context
            from ..obs.spans import trace_span

            with trace_span("campaign.run", jobs=len(todo),
                            workers=workers):
                ctx = current_context()
                trace_ctx = None if ctx is None else ctx.to_wire()
                if workers == 1:
                    _run_serial(todo, config, finalize, trace_ctx)
                else:
                    _run_pool(todo, config, workers, finalize, trace_ctx)
    finally:
        if store is not None:
            store.close()
    result.wall_seconds = time.perf_counter() - start
    return result


def _adopt_obs(record: Dict[str, Any]) -> None:
    """Merge a job's span/metric snapshot into the parent's session (if
    observability is enabled), so ``--profile`` sees across the pool."""
    from ..obs import context as _obs
    from ..obs.snapshots import adopt_payload

    session = _obs.ACTIVE
    payload = record.get("obs")
    if session is not None and payload:
        adopt_payload(session, payload)


def _retryable(record: Dict[str, Any]) -> bool:
    return record["status"] == "error" and bool(record.get("transient"))


def _backoff_seconds(config: CampaignConfig, attempt: int) -> float:
    return config.backoff * (2.0 ** (attempt - 1))


# ----------------------------------------------------------------------
# Serial path (jobs=1): same worker code, no pool.
# ----------------------------------------------------------------------

def _run_serial(
    todo: Sequence[JobSpec],
    config: CampaignConfig,
    finalize: Callable[[Dict[str, Any], int], None],
    trace_ctx: Optional[Dict[str, Any]] = None,
) -> None:
    load_worker_modules(config.worker_modules)
    cache = NetlistCache(config.cache_dir)
    for spec in todo:
        attempt = 1
        while True:
            record = execute_job(spec, cache=cache, timeout=config.timeout,
                                 trace_ctx=trace_ctx)
            if _retryable(record) and attempt <= config.retries:
                time.sleep(_backoff_seconds(config, attempt))
                attempt += 1
                continue
            finalize(record, attempt)
            break


# ----------------------------------------------------------------------
# Pool path
# ----------------------------------------------------------------------

def _teardown(executor: ProcessPoolExecutor, kill: bool) -> None:
    """Shut an executor down for good, joining its management thread.

    With *kill*, worker processes are terminated first so the join can
    never block on a hung job; idle workers just exit early.  Joining
    (``wait=True``) matters: a fire-and-forget shutdown leaves the
    management thread racing the interpreter's atexit hooks, which
    surfaces as an ignored ``OSError`` traceback at exit.
    """
    if kill:
        for process in list((getattr(executor, "_processes", None) or {}).values()):
            try:
                process.terminate()
            except Exception:
                pass
    try:
        executor.shutdown(wait=True, cancel_futures=True)
    except Exception:
        pass


def _run_pool(
    todo: Sequence[JobSpec],
    config: CampaignConfig,
    workers: int,
    finalize: Callable[[Dict[str, Any], int], None],
    trace_ctx: Optional[Dict[str, Any]] = None,
) -> None:
    import multiprocessing

    mp_context = (
        multiprocessing.get_context(config.mp_start_method)
        if config.mp_start_method
        else None
    )

    def make_executor() -> ProcessPoolExecutor:
        return ProcessPoolExecutor(
            max_workers=workers,
            mp_context=mp_context,
            initializer=init_worker,
            initargs=(config.cache_dir, tuple(config.worker_modules)),
        )

    executor = make_executor()
    pending: List[_Attempt] = [_Attempt(spec) for spec in todo]
    inflight: Dict[Any, Tuple[_Attempt, float]] = {}
    #: job ids suspected of killing a worker.  Suspects run one at a
    #: time: a pool that breaks with exactly one job in flight names
    #: its culprit with certainty, so innocent bystanders of a group
    #: crash are never charged an attempt.
    quarantine: set = set()

    def crash_record(attempt: _Attempt, message: str) -> Dict[str, Any]:
        return {
            "type": "result",
            "job_id": attempt.spec.job_id,
            "kind": attempt.spec.kind,
            "params": attempt.spec.param_dict,
            "status": "crashed",
            "payload": None,
            "error": message,
            "transient": True,
            "duration": None,
            "obs": None,
            "cache": {"hits": 0, "misses": 0},
        }

    def charge_and_requeue(attempt: _Attempt, record: Dict[str, Any]) -> None:
        """Count one failed attempt; requeue with backoff or finalize."""
        if attempt.attempt <= config.retries:
            pending.append(
                _Attempt(
                    attempt.spec,
                    attempt.attempt + 1,
                    time.monotonic()
                    + _backoff_seconds(config, attempt.attempt),
                )
            )
        else:
            finalize(record, attempt.attempt)

    def rebuild_pool(kill: bool) -> None:
        nonlocal executor
        _teardown(executor, kill=kill)
        executor = make_executor()

    def handle_pool_break(broken: List[_Attempt]) -> None:
        """A worker died.  If the culprit is unambiguous (one job in
        flight), charge it; otherwise quarantine every suspect and
        requeue them free of charge — they rerun one at a time, so the
        next crash is attributable."""
        broken = broken + [attempt for attempt, _started in inflight.values()]
        inflight.clear()
        rebuild_pool(kill=False)
        if len(broken) == 1:
            attempt = broken[0]
            quarantine.add(attempt.spec.job_id)
            charge_and_requeue(
                attempt, crash_record(attempt, "worker process died")
            )
        else:
            for attempt in broken:
                quarantine.add(attempt.spec.job_id)
                pending.append(_Attempt(attempt.spec, attempt.attempt))

    try:
        while pending or inflight:
            now = time.monotonic()

            # Submit: at most one in-flight job per worker, so every
            # submitted future is actually running (hang detection and
            # crash attribution both rely on that).  While any crash
            # suspect is pending, suspects run strictly alone — nothing
            # else is submitted until they are resolved.
            def submit(index: int) -> bool:
                """Move ``pending[index]`` in flight; False if the pool
                broke since the last wait (``submit`` raises then): the
                job stays pending, uncharged, and the pool is rebuilt."""
                attempt = pending[index]
                try:
                    future = executor.submit(
                        pool_execute, attempt.spec.to_dict(),
                        config.timeout, trace_ctx,
                    )
                except BrokenProcessPool:
                    handle_pool_break([])
                    return False
                del pending[index]
                inflight[future] = (attempt, time.monotonic())
                return True

            suspects_pending = any(
                a.spec.job_id in quarantine for a in pending
            )
            if suspects_pending:
                if not inflight:
                    ready = next(
                        (i for i, a in enumerate(pending)
                         if a.spec.job_id in quarantine
                         and a.ready_at <= now),
                        None,
                    )
                    if ready is not None:
                        submit(ready)
            else:
                ready_index = next(
                    (i for i, a in enumerate(pending) if a.ready_at <= now),
                    None,
                )
                while len(inflight) < workers and ready_index is not None:
                    if not submit(ready_index):
                        break
                    now = time.monotonic()
                    ready_index = next(
                        (i for i, a in enumerate(pending)
                         if a.ready_at <= now),
                        None,
                    )

            if not inflight:
                # Everything is backing off (or gated behind a crash
                # suspect): sleep until the first eligible job is due.
                gate = [
                    a for a in pending if a.spec.job_id in quarantine
                ] or pending
                due = min(a.ready_at for a in gate)
                time.sleep(max(0.0, min(due - time.monotonic(), 0.5)))
                continue

            done, _ = wait(
                set(inflight), timeout=0.1, return_when=FIRST_COMPLETED
            )

            broken_attempts: List[_Attempt] = []
            for future in done:
                attempt, _started = inflight.pop(future)
                error = future.exception()
                if error is None:
                    # The job ran to completion without killing its
                    # worker, whatever the record says: not a crasher.
                    quarantine.discard(attempt.spec.job_id)
                    record = future.result()
                    if _retryable(record) and attempt.attempt <= config.retries:
                        pending.append(
                            _Attempt(
                                attempt.spec,
                                attempt.attempt + 1,
                                time.monotonic()
                                + _backoff_seconds(config, attempt.attempt),
                            )
                        )
                    else:
                        finalize(record, attempt.attempt)
                elif isinstance(error, BrokenProcessPool):
                    broken_attempts.append(attempt)
                else:
                    charge_and_requeue(
                        attempt,
                        crash_record(
                            attempt,
                            f"{type(error).__name__}: {error}",
                        ),
                    )
            if broken_attempts:
                handle_pool_break(broken_attempts)
                continue

            # Hang backstop: a worker past deadline + grace is presumed
            # stuck in uninterruptible code; kill the pool, charge the
            # overdue job(s) a timeout, resubmit the rest free of charge.
            if config.timeout is not None and inflight:
                now = time.monotonic()
                limit = config.timeout + config.hang_grace
                overdue = [
                    future
                    for future, (_a, started) in inflight.items()
                    if now - started > limit
                ]
                if overdue:
                    survivors = [
                        attempt
                        for future, (attempt, _s) in inflight.items()
                        if future not in overdue
                    ]
                    hung = [inflight[future][0] for future in overdue]
                    inflight.clear()
                    rebuild_pool(kill=True)
                    for attempt in hung:
                        record = crash_record(
                            attempt,
                            f"worker hung past {limit:.1f}s; killed",
                        )
                        record["status"] = "timeout"
                        record["transient"] = False
                        finalize(record, attempt.attempt)
                    pending.extend(
                        _Attempt(a.spec, a.attempt) for a in survivors
                    )
    finally:
        # Kill-then-join: an exception may have escaped with a worker
        # still running (or hung), and a non-blocking shutdown leaves
        # the executor's management thread racing the interpreter's
        # atexit hooks.
        _teardown(executor, kill=True)
