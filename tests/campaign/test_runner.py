"""The scheduler end to end: retries, timeouts, crash isolation, resume.

Everything here runs on stub job kinds (see ``stubs.py``) loaded through
``worker_modules`` — which also exercises that extension path across
real pool workers.
"""

import json
import os

import pytest

from repro.campaign import (
    CampaignConfig,
    CampaignMatrix,
    JobSpec,
    ResultStore,
    run_campaign,
)

STUBS = os.path.join(os.path.dirname(__file__), "stubs.py")


def _config(**overrides):
    base = dict(jobs=1, retries=2, backoff=0.01, worker_modules=(STUBS,))
    base.update(overrides)
    return CampaignConfig(**base)


def _echo_jobs(n):
    return [JobSpec.make("echo", value=i) for i in range(n)]


# ----------------------------------------------------------------------
# Serial path
# ----------------------------------------------------------------------

def test_serial_campaign_runs_in_matrix_order():
    matrix = CampaignMatrix("echo", {"value": [3, 1, 2]})
    result = run_campaign(matrix, _config())
    assert result.ok
    assert [r["payload"]["echo"]["value"] for r in result.ordered()] == [3, 1, 2]
    assert result.status_counts == {"ok": 3}


def test_retry_then_succeed_records_attempts(tmp_path):
    state = tmp_path / "attempts"
    jobs = [JobSpec.make("flaky", state=str(state), succeed_after=3)]
    result = run_campaign(jobs, _config(retries=3))
    record = result.ordered()[0]
    assert record["status"] == "ok"
    assert record["attempts"] == 3
    assert record["payload"] == {"attempts": 3}


def test_retries_exhausted_leaves_transient_error(tmp_path):
    state = tmp_path / "attempts"
    jobs = [JobSpec.make("flaky", state=str(state), succeed_after=10)]
    result = run_campaign(jobs, _config(retries=1))
    record = result.ordered()[0]
    assert record["status"] == "error"
    assert record["transient"] is True
    assert record["attempts"] == 2  # first try + one retry


def test_deterministic_error_is_not_retried(tmp_path):
    state = tmp_path / "attempts"
    jobs = [JobSpec.make("boom"),
            JobSpec.make("flaky", state=str(state), succeed_after=1)]
    result = run_campaign(jobs, _config(retries=5))
    boom, flaky = result.ordered()
    assert boom["status"] == "error" and boom["attempts"] == 1
    assert flaky["status"] == "ok"


# ----------------------------------------------------------------------
# Pool path
# ----------------------------------------------------------------------

def test_timeout_fails_only_its_cell():
    jobs = [JobSpec.make("sleepy", seconds=30)] + _echo_jobs(3)
    result = run_campaign(jobs, _config(jobs=2, timeout=0.3))
    records = result.ordered()
    assert records[0]["status"] == "timeout"
    assert [r["status"] for r in records[1:]] == ["ok"] * 3
    assert result.status_counts == {"timeout": 1, "ok": 3}


def test_worker_crash_is_isolated():
    """A dying worker breaks the executor; the runner must rebuild it,
    fail only the crashing cell, and still finish every other job."""
    jobs = _echo_jobs(2) + [JobSpec.make("crashy")] + _echo_jobs(4)[2:]
    result = run_campaign(jobs, _config(jobs=2, retries=1))
    by_kind = {r["kind"]: r for r in result.ordered()}
    assert by_kind["crashy"]["status"] == "crashed"
    assert by_kind["crashy"]["attempts"] == 2
    echoes = [r for r in result.ordered() if r["kind"] == "echo"]
    assert len(echoes) == 4
    assert all(r["status"] == "ok" for r in echoes)


def test_innocent_bystanders_are_never_charged():
    """With retries=0 a single wrongly-charged attempt would fail an
    innocent job for good; the quarantine protocol (suspects rerun one
    at a time until a solo pool break names the culprit) must protect
    every bystander regardless of scheduling."""
    jobs = [JobSpec.make("crashy")] + _echo_jobs(3)
    result = run_campaign(jobs, _config(jobs=2, retries=0))
    records = result.ordered()
    assert records[0]["status"] == "crashed"
    for record in records[1:]:
        assert record["status"] == "ok"
        assert record["attempts"] == 1


def test_pool_broken_at_submit_is_rebuilt(monkeypatch):
    """``executor.submit`` raises BrokenProcessPool when a worker died
    since the last wait.  That is a pool break like a broken future:
    the job that was not submitted goes back uncharged and the pool is
    rebuilt, so with retries=0 every job still finishes on its first
    attempt."""
    from concurrent.futures import ProcessPoolExecutor
    from concurrent.futures.process import BrokenProcessPool

    import repro.campaign.runner as runner

    pools = []

    class BreaksAtFirstSubmit(ProcessPoolExecutor):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            pools.append(self)

        def submit(self, *args, **kwargs):
            if len(pools) == 1:
                raise BrokenProcessPool("a worker died")
            return super().submit(*args, **kwargs)

    monkeypatch.setattr(runner, "ProcessPoolExecutor", BreaksAtFirstSubmit)
    result = run_campaign(_echo_jobs(4), _config(jobs=2, retries=0))
    assert result.status_counts == {"ok": 4}
    assert [r["attempts"] for r in result.ordered()] == [1] * 4
    assert len(pools) == 2


def test_serial_and_pool_agree():
    jobs = [JobSpec.make("echo", value=i) for i in range(6)]
    serial = run_campaign(jobs, _config(jobs=1))
    pooled = run_campaign(jobs, _config(jobs=3))
    assert serial.ok and pooled.ok
    assert [r["payload"] for r in serial.ordered()] == \
        [r["payload"] for r in pooled.ordered()]


# ----------------------------------------------------------------------
# Store + resume
# ----------------------------------------------------------------------

def test_every_outcome_lands_in_the_store(tmp_path):
    store = tmp_path / "run.jsonl"
    jobs = _echo_jobs(2) + [JobSpec.make("boom")]
    result = run_campaign(jobs, _config(store_path=str(store)))
    assert result.status_counts == {"ok": 2, "error": 1}
    stored = ResultStore(str(store)).load()
    assert len(stored) == 3
    statuses = sorted(r["status"] for r in stored.values())
    assert statuses == ["error", "ok", "ok"]


def test_resume_skips_completed_jobs(tmp_path):
    """A rerun over a partial store recomputes only the missing cells
    and replays the finished ones."""
    store = tmp_path / "run.jsonl"
    jobs = _echo_jobs(4)
    # Simulate a campaign killed halfway: two finished cells + a torn
    # tail from the write that was in flight.
    with ResultStore(str(store)) as partial:
        for spec in jobs[:2]:
            partial.append(
                {"type": "result", "job_id": spec.job_id, "kind": "echo",
                 "params": spec.param_dict, "status": "ok",
                 "payload": {"echo": spec.param_dict}}
            )
    with open(store, "a") as stream:
        stream.write('{"type": "result", "job_id": "torn')

    result = run_campaign(
        jobs, _config(store_path=str(store), resume=True)
    )
    assert result.ok
    assert result.resumed == 2
    records = result.ordered()
    assert [r.get("resumed", False) for r in records] == \
        [True, True, False, False]
    # The store now completes the set: all four ids present and ok.
    stored = ResultStore(str(store))
    assert len(stored.completed_ids()) == 4


def test_resume_reruns_failed_cells(tmp_path):
    store = tmp_path / "run.jsonl"
    spec = _echo_jobs(1)[0]
    with ResultStore(str(store)) as partial:
        partial.append({"type": "result", "job_id": spec.job_id,
                        "kind": "echo", "params": spec.param_dict,
                        "status": "timeout", "payload": None})
    result = run_campaign([spec], _config(store_path=str(store), resume=True))
    record = result.ordered()[0]
    assert record["status"] == "ok"
    assert record.get("resumed", False) is False
    assert result.resumed == 0


def test_without_resume_the_store_is_truncated(tmp_path):
    store = tmp_path / "run.jsonl"
    store.write_text(json.dumps({"job_id": "stale", "status": "ok"}) + "\n")
    result = run_campaign(_echo_jobs(1), _config(store_path=str(store)))
    assert result.ok
    stored = ResultStore(str(store)).load()
    assert "stale" not in stored
    assert len(stored) == 1


def test_duplicate_specs_run_once():
    spec = JobSpec.make("echo", value=1)
    result = run_campaign([spec, spec], _config())
    assert len(result.records) == 1
    # ordered() still mirrors the requested list, duplicates included.
    assert len(result.ordered()) == 2


def test_progress_callback_sees_every_final_record():
    seen = []
    result = run_campaign(_echo_jobs(3), _config(), progress=seen.append)
    assert sorted(r["job_id"] for r in seen) == \
        sorted(r["job_id"] for r in result.ordered())
