"""execute_job: the failure taxonomy, deadlines, and the record shape."""

import os

import pytest

from repro.campaign import JobSpec, NetlistCache, execute_job
from repro.campaign.worker import load_worker_modules

STUBS = os.path.join(os.path.dirname(__file__), "stubs.py")


@pytest.fixture(autouse=True, scope="module")
def _stub_kinds():
    load_worker_modules([STUBS])


def test_ok_record_shape():
    record = execute_job(JobSpec.make("echo", value=7))
    assert record["status"] == "ok"
    assert record["payload"] == {"echo": {"value": 7}}
    assert record["error"] is None
    assert record["transient"] is False
    assert record["duration"] >= 0.0
    assert record["kind"] == "echo"
    assert record["params"] == {"value": 7}
    # The obs snapshot always carries the campaign.job root span.
    spans = record["obs"]["spans"]
    assert [span["name"] for span in spans] == ["campaign.job"]
    assert record["cache"] == {"hits": 0, "misses": 0}


def test_unknown_kind_is_a_deterministic_error():
    record = execute_job(JobSpec.make("no-such-kind"))
    assert record["status"] == "error"
    assert record["transient"] is False
    assert "unknown job kind" in record["error"]


def test_transient_error_is_flagged_retryable(tmp_path):
    state = tmp_path / "attempts"
    record = execute_job(
        JobSpec.make("flaky", state=str(state), succeed_after=3)
    )
    assert record["status"] == "error"
    assert record["transient"] is True


def test_deterministic_exception_keeps_traceback():
    record = execute_job(JobSpec.make("boom"))
    assert record["status"] == "error"
    assert record["transient"] is False
    assert "ValueError: deterministic failure" in record["error"]
    assert "in _boom" in record["traceback"]


def test_deadline_interrupts_cpu_bound_work():
    record = execute_job(JobSpec.make("sleepy", seconds=30), timeout=0.2)
    assert record["status"] == "timeout"
    assert record["duration"] < 5.0
    assert "deadline" in record["error"]


def test_no_timeout_means_no_deadline():
    record = execute_job(JobSpec.make("sleepy", seconds=0.05), timeout=None)
    assert record["status"] == "ok"
    assert record["payload"] == {"slept": 0.05}


def test_dict_spec_is_accepted():
    spec = JobSpec.make("echo", value=1)
    record = execute_job(spec.to_dict())
    assert record["job_id"] == spec.job_id
    assert record["status"] == "ok"


def test_cache_delta_is_per_job(tmp_path):
    cache = NetlistCache(str(tmp_path))
    key = cache.key(kind="warm")
    cache.put(key, {"warm": True})
    cache.get(key)  # pre-existing traffic must not leak into the job
    record = execute_job(JobSpec.make("echo"), cache=cache)
    assert record["cache"] == {"hits": 0, "misses": 0}


class TestServedOracleHook:
    """``params["oracle"]`` routes the attack kind's DIP loop through
    a served oracle instead of an in-process oracle."""

    def test_attack_through_shard_pool_matches_local(self):
        from repro.serve import OracleServer, ThreadedServer

        spec = dict(benchmark="s1238", scheme="xor", key_bits=2, seed=5)
        local = execute_job(JobSpec.make("attack", **spec))
        assert local["status"] == "ok", local["error"]

        server = OracleServer()
        with ThreadedServer(server) as (host, port):
            served = execute_job(JobSpec.make(
                "attack", oracle=f"{host}:{port}", **spec
            ))
        assert served["status"] == "ok", served["error"]
        # The differential guarantee, observed end to end: identical
        # cell payload whichever oracle transport answered the DIPs.
        assert served["payload"] == local["payload"]
        assert server.requests > 0  # the queries really went remote

    def test_dead_pool_is_transient_not_a_wrong_answer(self):
        record = execute_job(JobSpec.make(
            "attack", benchmark="s1238", scheme="xor", key_bits=2,
            seed=5, oracle="127.0.0.1:1",
        ))
        assert record["status"] == "error"
        assert record["transient"] is True
        assert "oracle 127.0.0.1:1" in record["error"]


class TestCacheOnlyArtifacts:
    """Netlist text and the instance's compiled IR exist for the cache:
    they are built only when a cache will store them."""

    SPEC = JobSpec.make("lock", benchmark="s1238", scheme="xor",
                        key_bits=4, seed=1)

    def test_nothing_rendered_or_compiled_without_a_cache(self, monkeypatch):
        import repro.netlist.verilog_io as verilog_io
        from repro.campaign import worker

        def refuse(*_args, **_kwargs):
            raise AssertionError("rendered netlist text for no cache")

        monkeypatch.setattr(verilog_io, "write_verilog", refuse)
        monkeypatch.setattr(worker, "_INSTANCE_MEMO", {})
        record = execute_job(self.SPEC, cache=NetlistCache(None))
        assert record["status"] == "ok", record["error"]
        assert "netlist" not in record["payload"]
        instance = worker._INSTANCE_MEMO[("s1238", 2019)]
        assert instance.circuit._compiled_cache is None

    def test_cached_artifact_keeps_the_netlist(self, tmp_path, monkeypatch):
        from repro.campaign import worker

        monkeypatch.setattr(worker, "_INSTANCE_MEMO", {})
        cache = NetlistCache(str(tmp_path))
        cached = execute_job(self.SPEC, cache=cache)
        uncached = execute_job(self.SPEC, cache=NetlistCache(None))
        assert cached["payload"] == uncached["payload"]
        params = self.SPEC.param_dict
        entry = cache.get(cache.key(kind="lock", **params))
        assert "module s1238__xor4" in entry["netlist"]
        assert {k: v for k, v in entry.items() if k != "netlist"} == \
            cached["payload"]
        instance = cache.get_object(
            cache.key(kind="bench", benchmark="s1238", seed=2019))
        assert instance.circuit._compiled_cache is not None
