"""Tests for the repro.obs sinks and renderers."""

import io
import json

import pytest

from repro import obs


@pytest.fixture(autouse=True)
def _obs_off():
    obs.disable()
    yield
    obs.disable()


def _sample_run(sink_or_sinks):
    sinks = sink_or_sinks if isinstance(sink_or_sinks, list) else [sink_or_sinks]
    session = obs.enable(*sinks)
    try:
        with obs.trace_span("root", design="toy"):
            with obs.trace_span("stage.a"):
                obs.inc("work.items", 3)
            with obs.trace_span("stage.b"):
                obs.observe("stage.seconds", 0.25)
        session.publish_metrics()
    finally:
        obs.disable()


class TestJsonlSink:
    def test_writes_one_json_object_per_line(self, tmp_path):
        path = str(tmp_path / "trace.jsonl")
        _sample_run(obs.JsonlSink(path))
        with open(path) as stream:
            records = [json.loads(line) for line in stream]
        kinds = [r["type"] for r in records]
        assert kinds == ["span", "span", "span", "metrics"]
        names = [r["name"] for r in records if r["type"] == "span"]
        assert names == ["stage.a", "stage.b", "root"]  # completion order
        assert records[-1]["metrics"]["work.items"]["value"] == 3

    def test_parent_ids_link_the_tree(self, tmp_path):
        path = str(tmp_path / "trace.jsonl")
        _sample_run(obs.JsonlSink(path))
        with open(path) as stream:
            spans = [json.loads(l) for l in stream if '"span"' in l]
        by_name = {s["name"]: s for s in spans}
        assert by_name["stage.a"]["parent_id"] == by_name["root"]["id"]
        assert by_name["root"]["parent_id"] is None

    def test_borrowed_stream_not_closed(self):
        stream = io.StringIO()
        _sample_run(obs.JsonlSink(stream))
        assert not stream.closed
        assert stream.getvalue().count("\n") == 4


class TestTreeSink:
    def test_streams_each_root_tree(self):
        stream = io.StringIO()
        _sample_run(obs.TreeSink(stream))
        text = stream.getvalue()
        assert "root" in text and "├─ stage.a" in text
        assert "└─ stage.b" in text
        assert "work.items" in text  # metrics table on publish


class TestInMemorySink:
    def test_collects_spans_roots_and_metrics(self):
        sink = obs.InMemorySink()
        _sample_run(sink)
        assert [s.name for s in sink.roots] == ["root"]
        assert len(sink.spans) == 3
        assert sink.metric_value("work.items") == 3
        with pytest.raises(KeyError):
            sink.metric_value("missing.metric")


class TestSpanBuffer:
    def test_buffers_traced_roots_and_drains_one_trace(self):
        """Only roots stamped with a trace id are buffered, and a
        drain hands over its own trace's trees and keeps the rest."""
        buffer = obs.SpanBuffer()
        obs.enable(buffer)
        try:
            with obs.trace_span("untraced"):
                pass
            for trace in ("t1", "t2", "t1"):
                with obs.trace_span("request", trace_id=trace):
                    with obs.trace_span("child"):
                        pass
        finally:
            obs.disable()
        assert len(buffer) == 3
        mine = buffer.drain("t1")
        assert [tree["attrs"]["trace_id"] for tree in mine] == ["t1", "t1"]
        assert [child["name"] for child in mine[0]["children"]] == ["child"]
        assert buffer.drain("t1") == []
        assert len(buffer) == 1 and buffer.dropped == 0


class TestRendering:
    def test_span_tree_shows_durations_and_attrs(self):
        sink = obs.InMemorySink()
        _sample_run(sink)
        text = obs.render_span_tree(sink.roots)
        lines = text.splitlines()
        assert lines[0].startswith("root")
        assert "[design=toy]" in lines[0]
        assert "ms" in lines[0] or "s" in lines[0]

    def test_metrics_table_lists_all_instruments(self):
        sink = obs.InMemorySink()
        _sample_run(sink)
        table = obs.render_metrics_table(sink.last_snapshot)
        assert "work.items" in table and "counter" in table
        assert "stage.seconds" in table and "histogram" in table

    def test_empty_snapshot(self):
        assert "no metrics" in obs.render_metrics_table({})
