"""Merge semantics and cross-process span stitching.

``merge_metrics`` is the one funnel every worker snapshot passes
through (campaign adoption), so its kind-by-kind semantics — counters
add, gauges max, histograms bucket-exact or refuse — are pinned here.
"""

import pytest

from repro import obs
from repro.obs.metrics import MetricsRegistry
from repro.obs.sinks import InMemorySink
from repro.obs.snapshots import (
    MetricMergeError,
    adopt_payload,
    merge_metrics,
    span_tree_from_dict,
    span_tree_to_dict,
)
from repro.obs.spans import Span


class TestMergeMetrics:
    def test_counters_add(self):
        registry = MetricsRegistry()
        registry.counter("jobs").inc(3)
        merge_metrics(registry, {"jobs": {"kind": "counter", "value": 5}})
        assert registry.snapshot()["jobs"]["value"] == 8

    def test_gauges_keep_the_maximum(self):
        """Gauges are high-water marks; a later, lower worker reading
        must never clobber an earlier peak, and the result must not
        depend on which worker's snapshot merges first."""
        registry = MetricsRegistry()
        registry.gauge("queue.peak").set(10)
        merge_metrics(registry, {"queue.peak": {"kind": "gauge",
                                                "value": 4}})
        assert registry.snapshot()["queue.peak"]["value"] == 10
        merge_metrics(registry, {"queue.peak": {"kind": "gauge",
                                                "value": 25}})
        assert registry.snapshot()["queue.peak"]["value"] == 25

    def test_gauge_merge_is_poll_order_independent(self):
        snaps = [{"g": {"kind": "gauge", "value": v}} for v in (7, 3, 9)]
        forward, backward = MetricsRegistry(), MetricsRegistry()
        for snap in snaps:
            merge_metrics(forward, snap)
        for snap in reversed(snaps):
            merge_metrics(backward, snap)
        assert (forward.snapshot()["g"]["value"]
                == backward.snapshot()["g"]["value"] == 9)

    def test_histograms_merge_bucket_exactly(self):
        registry = MetricsRegistry()
        local = registry.histogram("lat", (1.0, 2.0))
        local.observe(0.5)
        merge_metrics(registry, {"lat": {
            "kind": "histogram", "bounds": [1.0, 2.0],
            "counts": [1, 2, 3], "count": 6, "sum": 9.0,
            "min": 0.4, "max": 4.0,
        }})
        assert local.counts == [2, 2, 3]
        assert local.count == 7
        assert local.min == 0.4 and local.max == 4.0

    def test_mismatched_bounds_raise_not_corrupt(self):
        registry = MetricsRegistry()
        registry.histogram("lat", (1.0, 2.0)).observe(0.5)
        with pytest.raises(MetricMergeError):
            merge_metrics(registry, {"lat": {
                "kind": "histogram", "bounds": [5.0, 10.0],
                "counts": [1, 0, 0], "count": 1, "sum": 1.0,
            }})
        # the local instrument is untouched by the refused merge
        assert registry.histogram("lat", (1.0, 2.0)).count == 1

    def test_missing_bounds_raise(self):
        with pytest.raises(MetricMergeError):
            merge_metrics(MetricsRegistry(), {"lat": {
                "kind": "histogram", "counts": [1], "count": 1, "sum": 1.0,
            }})

    def test_wrong_counts_length_raises(self):
        registry = MetricsRegistry()
        with pytest.raises(MetricMergeError):
            merge_metrics(registry, {"lat": {
                "kind": "histogram", "bounds": [1.0, 2.0],
                "counts": [1], "count": 1, "sum": 1.0,
            }})


def _tree(name, attrs=None, children=()):
    span = Span(name, None, dict(attrs or {}))
    span.duration = 0.001
    for child in children:
        child.parent = span
        span.children.append(child)
    return span


class TestAdoptionStitching:
    def test_tree_with_resolvable_parent_attaches_under_it(self):
        session = obs.enable(InMemorySink())
        try:
            with obs.trace_span("run") as run_span:
                token = session.export_span(run_span)
                payload = {"spans": [span_tree_to_dict(_tree(
                    "job", {"trace_token": "w-1", "trace_parent": token},
                ))], "metrics": {}}
                assert adopt_payload(session, payload) == 1
            (root,) = session.roots
            assert root.name == "run"
            assert [c.name for c in root.children] == ["job"]
        finally:
            obs.disable()

    def test_redelivered_payload_is_skipped(self):
        session = obs.enable(InMemorySink())
        try:
            with obs.trace_span("run") as run_span:
                token = session.export_span(run_span)
                payload = {"spans": [span_tree_to_dict(_tree(
                    "job", {"trace_token": "w-1", "trace_parent": token},
                ))], "metrics": {}}
                assert adopt_payload(session, payload) == 1
                assert adopt_payload(session, payload) == 0  # dedupe
            assert len(session.roots[0].children) == 1
        finally:
            obs.disable()

    def test_unresolvable_parent_becomes_top_level_root(self):
        session = obs.enable(InMemorySink())
        try:
            payload = {"spans": [span_tree_to_dict(_tree(
                "orphan", {"trace_token": "w-9",
                           "trace_parent": "never-exported"},
            ))], "metrics": {}}
            assert adopt_payload(session, payload) == 1
            assert [r.name for r in session.roots] == ["orphan"]
        finally:
            obs.disable()

    def test_out_of_order_trees_stitch_across_payloads(self):
        """A child tree arriving before its parent tree still attaches:
        tokens are registered before any stitching pass."""
        session = obs.enable(InMemorySink())
        try:
            child = span_tree_to_dict(_tree(
                "grandchild", {"trace_token": "w-2", "trace_parent": "w-1"}
            ))
            parent = span_tree_to_dict(_tree(
                "child", {"trace_token": "w-1"}))
            assert adopt_payload(
                session, {"spans": [child, parent], "metrics": {}}) == 2
            (root,) = [r for r in session.roots if r.name == "child"]
            assert [c.name for c in root.children] == ["grandchild"]
            assert session.roots == [root]
        finally:
            obs.disable()

    def test_round_trip_preserves_structure(self):
        tree = _tree("a", {"k": 1}, [_tree("b"), _tree("c")])
        rebuilt = span_tree_from_dict(span_tree_to_dict(tree))
        assert rebuilt.name == "a" and rebuilt.attrs == {"k": 1}
        assert [c.name for c in rebuilt.children] == ["b", "c"]
        assert rebuilt.children[0].parent is rebuilt
