"""Fleet aggregation and the text ops surface.

:class:`FleetAggregator` is exercised with an injected fake clock so
QPS deltas are exact, and the ``repro top`` rendering is pinned byte
for byte against ``tests/golden/top_render.txt``.  Regenerate the
golden deliberately with::

    PYTHONPATH=src python tests/obs/test_export.py --regen
"""

import os
import sys

import pytest

from repro.obs.aggregate import FleetAggregator
from repro.obs.export import (
    render_exposition,
    render_fleet_prometheus,
    render_prometheus,
    render_top,
)
from repro.obs.snapshots import MetricMergeError

GOLDEN = os.path.join(
    os.path.dirname(__file__), os.pardir, "golden", "top_render.txt"
)


class FakeClock:
    def __init__(self, now=100.0):
        self.now = now

    def __call__(self):
        return self.now

    def advance(self, dt):
        self.now += dt


def _stats(requests=0, errors=0, batches=0, lanes=0, occupancy=None,
           pending=0, peak=0, query_counts=None, budgets=None):
    """A worker stats payload in the shape the ``obs`` op returns."""
    return {
        "requests": requests,
        "errors": errors,
        "batcher": {"batches": batches, "lanes_total": lanes,
                    "occupancy_mean": occupancy},
        "admission": {"pending": pending, "peak_pending": peak},
        "registry": {"size": len(query_counts or {}),
                     "query_counts": dict(query_counts or {}),
                     "budgets": dict(budgets or {})},
    }


def _latency(counts, bounds=(0.001, 0.01, 0.1), low=0.0005, high=0.05):
    return {"kind": "histogram", "bounds": list(bounds),
            "counts": list(counts), "count": sum(counts),
            "sum": high * sum(counts) / 2, "min": low, "max": high}


class TestFleetAggregator:
    def test_qps_comes_from_consecutive_sample_deltas(self):
        clock = FakeClock()
        fleet = FleetAggregator(clock=clock)
        fleet.update("0", _stats(requests=100))
        clock.advance(10.0)
        fleet.update("0", _stats(requests=250))
        snap = fleet.snapshot()
        assert snap["workers"]["0"]["qps"] == 15.0
        assert snap["totals"]["qps"] == 15.0
        # cumulative counters are reported as-is, never summed over polls
        assert snap["totals"]["requests"] == 250

    def test_redelivered_cumulative_sample_cannot_double_count(self):
        clock = FakeClock()
        fleet = FleetAggregator(clock=clock)
        for _ in range(5):  # same cumulative numbers, five polls
            fleet.update("0", _stats(requests=40, errors=2))
            clock.advance(1.0)
        snap = fleet.snapshot()
        assert snap["totals"]["requests"] == 40
        assert snap["totals"]["errors"] == 2
        assert snap["workers"]["0"]["qps"] == 0.0

    def test_counter_reset_clamps_qps_to_zero(self):
        """A restarted server's counters start over; the delta is
        negative and must clamp, not go < 0."""
        clock = FakeClock()
        fleet = FleetAggregator(clock=clock)
        fleet.update("0", _stats(requests=500))
        clock.advance(2.0)
        fleet.update("0", _stats(requests=3))
        assert fleet.snapshot()["workers"]["0"]["qps"] == 0.0

    def test_circuit_rows_join_across_workers(self):
        clock = FakeClock()
        fleet = FleetAggregator(clock=clock)
        fleet.update("0", _stats(requests=30,
                                 query_counts={"cid-a": 30},
                                 budgets={"cid-a": 100}))
        fleet.update("1", _stats(requests=12,
                                 query_counts={"cid-a": 5, "cid-b": 7}))
        snap = fleet.snapshot()
        row = snap["circuits"]["cid-a"]
        assert row["query_count"] == 35
        assert row["budget"] == 100
        assert row["remaining"] == 100 - 35
        assert row["workers"] == ["0", "1"]
        assert snap["circuits"]["cid-b"]["budget"] is None
        assert snap["circuits"]["cid-b"]["remaining"] is None

    def test_remaining_budget_never_negative(self):
        fleet = FleetAggregator(clock=FakeClock())
        fleet.update("0", _stats(query_counts={"cid": 120},
                                 budgets={"cid": 100}))
        assert fleet.snapshot()["circuits"]["cid"]["remaining"] == 0

    def test_latency_quantiles_merge_bucket_exactly(self):
        fleet = FleetAggregator(clock=FakeClock())
        fleet.update("0", _stats(requests=4),
                     latency=_latency([2, 1, 1, 0]))
        fleet.update("1", _stats(requests=6),
                     latency=_latency([0, 0, 5, 1], high=0.2))
        latency = fleet.snapshot()["latency"]
        assert latency["count"] == 10
        # rank(p50) = 5 of 10 -> third bucket (le 0.1)
        assert latency["p50_s"] == pytest.approx(0.1)
        # rank(p99) = 10 -> overflow bucket, clamped to observed max
        assert latency["p99_s"] == pytest.approx(0.2)
        assert latency["max_s"] == pytest.approx(0.2)

    def test_mismatched_latency_bounds_refuse_to_merge(self):
        fleet = FleetAggregator(clock=FakeClock())
        fleet.update("0", _stats(requests=1), latency=_latency([1, 0, 0, 0]))
        fleet.update("1", _stats(requests=1),
                     latency=_latency([1, 0, 0], bounds=(1.0, 2.0)))
        with pytest.raises(MetricMergeError):
            fleet.snapshot()


class TestPrometheusRendering:
    def test_histogram_buckets_are_cumulative_with_inf(self):
        text = render_prometheus({
            "serve.latency": {"kind": "histogram",
                              "bounds": [0.1, 1.0],
                              "counts": [3, 2, 1], "count": 6,
                              "sum": 2.5},
        })
        lines = text.splitlines()
        assert "# TYPE repro_serve_latency histogram" in lines
        assert 'repro_serve_latency_bucket{le="0.1"} 3' in lines
        assert 'repro_serve_latency_bucket{le="1"} 5' in lines
        assert 'repro_serve_latency_bucket{le="+Inf"} 6' in lines
        assert "repro_serve_latency_sum 2.5" in lines
        assert "repro_serve_latency_count 6" in lines

    def test_counter_and_gauge_series(self):
        text = render_prometheus({
            "serve.requests": {"kind": "counter", "value": 7},
            "queue.depth": {"kind": "gauge", "value": 3},
        })
        assert "# TYPE repro_serve_requests counter" in text
        assert "repro_serve_requests 7" in text
        assert "# TYPE repro_queue_depth gauge" in text
        assert "repro_queue_depth 3" in text

    def test_fleet_series_are_labeled_per_worker_and_circuit(self):
        fleet = FleetAggregator(clock=FakeClock())
        fleet.update("0", _stats(requests=9, query_counts={"cid": 9},
                                 budgets={"cid": 50}))
        text = render_fleet_prometheus(fleet.snapshot())
        assert 'repro_serve_worker_requests{worker="0"} 9' in text
        assert 'repro_serve_circuit_query_count{circuit="cid"} 9' in text
        assert 'repro_serve_circuit_remaining{circuit="cid"} 41' in text
        assert "repro_serve_fleet_workers 1" in text

    def test_exposition_without_any_metrics(self):
        assert render_exposition({}) == "# no metrics recorded\n"


# ----------------------------------------------------------------------
# repro top golden
# ----------------------------------------------------------------------

def _golden_fleet():
    """A deterministic two-worker, two-circuit fleet history."""
    clock = FakeClock()
    fleet = FleetAggregator(clock=clock)
    fleet.update("0", _stats(requests=100, query_counts={"aaaa1111bbbb2222cccc": 90},
                             budgets={"aaaa1111bbbb2222cccc": 1000}))
    fleet.update("1", _stats(requests=40, query_counts={"dddd3333": 40}))
    clock.advance(10.0)
    fleet.update("0", _stats(requests=220, errors=3, batches=25, lanes=200,
                             occupancy=8.0, pending=2, peak=9,
                             query_counts={"aaaa1111bbbb2222cccc": 180},
                             budgets={"aaaa1111bbbb2222cccc": 1000}),
                 latency=_latency([100, 80, 30, 10], high=0.25))
    fleet.update("1", _stats(requests=90, errors=1, batches=12, lanes=70,
                             occupancy=5.5, pending=0, peak=4,
                             query_counts={"dddd3333": 90}),
                 latency=_latency([40, 30, 20, 0]))
    return fleet.snapshot()


def _render_golden():
    return render_top(_golden_fleet(), clock_text="12:00:00")


def test_top_rendering_matches_golden():
    with open(GOLDEN) as stream:
        assert _render_golden() == stream.read()


def test_top_rendering_of_an_empty_fleet():
    text = render_top(FleetAggregator(clock=FakeClock()).snapshot())
    assert "(no workers reporting)" in text
    assert "(no circuits registered)" in text
    assert text.startswith("repro fleet  workers=0")


if __name__ == "__main__":
    if "--regen" in sys.argv:
        with open(GOLDEN, "w") as stream:
            stream.write(_render_golden())
        print(f"wrote {GOLDEN}")
    else:
        sys.stdout.write(_render_golden())
