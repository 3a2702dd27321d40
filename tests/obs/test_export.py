"""The text ops surface: Prometheus exposition and ``repro top``.

Both render one ``obs`` response of one server.  ``repro top`` takes
its rates from two of its own polls, and its rendering is pinned byte
for byte against ``tests/golden/top_render.txt``.  Regenerate the
golden deliberately with::

    PYTHONPATH=src python tests/obs/test_export.py --regen
"""

import os
import sys

from repro.obs.export import render_exposition, render_prometheus, render_top

GOLDEN = os.path.join(
    os.path.dirname(__file__), os.pardir, "golden", "top_render.txt"
)


def _response(uptime=60.0, requests=0, errors=0, batches=0, lanes=0,
              occupancy=None, pending=0, peak=0, query_counts=None,
              budgets=None, latency=None, metrics=None):
    """An ``obs`` response in the shape the server sends."""
    return {
        "ok": True,
        "stats": {
            "uptime_s": uptime,
            "requests": requests,
            "errors": errors,
            "batcher": {"batches": batches, "lanes_total": lanes,
                        "occupancy_mean": occupancy},
            "admission": {"pending": pending, "peak_pending": peak},
            "registry": {"size": len(query_counts or {}),
                         "query_counts": dict(query_counts or {}),
                         "budgets": dict(budgets or {})},
        },
        "latency_hist": latency,
        "metrics": metrics,
    }


def _latency(counts, bounds=(0.001, 0.01, 0.1), low=0.0005, high=0.05):
    return {"kind": "histogram", "bounds": list(bounds),
            "counts": list(counts), "count": sum(counts),
            "sum": high * sum(counts) / 2, "min": low, "max": high}


def _header(text):
    return text.splitlines()[0]


class TestTopRates:
    def test_rate_comes_from_consecutive_polls(self):
        first = _response(uptime=50.0, requests=100,
                          query_counts={"cid": 40})
        second = _response(uptime=60.0, requests=250,
                           query_counts={"cid": 100, "new": 30})
        text = render_top(second, first)
        assert "qps=15.0" in _header(text)
        rows = {line.split()[0]: line.split() for line in
                text.splitlines() if line.startswith(("cid", "new"))}
        assert rows["cid"][:3] == ["cid", "100", "6.0"]
        assert rows["new"][:3] == ["new", "30", "3.0"]

    def test_first_frame_prints_no_rate(self):
        text = render_top(_response(requests=7, query_counts={"cid": 7}))
        assert "qps=-" in _header(text)
        (row,) = [line for line in text.splitlines()
                  if line.startswith("cid")]
        assert row.split()[:3] == ["cid", "7", "-"]

    def test_restart_between_polls_prints_no_rate(self):
        """A restarted server's uptime and counters start over: the
        deltas would be negative, so the frame prints none."""
        before = _response(uptime=100.0, requests=500,
                           query_counts={"cid": 400})
        for after in (_response(uptime=2.0, requests=3,
                                query_counts={"cid": 1}),
                      _response(uptime=120.0, requests=3,
                                query_counts={"cid": 1})):
            text = render_top(after, before)
            assert "qps=-" in _header(text)
            (row,) = [line for line in text.splitlines()
                      if line.startswith("cid")]
            assert row.split()[2] == "-"

    def test_remaining_budget_never_negative(self):
        response = _response(query_counts={"cid": 120},
                             budgets={"cid": 100})
        (row,) = [line for line in render_top(response).splitlines()
                  if line.startswith("cid")]
        assert row.split()[3:] == ["100", "0"]
        assert ('repro_serve_circuit_remaining{circuit="cid"} 0'
                in render_exposition(response).splitlines())


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

    def test_exposition_without_any_metrics(self):
        """No registry (``metrics`` is None, the server is not tracing):
        the server's counters, queue gauges and latency histogram, and
        no rate gauge."""
        text = render_exposition(_response(
            requests=9, errors=1, batches=4, lanes=20, pending=2, peak=5,
            latency=_latency([2, 1, 1, 0]),
        ))
        lines = text.splitlines()
        for line in ("# TYPE repro_serve_requests counter",
                     "repro_serve_requests 9", "repro_serve_errors 1",
                     "repro_serve_batches 4", "repro_serve_lanes 20",
                     "# TYPE repro_serve_queue_depth gauge",
                     "repro_serve_queue_depth 2", "repro_serve_queue_peak 5",
                     "# TYPE repro_serve_request_seconds histogram",
                     'repro_serve_request_seconds_bucket{le="0.001"} 2',
                     'repro_serve_request_seconds_bucket{le="+Inf"} 4',
                     "repro_serve_request_seconds_count 4"):
            assert line in lines, line
        assert "qps" not in text and "rate" not in text

    def test_circuit_series_are_labeled_by_circuit(self):
        text = render_exposition(_response(
            query_counts={"cid": 9, "free": 3}, budgets={"cid": 50}))
        lines = text.splitlines()
        assert "# TYPE repro_serve_circuit_queries counter" in lines
        assert 'repro_serve_circuit_queries{circuit="cid"} 9' in lines
        assert 'repro_serve_circuit_queries{circuit="free"} 3' in lines
        assert "# TYPE repro_serve_circuit_remaining gauge" in lines
        assert 'repro_serve_circuit_remaining{circuit="cid"} 41' in lines
        assert 'circuit_remaining{circuit="free"}' not in text

    def test_registry_dump_follows_and_each_family_appears_once(self):
        """Under tracing the registry records ``serve.queue.depth`` and
        ``serve.request.seconds`` too; the stats families keep those
        names, and the rest of the dump follows."""
        metrics = {
            "serve.queue.depth": {"kind": "gauge", "value": 7},
            "serve.request.seconds": _latency([1, 0, 0, 0]),
            "serve.batch.flushes": {"kind": "counter", "value": 4},
        }
        text = render_exposition(_response(
            pending=2, latency=_latency([2, 1, 1, 0]), metrics=metrics))
        families = [line.split()[2] for line in text.splitlines()
                    if line.startswith("# TYPE")]
        assert len(families) == len(set(families))
        assert "repro_serve_queue_depth 2" in text.splitlines()
        assert "repro_serve_queue_depth 7" not in text
        assert 'repro_serve_request_seconds_bucket{le="+Inf"} 4' in text
        assert "repro_serve_batch_flushes 4" in text.splitlines()
        assert text.index("repro_serve_batch_flushes") > \
            text.index("repro_serve_request_seconds")


# ----------------------------------------------------------------------
# repro top golden
# ----------------------------------------------------------------------

def _golden_polls():
    """Two polls of one server, 10 s of uptime apart: one budgeted and
    one unbudgeted circuit, and a circuit's id wider than its column."""
    first = _response(uptime=120.0, requests=140,
                      query_counts={"aaaa1111bbbb2222cccc": 90,
                                    "dddd3333": 40},
                      budgets={"aaaa1111bbbb2222cccc": 1000})
    second = _response(uptime=130.0, requests=310, errors=4, batches=37,
                       lanes=270, occupancy=7.3, pending=2, peak=9,
                       query_counts={"aaaa1111bbbb2222cccc": 180,
                                     "dddd3333": 90},
                       budgets={"aaaa1111bbbb2222cccc": 1000},
                       latency=_latency([140, 110, 50, 10], high=0.25))
    return second, first


def _render_golden():
    return render_top(*_golden_polls(), clock_text="12:00:00")


def test_top_rendering_matches_golden():
    with open(GOLDEN) as stream:
        assert _render_golden() == stream.read()


def test_top_rendering_of_an_idle_server():
    text = render_top(_response())
    assert "(no circuits registered)" in text
    assert text.startswith("repro serve  uptime=60.0s  requests=0")


if __name__ == "__main__":
    if "--regen" in sys.argv:
        with open(GOLDEN, "w") as stream:
            stream.write(_render_golden())
        print(f"wrote {GOLDEN}")
    else:
        sys.stdout.write(_render_golden())
