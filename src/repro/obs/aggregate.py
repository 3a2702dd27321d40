"""Fleet-wide metric aggregation: worker samples, one snapshot.

A server's ``obs`` wire op feeds its *cumulative* stats (the same
shape as the ``stats`` op, plus the full request-latency histogram)
into a :class:`FleetAggregator` on every call; ``repro serve`` is one
process, so it reports itself as worker ``"0"``.  The aggregator keeps
exactly one sample per worker id and **replaces** it on every update —
never folds — so polling any number of times cannot double-count a
counter.  Rates (QPS, per-circuit QPS) come from the delta between
consecutive samples of the same worker.

``snapshot()`` merges on read:

* fleet totals (requests, errors, batches, lanes, queue depth) are
  straight sums of the latest samples;
* per-circuit rows join each worker's registry view keyed by circuit
  content id — query-count burn, remaining budget, owning workers;
* latency quantiles come from a bucket-exact merge of the workers'
  request-latency histograms.  If their bucket boundaries ever
  disagree, the merge raises
  :class:`~repro.obs.snapshots.MetricMergeError` rather than
  corrupting the quantiles (same policy as ``merge_metrics``).

The clock is injectable so rendering tests are deterministic.
"""

from __future__ import annotations

import time
from typing import Any, Callable, Dict, Mapping, Optional

from .metrics import histogram_from_snapshot
from .snapshots import MetricMergeError

__all__ = ["FleetAggregator"]


class _WorkerSample:
    __slots__ = ("at", "stats", "latency", "metrics", "qps", "circuit_qps")

    def __init__(self, at: float, stats: Mapping[str, Any],
                 latency: Optional[Mapping[str, Any]],
                 metrics: Optional[Mapping[str, Any]]) -> None:
        self.at = at
        self.stats = stats
        self.latency = latency
        self.metrics = metrics
        self.qps = 0.0
        self.circuit_qps: Dict[str, float] = {}

    def query_counts(self) -> Dict[str, int]:
        registry = self.stats.get("registry") or {}
        return dict(registry.get("query_counts") or {})

    def budgets(self) -> Dict[str, int]:
        registry = self.stats.get("registry") or {}
        return dict(registry.get("budgets") or {})


class FleetAggregator:
    """Latest-cumulative-sample-per-worker fleet registry."""

    def __init__(self, clock: Callable[[], float] = time.monotonic) -> None:
        self._clock = clock
        self._samples: Dict[str, _WorkerSample] = {}

    # ------------------------------------------------------------------

    def update(self, worker_id: str, stats: Mapping[str, Any],
               latency: Optional[Mapping[str, Any]] = None,
               metrics: Optional[Mapping[str, Any]] = None) -> None:
        """Record *worker_id*'s newest cumulative sample (idempotent to
        re-deliver: replacement, never accumulation)."""
        now = self._clock()
        sample = _WorkerSample(now, stats, latency, metrics)
        previous = self._samples.get(worker_id)
        if previous is not None:
            dt = now - previous.at
            if dt > 0:
                delta = (_requests(stats) - _requests(previous.stats))
                sample.qps = max(0.0, delta / dt)
                prior_counts = previous.query_counts()
                for cid, count in sample.query_counts().items():
                    sample.circuit_qps[cid] = max(
                        0.0, (count - prior_counts.get(cid, 0)) / dt
                    )
        self._samples[worker_id] = sample

    def __len__(self) -> int:
        return len(self._samples)

    # ------------------------------------------------------------------

    def snapshot(self) -> Dict[str, Any]:
        """The merged fleet view (deterministic given the samples)."""
        workers: Dict[str, Any] = {}
        circuits: Dict[str, Any] = {}
        totals = {
            "workers": len(self._samples),
            "requests": 0, "errors": 0, "batches": 0,
            "lanes_total": 0, "queue_depth": 0, "qps": 0.0,
        }
        merged_latency = None
        for worker_id in sorted(self._samples):
            sample = self._samples[worker_id]
            stats = sample.stats
            batcher = stats.get("batcher") or {}
            admission = stats.get("admission") or {}
            registry = stats.get("registry") or {}
            row = {
                "requests": _requests(stats),
                "errors": stats.get("errors", 0),
                "qps": round(sample.qps, 3),
                "batches": batcher.get("batches", 0),
                "lanes_total": batcher.get("lanes_total", 0),
                "occupancy_mean": batcher.get("occupancy_mean"),
                "occupancy_p99": batcher.get("occupancy_p99"),
                "queue_depth": admission.get("pending", 0),
                "queue_peak": admission.get("peak_pending", 0),
                "circuits": registry.get("size", 0),
                "latency": _latency_summary(sample),
            }
            workers[worker_id] = row
            totals["requests"] += row["requests"]
            totals["errors"] += row["errors"]
            totals["batches"] += row["batches"]
            totals["lanes_total"] += row["lanes_total"]
            totals["queue_depth"] += row["queue_depth"]
            totals["qps"] += sample.qps

            if sample.latency and sample.latency.get("count"):
                hist = histogram_from_snapshot(sample.latency, "fleet")
                if merged_latency is None:
                    merged_latency = hist
                elif hist.bounds != merged_latency.bounds:
                    raise MetricMergeError(
                        f"worker {worker_id}: latency histogram bounds "
                        f"differ across the fleet; cannot merge quantiles"
                    )
                else:
                    for i, count in enumerate(hist.counts):
                        merged_latency.counts[i] += count
                    merged_latency.count += hist.count
                    merged_latency.sum += hist.sum
                    for key, keep in (("min", min), ("max", max)):
                        theirs = getattr(hist, key)
                        if theirs is None:
                            continue
                        mine = getattr(merged_latency, key)
                        setattr(merged_latency, key,
                                theirs if mine is None else keep(mine, theirs))

            budgets = sample.budgets()
            for cid, count in sample.query_counts().items():
                entry = circuits.setdefault(cid, {
                    "query_count": 0, "qps": 0.0,
                    "budget": None, "workers": [],
                })
                entry["query_count"] += count
                entry["qps"] += sample.circuit_qps.get(cid, 0.0)
                entry["workers"].append(worker_id)
                budget = budgets.get(cid)
                if budget is not None:
                    # Budgets are per-process ledgers: the smallest is
                    # the binding one.
                    entry["budget"] = (budget if entry["budget"] is None
                                       else min(entry["budget"], budget))

        for entry in circuits.values():
            entry["qps"] = round(entry["qps"], 3)
            # Budget burn-down against the summed count.
            entry["remaining"] = (
                None if entry["budget"] is None
                else max(0, entry["budget"] - entry["query_count"])
            )
        totals["qps"] = round(totals["qps"], 3)

        latency = {}
        if merged_latency is not None and merged_latency.count:
            latency = {
                "count": merged_latency.count,
                "mean_s": merged_latency.mean,
                "p50_s": merged_latency.quantile(0.5),
                "p95_s": merged_latency.quantile(0.95),
                "p99_s": merged_latency.quantile(0.99),
                "max_s": merged_latency.max,
            }
        return {
            "workers": workers,
            "circuits": circuits,
            "totals": totals,
            "latency": latency,
        }


def _requests(stats: Mapping[str, Any]) -> int:
    return stats.get("requests", 0)


def _latency_summary(sample: _WorkerSample) -> Dict[str, Any]:
    if sample.latency and sample.latency.get("count"):
        hist = histogram_from_snapshot(sample.latency)
        return {
            "count": hist.count,
            "mean_s": hist.mean,
            "p50_s": hist.quantile(0.5),
            "p95_s": hist.quantile(0.95),
            "p99_s": hist.quantile(0.99),
            "max_s": hist.max,
        }
    # Fall back to the coarse summary the plain ``stats`` op carries.
    return dict(sample.stats.get("latency") or {})
