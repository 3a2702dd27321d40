"""Text export of one server's ``obs`` response: Prometheus + ``top``.

Both views read the same input, the response of the ``obs`` wire op
(``stats``, ``latency_hist`` and ``metrics``; see
:meth:`repro.serve.server.OracleServer._op_obs`):

* :func:`render_exposition` emits the Prometheus text exposition
  format (``# TYPE`` headers, cumulative ``_bucket{le=...}`` histogram
  lines, per-circuit series labelled by content id).  The server's own
  counters, queue gauges, circuit rows and request-latency histogram
  come first and need no tracing session; with one, the registry dump
  (:func:`render_prometheus`) follows.  ``repro serve --metrics-file``
  writes it periodically and on ``SIGUSR1``; any scraper that reads
  textfile-collector output can ingest it.  It carries counters, not
  rates: Prometheus computes rates itself.
* :func:`render_top` renders the ``repro top`` dashboard as
  fixed-width text, curses-free and deterministic given its inputs
  (the golden test relies on that).  Its rates come from the deltas
  between two of the caller's own polls over the server's uptime.

Everything here is pure text-from-dict: no sockets, no sessions.
"""

from __future__ import annotations

import re
from typing import Any, List, Mapping, Optional, Tuple

from .metrics import histogram_from_snapshot

__all__ = ["render_prometheus", "render_exposition", "render_top"]

_NAME_RE = re.compile(r"[^a-zA-Z0-9_:]")


def _metric_name(name: str, prefix: str) -> str:
    return prefix + _NAME_RE.sub("_", name)


def _num(value: Any) -> str:
    if isinstance(value, bool):
        return "1" if value else "0"
    if isinstance(value, float):
        if value != value:  # NaN
            return "NaN"
        return format(value, ".10g")
    return str(value)


def _family(metric: str, entry: Mapping[str, Any]) -> List[str]:
    """The ``# TYPE`` line and samples of one registry-snapshot entry
    (nothing for an unknown kind)."""
    kind = entry.get("kind")
    if kind in ("counter", "gauge"):
        return [f"# TYPE {metric} {kind}",
                f"{metric} {_num(entry.get('value', 0))}"]
    if kind != "histogram":
        return []
    lines = [f"# TYPE {metric} histogram"]
    counts = entry.get("counts") or []
    cumulative = 0
    for bound, count in zip(entry.get("bounds") or [], counts):
        cumulative += count
        lines.append(
            f'{metric}_bucket{{le="{_num(float(bound))}"}} {cumulative}'
        )
    total = entry.get("count", sum(counts))
    lines.append(f'{metric}_bucket{{le="+Inf"}} {total}')
    lines.append(f"{metric}_sum {_num(entry.get('sum', 0.0))}")
    lines.append(f"{metric}_count {total}")
    return lines


def _text(lines: List[str]) -> str:
    return "\n".join(lines) + ("\n" if lines else "")


def render_prometheus(snapshot: Mapping[str, Any],
                      prefix: str = "repro_") -> str:
    """Prometheus text exposition of a metrics-registry snapshot."""
    lines: List[str] = []
    for name in sorted(snapshot):
        lines += _family(_metric_name(name, prefix), snapshot[name])
    return _text(lines)


def _circuit_rows(
    stats: Mapping[str, Any],
) -> List[Tuple[str, int, Optional[int], Optional[int]]]:
    """``(circuit id, queries, budget, remaining)`` per served circuit,
    most queried first; remaining is None without a budget and never
    below 0."""
    registry = stats.get("registry") or {}
    budgets = registry.get("budgets") or {}
    rows = []
    for cid, queries in (registry.get("query_counts") or {}).items():
        budget = budgets.get(cid)
        remaining = None if budget is None else max(0, budget - queries)
        rows.append((cid, queries, budget, remaining))
    return sorted(rows, key=lambda row: (-row[1], row[0]))


def render_exposition(response: Mapping[str, Any]) -> str:
    """Exposition of one ``obs`` response: the server's stats, then the
    registry dump when tracing is on.

    A registry metric whose name a stats family already took (the
    ``serve.queue.depth`` gauge, the ``serve.request.seconds``
    histogram) is left out, so each family appears once.
    """
    stats = response.get("stats") or {}
    batcher = stats.get("batcher") or {}
    admission = stats.get("admission") or {}
    lines: List[str] = []
    for name, kind, value in (
        ("requests", "counter", stats.get("requests", 0)),
        ("errors", "counter", stats.get("errors", 0)),
        ("batches", "counter", batcher.get("batches", 0)),
        ("lanes", "counter", batcher.get("lanes_total", 0)),
        ("queue_depth", "gauge", admission.get("pending", 0)),
        ("queue_peak", "gauge", admission.get("peak_pending", 0)),
    ):
        lines += _family(f"repro_serve_{name}", {"kind": kind, "value": value})
    rows = _circuit_rows(stats)
    for name, kind, column in (("circuit_queries", "counter", 1),
                               ("circuit_remaining", "gauge", 3)):
        metric = f"repro_serve_{name}"
        samples = [f'{metric}{{circuit="{row[0]}"}} {row[column]}'
                   for row in rows if row[column] is not None]
        if samples:
            lines += [f"# TYPE {metric} {kind}"] + samples
    latency = response.get("latency_hist")
    if latency:
        lines += _family("repro_serve_request_seconds", latency)

    taken = {line.split()[2] for line in lines if line.startswith("# TYPE")}
    metrics = response.get("metrics") or {}
    return _text(lines) + render_prometheus({
        name: entry for name, entry in metrics.items()
        if _metric_name(name, "repro_") not in taken
    })


# ----------------------------------------------------------------------
# repro top
# ----------------------------------------------------------------------

def _ms(value: Optional[float]) -> str:
    return "-" if value is None else f"{value * 1e3:.1f}"


def _short(cid: str, width: int = 16) -> str:
    return cid if len(cid) <= width else cid[:width - 1] + "…"


def _elapsed(stats: Mapping[str, Any],
             earlier: Mapping[str, Any]) -> Optional[float]:
    """Seconds of server uptime between two polls, or None: no earlier
    poll, or the server restarted in between (its uptime or request
    count went back)."""
    if not earlier or stats.get("requests", 0) < earlier.get("requests", 0):
        return None
    elapsed = stats.get("uptime_s", 0.0) - earlier.get("uptime_s", 0.0)
    return elapsed if elapsed > 0 else None


def render_top(response: Mapping[str, Any],
               previous: Optional[Mapping[str, Any]] = None,
               clock_text: Optional[str] = None) -> str:
    """Plain-text dashboard of one ``obs`` response (deterministic).

    Rates are the request and per-circuit query deltas since
    *previous*, the caller's last poll of the same server, over the
    ``uptime_s`` delta.  Without one, or where the server restarted in
    between, they read ``-``; a count that went back reads ``-`` too.
    """
    stats = response.get("stats") or {}
    batcher = stats.get("batcher") or {}
    admission = stats.get("admission") or {}
    earlier = (previous or {}).get("stats") or {}
    elapsed = _elapsed(stats, earlier)

    def rate(now: int, before: int) -> str:
        if elapsed is None or now < before:
            return "-"
        return f"{(now - before) / elapsed:.1f}"

    requests = stats.get("requests", 0)
    header = (f"repro serve  uptime={stats.get('uptime_s', 0.0):.1f}s"
              f"  requests={requests}  errors={stats.get('errors', 0)}"
              f"  qps={rate(requests, earlier.get('requests', 0))}")
    if clock_text:
        header += f"  [{clock_text}]"
    lines = [header]
    latency = response.get("latency_hist")
    if latency and latency.get("count"):
        hist = histogram_from_snapshot(latency)
        lines.append("latency  " + "  ".join(
            f"p{q}={_ms(hist.quantile(q / 100))}ms" for q in (50, 95, 99)
        ))
    occupancy = batcher.get("occupancy_mean")
    lines += [
        f"batches={batcher.get('batches', 0)}"
        f"  lanes={batcher.get('lanes_total', 0)}"
        f"  occ.mean={'-' if occupancy is None else occupancy}"
        f"  queue={admission.get('pending', 0)}"
        f"  peak={admission.get('peak_pending', 0)}",
        "",
        f"{'circuit':<18}{'queries':>9}{'qps':>9}{'budget':>9}"
        f"{'remaining':>11}",
    ]
    before = (earlier.get("registry") or {}).get("query_counts") or {}
    rows = _circuit_rows(stats)
    for cid, queries, budget, remaining in rows:
        lines.append(
            f"{_short(cid):<18}{queries:>9}"
            f"{rate(queries, before.get(cid, 0)):>9}"
            f"{'-' if budget is None else budget:>9}"
            f"{'-' if remaining is None else remaining:>11}"
        )
    if not rows:
        lines.append("(no circuits registered)")
    return "\n".join(lines) + "\n"
