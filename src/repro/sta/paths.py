"""Path-level queries on a timing analysis.

The design flow needs two of these: identifying flip-flops on (or near)
the critical path so GK insertion avoids them (Sec. IV-B: "we can
actively avoid choosing FFs on the critical paths"), and tracing a
violated endpoint's worst path pin-by-pin for the true/false violation
triage.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Set

from .timing import TimingAnalysis

__all__ = ["PathPoint", "worst_endpoints", "critical_ffs", "trace_path"]


@dataclass(frozen=True)
class PathPoint:
    """One pin along a timing path."""

    net: str
    arrival: float
    through: str  # driving gate name, or "" for a source


def worst_endpoints(analysis: TimingAnalysis, count: int) -> List[str]:
    """The *count* capturing FFs with the smallest setup slack."""
    ranked = sorted(
        analysis.endpoints.values(), key=lambda e: (e.setup_slack, e.ff)
    )
    return [e.ff for e in ranked[:count]]


def critical_ffs(analysis: TimingAnalysis, margin: float) -> Set[str]:
    """FFs whose capture *or* launch touches a near-critical path.

    An FF is critical if its endpoint setup slack is below *margin*, or
    if it launches the worst path of such an endpoint.  These are the
    FFs the GK insertion flow skips.
    """
    critical: Set[str] = set()
    by_output = {
        ff.output: ff.name for ff in analysis.circuit.flip_flops()
    }
    for endpoint in analysis.endpoints.values():
        if endpoint.setup_slack >= margin:
            continue
        critical.add(endpoint.ff)
        path = analysis.critical_path_to(endpoint.data_net)
        if path:
            source = path[0]
            launcher = by_output.get(source)
            if launcher is not None:
                critical.add(launcher)
    return critical


def trace_path(analysis: TimingAnalysis, endpoint_ff: str) -> List[PathPoint]:
    """The worst (max-arrival) path into *endpoint_ff*, source first.

    This is the pin-by-pin arrival listing the paper's flow inspects to
    distinguish a true timing violation from the deliberate delay of a
    glitch generator.
    """
    endpoint = analysis.endpoints[endpoint_ff]
    nets = analysis.critical_path_to(endpoint.data_net)
    points: List[PathPoint] = []
    for net in nets:
        driver = analysis.circuit.driver_of(net)
        points.append(
            PathPoint(
                net=net,
                arrival=analysis.arrival_max[net],
                through=driver.name if driver is not None else "",
            )
        )
    return points
