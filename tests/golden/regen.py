"""Regenerate the golden snapshots (run deliberately, not in CI).

Usage::

    PYTHONPATH=src python tests/golden/regen.py

Writes the Table I and Table II aggregates and the arena suite snapshot
(:func:`arena_suite_snapshot`).
"""

import dataclasses
import json
import os
import sys

ROOT = os.path.abspath(os.path.join(os.path.dirname(__file__), "..", ".."))
sys.path.insert(0, os.path.join(ROOT, "src"))

from repro.arena import Scenario, run_arena  # noqa: E402
from repro.bench.iwls import BENCHMARKS  # noqa: E402
from repro.campaign import (  # noqa: E402
    CampaignConfig,
    CampaignMatrix,
    run_campaign,
)
from repro.reporting.leaderboard import build_leaderboard  # noqa: E402
from repro.reporting.tables import (  # noqa: E402
    table1_aggregate,
    table1_row_from_dict,
    table2_aggregate,
    table2_rows_from_cells,
)

#: The committed scheme x attack suite the arena snapshot runs.
ARENA_SUITE = os.path.join(ROOT, "examples", "arena", "suite.json")


def arena_suite_snapshot():
    """The arena suite run serially, without anything timed: each run
    cell with its outcome minus ``wall_time``, the skipped cells with
    their reasons, and the leaderboard rows minus ``mean_wall``."""
    result = run_arena(Scenario.from_file(ARENA_SUITE), CampaignConfig(jobs=1))
    assert result.ok, (result.campaign.failed(), result.expectation_failures)
    cells = []
    for cell, outcome in result.outcomes():
        outcome = dict(outcome)
        del outcome["wall_time"]
        cells.append(dict(cell.to_dict(), outcome=outcome))
    rows = []
    for row in build_leaderboard(result):
        row = dataclasses.asdict(row)
        del row["mean_wall"]
        rows.append(row)
    return {
        "cells": cells,
        "skipped": [
            dict(cell.to_dict(), reason=reason)
            for cell, reason in result.skipped
        ],
        "leaderboard": rows,
    }


def main() -> None:
    here = os.path.dirname(os.path.abspath(__file__))
    config = CampaignConfig(jobs=1)
    r1 = run_campaign(CampaignMatrix.table1(BENCHMARKS), config)
    r2 = run_campaign(CampaignMatrix.table2(BENCHMARKS), config)
    assert r1.ok and r2.ok, (r1.failed(), r2.failed())
    rows1 = [
        table1_row_from_dict(r["payload"]["row"]) for r in r1.ordered()
    ]
    cells = {
        (r["params"]["benchmark"], r["params"]["config"]):
            r["payload"]["overhead"]
        for r in r2.ordered()
    }
    rows2 = table2_rows_from_cells(cells, list(BENCHMARKS))
    for name, snapshot in (
        ("table1", table1_aggregate(rows1)),
        ("table2", table2_aggregate(rows2)),
        ("arena_suite", arena_suite_snapshot()),
    ):
        path = os.path.join(here, f"{name}.json")
        with open(path, "w") as stream:
            json.dump(snapshot, stream, sort_keys=True, indent=2)
            stream.write("\n")
        print(f"wrote {path}")


if __name__ == "__main__":
    main()
