"""Golden regression + determinism tests for the paper tables and the
arena suite.

The golden files pin the exact aggregate (every number and the
formatted text) of Table I and Table II as produced by the seed
pipeline.  Any change to the generator, a locking flow, the delay
model, or the seed derivations shows up here as a byte-level diff.
``arena_suite.json`` pins the committed arena suite
(``examples/arena/suite.json``) the same way, apart from wall times:
every cell's outcome (verdicts, recovered key, queries, corruption,
details) and every leaderboard row, so a change to an attack, a
scheme, the miter or the solver that moves any of them shows here.
Regenerate deliberately with::

    PYTHONPATH=src python tests/golden/regen.py

The determinism tests assert the campaign engine's core contract: the
serial path and a multi-worker pool produce *byte-identical* aggregates
(same JSON, not just close numbers), so ``--jobs N`` can never change a
reported result.
"""

import json
import os

import pytest

from repro.bench.iwls import BENCHMARKS
from repro.campaign import CampaignConfig, CampaignMatrix, run_campaign
from repro.reporting.tables import (
    table1_aggregate,
    table1_row_from_dict,
    table2_aggregate,
    table2_rows_from_cells,
)
from regen import arena_suite_snapshot

GOLDEN_DIR = os.path.dirname(__file__)
SUBSET = ["s1238", "s5378", "s9234"]


def _golden(name):
    with open(os.path.join(GOLDEN_DIR, name)) as stream:
        return stream.read()


def _dumps(aggregate):
    return json.dumps(aggregate, sort_keys=True, indent=2) + "\n"


def _table1_aggregate(benchmarks, jobs=1, cache_dir=None):
    result = run_campaign(
        CampaignMatrix.table1(benchmarks),
        CampaignConfig(jobs=jobs, cache_dir=cache_dir),
    )
    assert result.ok, result.failed()
    rows = [table1_row_from_dict(r["payload"]["row"]) for r in result.ordered()]
    return table1_aggregate(rows)


def _table2_aggregate(benchmarks, jobs=1, cache_dir=None):
    result = run_campaign(
        CampaignMatrix.table2(benchmarks),
        CampaignConfig(jobs=jobs, cache_dir=cache_dir),
    )
    assert result.ok, result.failed()
    cells = {
        (r["params"]["benchmark"], r["params"]["config"]):
            r["payload"]["overhead"]
        for r in result.ordered()
    }
    return table2_aggregate(table2_rows_from_cells(cells, list(benchmarks)))


# ----------------------------------------------------------------------
# Golden snapshots (full benchmark suite)
# ----------------------------------------------------------------------

def test_table1_matches_golden():
    assert _dumps(_table1_aggregate(BENCHMARKS)) == _golden("table1.json")


def test_table2_matches_golden():
    assert _dumps(_table2_aggregate(BENCHMARKS)) == _golden("table2.json")


@pytest.mark.slow
def test_arena_suite_matches_golden():
    assert _dumps(arena_suite_snapshot()) == _golden("arena_suite.json")


# ----------------------------------------------------------------------
# Serial vs pool determinism
# ----------------------------------------------------------------------

def test_parallel_table2_is_byte_identical_to_serial(tmp_path):
    serial = _dumps(_table2_aggregate(SUBSET))
    pooled = _dumps(
        _table2_aggregate(SUBSET, jobs=4, cache_dir=str(tmp_path / "cache"))
    )
    assert pooled == serial


@pytest.mark.slow
def test_parallel_full_suite_is_byte_identical_to_serial(tmp_path):
    cache = str(tmp_path / "cache")
    assert _dumps(_table1_aggregate(BENCHMARKS, jobs=4, cache_dir=cache)) == \
        _golden("table1.json")
    assert _dumps(_table2_aggregate(BENCHMARKS, jobs=4, cache_dir=cache)) == \
        _golden("table2.json")
    # A warm rerun must replay from cache and still match exactly.
    assert _dumps(_table2_aggregate(BENCHMARKS, jobs=4, cache_dir=cache)) == \
        _golden("table2.json")
