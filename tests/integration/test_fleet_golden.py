"""Golden aggregates: every built-in study against a committed fixture.

Each fixture under ``golden/`` is the canonical ``aggregate_json()`` of a
small run at the default seed, identical to::

    python -m repro fleet longterm --machines 4 --days 1 --json
    python -m repro fleet usability --users 64 --json
    python -m repro fleet redteam --users 4 --json
    python -m repro fleet synthetic --users 256 --shard-size 16 \\
        --straggler-first 4 --straggler-ms 20 --json

When the fixtures were written, the list-based aggregates that preceded
the streaming reducers produced the same bytes, so these files pin the
reducers to that reference.  Both the inline executor and a two-worker
pool with small leases must reproduce them exactly.
"""

from pathlib import Path

import pytest

from repro.fleet import run_fleet

GOLDEN = Path(__file__).parent / "golden"

CASES = {
    "longterm": (4, {"days": 1}),
    "usability": (64, {}),
    "redteam": (4, {}),
    "synthetic": (256, {"shard_size": 16, "straggler_first": 4, "straggler_ms": 20.0}),
}


@pytest.mark.parametrize("study", sorted(CASES))
@pytest.mark.parametrize(
    "engine", [{"workers": 1}, {"workers": 2, "lease_size": 2}], ids=["w1", "w2-lease2"]
)
def test_aggregate_matches_golden_fixture(study, engine):
    population, params = CASES[study]
    report = run_fleet(study, population=population, params=params, **engine)
    expected = (GOLDEN / f"fleet_{study}.json").read_text()
    assert report.aggregate_json() == expected
