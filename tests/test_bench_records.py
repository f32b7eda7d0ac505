"""Every committed BENCH_*.json summary must follow from its own runs.

A BENCH file holds A/B runs of perfbench (one run per seed on each side,
parent and change) and a summary per workload and metric: the median of
each side, the quartiles of the parent side, the number of seeds on which
the change did better, and the failed ops of each side.  This rebuilds the
summary from the runs and requires exact equality.
"""

import json
import statistics
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
RECORDS = sorted(ROOT.glob("BENCH_*.json"))


def summarize(runs):
    """The summary block of a BENCH file, rebuilt from its runs."""
    sides = {}
    for run in runs:
        sides.setdefault(run["workload"], {}).setdefault(run["side"], {})[run["seed"]] = run["result"]
    summary = {}
    for workload, by_side in sides.items():
        parent, change = by_side["parent"], by_side["change"]
        seeds = sorted(parent.keys() & change.keys())
        block = {}
        for metric in parent[seeds[0]]["metrics"]:
            before = [parent[s]["metrics"][metric]["value"] for s in seeds]
            after = [change[s]["metrics"][metric]["value"] for s in seeds]
            better = (lambda a, b: a > b) if metric == "ops_per_s" else (lambda a, b: a < b)
            quartiles = statistics.quantiles(before, n=4) if len(before) >= 4 else None
            block[metric] = {
                "parent_median": statistics.median(before),
                "parent_quartiles": None if quartiles is None else [quartiles[0], quartiles[2]],
                "change_median": statistics.median(after),
                "change_better_pairs": f"{sum(map(better, after, before))}/{len(seeds)}",
            }
        block["failed_ops"] = {
            "parent": sum(r["failed"] for r in parent.values()),
            "change": sum(r["failed"] for r in change.values()),
        }
        summary[workload] = block
    return summary


def test_records_exist():
    assert RECORDS


@pytest.mark.parametrize("path", RECORDS, ids=[p.name for p in RECORDS])
def test_summary_follows_from_runs(path):
    record = json.loads(path.read_text())
    assert summarize(record["runs"]) == record["summary"]
    for workload, seeds in record["seeds"].items():
        for side in ("parent", "change"):
            got = sorted(r["seed"] for r in record["runs"] if r["workload"] == workload and r["side"] == side)
            assert got == sorted(seeds)
