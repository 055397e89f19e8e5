"""Every benchmark record at the repository root has the same shape.

A ``BENCH_<n>.json`` records the paired parent/change runs of one change.
A claimed gain must name a workload and a metric that ``BENCHMARK.json``
declares, so that the claim can be re-measured with ``bench/run.py``.
"""

import json
import re
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
RECORDS = sorted(p for p in ROOT.glob("BENCH_*.json") if re.fullmatch(r"BENCH_\d+\.json", p.name))
FIELDS = ("title", "parent", "provenance", "claim", "end_to_end",
          "all_runs_correct_with_no_failures")


def test_records_exist():
    assert RECORDS


@pytest.mark.parametrize("path", RECORDS, ids=lambda p: p.name)
def test_record_has_every_field(path):
    record = json.loads(path.read_text())
    assert [f for f in FIELDS if f not in record] == []
    assert isinstance(record["all_runs_correct_with_no_failures"], bool)


@pytest.mark.parametrize("path", RECORDS, ids=lambda p: p.name)
def test_claim_names_a_declared_workload_and_metric(path):
    claim = json.loads(path.read_text())["claim"]
    if claim is None:
        return
    assert claim["workload"] in {w["name"] for w in SPEC["workloads"]}
    assert claim["metric"] in {m["name"] for m in SPEC["end_to_end"] + SPEC["per_layer"]}
