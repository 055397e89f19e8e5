"""Tests of the benchmark itself.

    python3 -m pytest -q bench/tests

They run the benchmark for fractions of a second, so they check behaviour,
not speed.  The traced-count test runs the whole ``cli`` command pool twice
and takes about a minute.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

import pytest

BENCH_DIR = Path(__file__).resolve().parents[1]
ROOT = BENCH_DIR.parent
sys.path[:0] = [str(ROOT / "src"), str(BENCH_DIR)]

import workloads  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def bench(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "bench/run.py", *args],
        capture_output=True, text=True, cwd=cwd, timeout=300,
    )


def result(proc: subprocess.CompletedProcess) -> dict:
    return json.loads(proc.stdout.splitlines()[-1])


@pytest.fixture
def work_dir():
    path = Path(tempfile.mkdtemp(prefix=".work-test-", dir=BENCH_DIR))
    yield path
    shutil.rmtree(path, ignore_errors=True)


@pytest.mark.parametrize("name", ["grid", "sessions", "shots", "cli"])
def test_traced_counts_repeat_exactly(name):
    runs = [result(bench("--workload", name, "--seed", "7", "--seconds", "0.1", "--trace", "1"))
            for _ in range(2)]
    names = [m["name"] for m in SPEC["per_layer"]]
    for run in runs:
        assert run["correct"] and run["failed"] == 0
        assert list(run["metrics"]) == names
    counts = [{k: v["value"] for k, v in run["metrics"].items() if v["unit"] == "count"}
              for run in runs]
    assert counts[0] == counts[1]
    assert counts[0]["statevec.construct_calls"] > 0


def test_grid_job_counts_match_the_decode_grid():
    run = result(bench("--workload", "grid", "--seed", "3", "--seconds", "0.1", "--trace", "1"))
    m = {k: v["value"] for k, v in run["metrics"].items()}
    # 64 rows x (table 1 + table 2 + intercept) + 3 entangle runs x 2.
    assert m["catalog.initial_state_calls"] == 3 * 65 + 6
    assert m["grover.phase1_calls"] == 3 * 64
    assert m["grover.sample_calls"] == 0


def test_untraced_result_line_has_every_end_to_end_metric():
    proc = bench("--workload", "shots", "--seed", "1", "--seconds", "0.5")
    assert proc.returncode == 0, proc.stderr
    res = result(proc)
    assert set(res) == {"correct", "attempted", "failed", "metrics"}
    assert res["correct"] and res["failed"] == 0 and res["attempted"] >= 100
    assert list(res["metrics"]) == [m["name"] for m in SPEC["end_to_end"]]
    for m in SPEC["end_to_end"]:
        got = res["metrics"][m["name"]]
        assert got["unit"] == m["unit"] and got["value"] > 0
    report = json.loads(next(line for line in proc.stdout.splitlines()
                             if line.startswith('{"report"')))["report"]
    assert {"python", "numpy", "nproc", "cpu_model", "git_commit", "seed", "seconds"} <= set(
        report["provenance"])


def test_refuses_to_run_without_the_package(work_dir):
    shutil.copy(ROOT / "BENCHMARK.json", work_dir)
    shutil.copytree(BENCH_DIR, work_dir / "bench",
                    ignore=shutil.ignore_patterns(".work-*", "out", "__pycache__"))
    proc = bench("--workload", "grid", "--seed", "1", "--seconds", "1", cwd=work_dir)
    assert proc.returncode != 0
    assert proc.stdout == ""


@pytest.mark.parametrize("name", ["grid", "sessions", "shots", "cli"])
def test_golden_covers_every_input(name, work_dir):
    wl = workloads.make(name, work_dir)
    assert set(workloads.load_golden(name)) == {wl.key(inp) for inp in wl.pool()}


def test_wrong_output_fails_its_check(work_dir):
    wl = workloads.make("grid", work_dir)
    golden = workloads.load_golden("grid")
    inp = (1, "110", "011")
    csv1, csv2, reports = wl.run(inp)
    assert wl.check(inp, (csv1, csv2, reports), golden, {}) is None
    assert wl.check(inp, (csv1.replace("0.945", "0.946"), csv2, reports), golden, {})


def test_published_findings_reproduce_as_findings(work_dir):
    wl = workloads.make("cli", work_dir)
    golden = workloads.load_golden("cli")
    table2 = ("tables", "--which", "2", "--format", "csv", "--enc-k", "1")
    intercept = ("attack", "intercept")
    for inp in (table2, intercept):
        out = wl.run(inp)
        assert wl.check(inp, out, golden, {}) is None
    assert golden[" ".join(table2)]["rc"] == 1
    rc, stdout, _ = wl.run(intercept)
    assert json.loads(stdout)["details"]["success_inclusive_count"] == 19


def test_liar_session_rejects_at_the_liars_round():
    wl = workloads.make("sessions", None)
    inp = wl.session(12)
    assert inp["liar_round"] is not None and inp["mode"] == "top"
    out = wl.run(inp)
    assert out.verdict == "reject" and len(out.transcripts) == inp["liar_round"] + 1
    assert wl.check(inp, out, workloads.load_golden("sessions"), {}) is None


def test_honest_reject_bound():
    p = workloads.HONEST_REJECT_P
    assert workloads.check_honest_rejects({"sampled_rounds": 10000,
                                           "sampled_rejects": round(10000 * p)}) is None
    assert workloads.check_honest_rejects({"sampled_rounds": 10000, "sampled_rejects": 0})
    assert workloads.check_honest_rejects({"sampled_rounds": 10000, "sampled_rejects": 1100})
