"""Run one workload of the groverqss benchmark and print its metrics.

    python3 bench/run.py --workload grid --seed 1 --seconds 30 --trace 0
    python3 bench/run.py --workload all --seed 1 --seconds 30

One client runs the workload's ops in a closed loop for ``--seconds``
seconds (and for at least MIN_OPS ops), checking every output against the
golden references.  Standard output carries a provenance line, a table of
every metric with its unit and sample count, a ``{"report": ...}`` line and,
last, the result: ``{"correct", "attempted", "failed", "metrics"}``.  With
``--trace 0`` the metrics are the end-to-end ones of BENCHMARK.json, with
``--trace 1`` the per-layer ones from a traced run.  ``--workload all``
runs every workload in its own process and prints them together.

Exits 2 without a result when the package sources are not beside the
benchmark, and 1 after the result when any check failed.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
from hashlib import sha256
from pathlib import Path
from time import perf_counter, perf_counter_ns

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"

#: Each run keeps at least ten samples beyond its p90.
MIN_OPS = 100
#: Fresh interpreters whose median set-up time is ``setup_s``.
SETUP_PROBES = 7
WORKLOAD_NAMES = ("grid", "sessions", "shots", "cli")

if __name__ == "__main__" and not (SRC / "groverqss" / "__init__.py").is_file():
    print(f"error: no package sources at {SRC}; run from a full checkout", file=sys.stderr)
    sys.exit(2)
sys.path[:0] = [str(SRC), str(BENCH_DIR)]
from spans import LAYERS, OP_SPAN, Recorder, install, layer_of  # noqa: E402
from workloads import load_golden, make  # noqa: E402


def percentile(values, q: int) -> float:
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def metric(value, unit: str, samples: int | None = None) -> dict:
    m = {"value": value, "unit": unit}
    if samples is not None:
        m["samples"] = samples
    return m


# --------------------------------------------------------------------------
# Provenance


def _git_commit() -> str | None:
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    ref = ref[5:]
    loose = ROOT / ".git" / ref
    if loose.is_file():
        return loose.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    return None


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def src_digest() -> str:
    h = sha256()
    for path in sorted(SRC.rglob("*")):
        if path.is_file() and "__pycache__" not in path.parts:
            h.update(str(path.relative_to(SRC)).encode() + b"\0" + path.read_bytes())
    return h.hexdigest()[:16]


def source_provenance() -> dict:
    """The program measured and the machine and runtime measuring it."""
    import numpy

    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "cpu_model": _cpu_model(),
        "git_commit": _git_commit(),
        "src_sha256": src_digest(),
    }


def provenance(args) -> dict:
    return {**source_provenance(), "workload": args.workload, "seed": args.seed,
            "seconds": args.seconds, "trace": args.trace}


# --------------------------------------------------------------------------
# Untraced run: end-to-end metrics


def measure_setup(name: str) -> float:
    """Set-up seconds of one fresh interpreter (see setup_probe.py)."""
    cmd = [sys.executable, str(BENCH_DIR / "setup_probe.py"), name]
    out = subprocess.run(cmd, capture_output=True, text=True, check=True, timeout=120)
    return float(out.stdout)


def attempt(wl, inp) -> tuple[object, str | None]:
    """Run one op; a raising op is a failed op, not a crashed run."""
    try:
        return wl.run(inp), None
    except Exception as e:
        return None, f"{wl.key(inp)}: raised {e!r}"


def verify(wl, inp, out, golden, stats) -> str | None:
    try:
        return wl.check(inp, out, golden, stats)
    except Exception as e:
        return f"{wl.key(inp)}: output check raised {e!r}"


def run_untraced(wl, golden, args) -> tuple[dict, int, list[str], str | None]:
    lat_ns, units, failures, setup = [], [], [], []
    stats: dict = {}
    start = perf_counter()
    for inp in wl.inputs(args.seed):
        t0 = perf_counter_ns()
        out, reason = attempt(wl, inp)
        lat_ns.append(perf_counter_ns() - t0)
        if reason is None:
            reason = verify(wl, inp, out, golden, stats)
            units.append(wl.units(inp, out))
        if reason is not None:
            failures.append(reason)
        elapsed = perf_counter() - start
        # Set-up probes are spread over the run, between ops, so that their
        # median does not rest on one moment of the host's load.
        due = (len(setup) + 0.5) * args.seconds / SETUP_PROBES
        if len(setup) < SETUP_PROBES and elapsed >= due:
            setup.append(measure_setup(wl.name))
        if len(lat_ns) >= MIN_OPS and elapsed >= args.seconds:
            break
    while len(setup) < SETUP_PROBES:
        setup.append(measure_setup(wl.name))
    run_failure = wl.run_check(stats)
    who = resource.RUSAGE_CHILDREN if wl.name == "cli" else resource.RUSAGE_SELF
    peak_rss_mb = resource.getrusage(who).ru_maxrss / 1024

    n = len(lat_ns)
    busy_s = sum(lat_ns) / 1e9
    op_ms = [t / 1e6 for t in lat_ns]
    m = {
        "setup_s": metric(statistics.median(setup), "s", len(setup)),
        "ops_per_s": metric(n / busy_s, "1/s", n),
        "op_ms_p50": metric(statistics.median(op_ms), "ms", n),
        "op_ms_p90": metric(percentile(op_ms, 90), "ms", n),
        "peak_rss_mb": metric(peak_rss_mb, "MB"),
        "error_rate": metric(len(failures) / n, "1", n),
    }
    if wl.unit != "ops" and not failures:
        m[f"{wl.unit}_per_s"] = metric(sum(units) / busy_s, f"{wl.unit}/s", n)
    if wl.name == "sessions" and not failures:
        round_us = [t / 1e3 / r for t, r in zip(lat_ns, units)]
        m["round_us_p50"] = metric(statistics.median(round_us), "us", n)
        m["round_us_p90"] = metric(percentile(round_us, 90), "us", n)
        m["sampled_rounds"] = metric(stats.get("sampled_rounds", 0), "count")
        m["sampled_rejects"] = metric(stats.get("sampled_rejects", 0), "count")
    return m, n, failures, run_failure


# --------------------------------------------------------------------------
# Traced run: per-layer metrics


def run_traced(wl, golden, args) -> tuple[dict, int, list[str], str | None]:
    rec = Recorder()
    uninstall = install(rec)
    wl.recorder = rec
    traced, failures, op_ns = [], [], []
    counted = None
    stats: dict = {}
    start = perf_counter()
    try:
        for inp in wl.inputs(args.seed):
            rec.keep = len(traced) < wl.count_ops
            rec.enter(OP_SPAN)
            out, reason = attempt(wl, inp)
            op_ns.append(rec.exit())
            traced.append(inp)
            if reason is None:
                reason = verify(wl, inp, out, golden, stats)
            if reason is not None:
                failures.append(reason)
            if len(traced) == wl.count_ops:
                counted = (rec.calls.copy(), rec.extra.copy())
            if counted is not None and perf_counter() - start >= args.seconds / 2:
                break
    finally:
        uninstall()
        wl.recorder = None
    run_failure = wl.run_check(stats)

    # The same ops again without tracing, for the tracing overhead.
    untraced_ns = 0
    for inp in traced:
        t0 = perf_counter_ns()
        wl.run(inp)
        untraced_ns += perf_counter_ns() - t0

    out_dir = BENCH_DIR / "out"
    out_dir.mkdir(exist_ok=True)
    rec.write(out_dir / f"trace-{wl.name}.json")
    m = layer_metrics(rec, counted, wl.count_ops, len(traced), sum(op_ns))
    m["trace.overhead"] = metric(sum(op_ns) / untraced_ns, "ratio", len(traced))
    m["trace.ops_per_s"] = metric(len(traced) / (sum(op_ns) / 1e9), "1/s", len(traced))
    m["trace.untraced_ops_per_s"] = metric(len(traced) / (untraced_ns / 1e9), "1/s", len(traced))
    if run_failure is None and (abs(m["trace.accounted"]["value"] - 1) > 1e-9
                                or m["bench.self_us"]["value"] < 0):
        run_failure = "layer self times do not add up to the traced op time"
    return m, len(traced), failures, run_failure


#: Per-op call counts: metric name -> span or counter name.
CALL_COUNTS = {
    "statevec.construct_calls": "statevec.construct",
    "statevec.tensor_calls": "statevec.tensor",
    "statevec.distribution_calls": "statevec.distribution",
    "catalog.initial_state_calls": "catalog.initial_state",
    "grover.oracle_calls": "grover.oracle_apply",
    "grover.diffusion_calls": "grover.diffusion_apply",
    "grover.phase1_calls": "grover.decode_phase1",
    "grover.phase2_calls": "grover.decode_phase2",
    "grover.argmax_calls": "grover.argmax_labels",
    "grover.sample_calls": "grover.sample",
    "protocol.round_calls": "protocol.run_round",
}
EXTRA_COUNTS = {
    "grover.sample_shots": "grover.sample_shots",
    "cli.output_bytes": "cli.output_bytes",
}
#: Per-op self time in us: metric name -> span names.
SELF_TIMES = {
    "statevec.construct_us": ("statevec.construct",),
    "catalog.initial_state_us": ("catalog.initial_state",),
    "catalog.table_us": ("catalog.generate_table1", "catalog.generate_table2"),
    "catalog.render_us": ("catalog.render_table",),
    "catalog.diff_us": ("catalog.diff_table",),
    "grover.diffusion_us": ("grover.diffusion_apply",),
    "grover.phase1_us": ("grover.decode_phase1",),
    "grover.phase2_us": ("grover.decode_phase2",),
    "grover.argmax_us": ("grover.argmax_labels",),
    "grover.sample_us": ("grover.sample",),
    "protocol.round_us": ("protocol.run_round",),
    "protocol.verify_us": ("protocol.dealer_verify",),
    "attacks.intercept_enum_us": ("attacks.intercept_enumeration",),
    "attacks.entangle_us": ("attacks.entangle_measure",),
    "attacks.to_json_us": ("attacks.to_json",),
}


def layer_metrics(rec, counted, n_count: int, n: int, op_ns: int) -> dict:
    calls, extra = counted
    m = {}
    for name, span in CALL_COUNTS.items():
        m[name] = metric(calls[span] / n_count, "count", n_count)
    for name, key in EXTRA_COUNTS.items():
        m[name] = metric(extra[key] / n_count, "count", n_count)
    rounds = calls["protocol.run_round"]
    m["protocol.events_per_round"] = metric(
        extra["protocol.events"] / rounds if rounds else None, "count", rounds)
    m["protocol.reject_ratio"] = metric(
        extra["protocol.rejected_rounds"] / rounds if rounds else None, "ratio", rounds)
    for name, spans in SELF_TIMES.items():
        m[name] = metric(sum(rec.self_ns[s] for s in spans) / n / 1e3, "us", n)
    m["cli.import_ms"] = metric(rec.extra["cli.import_ns"] / n / 1e6, "ms", n)
    m["cli.main_ms"] = metric(rec.extra["cli.main_ns"] / n / 1e6, "ms", n)
    for layer in (*LAYERS, "bench"):
        ns = sum(v for k, v in rec.self_ns.items() if layer_of(k) == layer)
        m[f"{layer}.self_us"] = metric(ns / n / 1e3, "us", n)
    m["trace.op_us"] = metric(op_ns / n / 1e3, "us", n)
    m["trace.accounted"] = metric(sum(rec.self_ns.values()) / op_ns, "ratio", n)
    return m


# --------------------------------------------------------------------------
# Output


def print_table(metrics: dict):
    for name, m in metrics.items():
        value = m["value"]
        text = "n/a" if value is None else f"{value:.6g}"
        samples = f"n={m['samples']}" if "samples" in m else ""
        print(f"  {name:<32} {text:>14} {m['unit']:<8} {samples}")


def result_line(correct, attempted, failed, metrics, names) -> str:
    chosen = {n: {"value": metrics[n]["value"], "unit": metrics[n]["unit"]} for n in names}
    return json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                       "metrics": chosen})


def run_all(args) -> int:
    """Every workload in its own process, printed together."""
    total, failed, correct, merged = 0, 0, True, {}
    for name in WORKLOAD_NAMES:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)]
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=600)
        lines = proc.stdout.splitlines()
        report = next((json.loads(line)["report"] for line in lines
                       if line.startswith('{"report"')), None)
        if report is None:
            print(f"{name}: no report (exit {proc.returncode})\n{proc.stderr}", file=sys.stderr)
            return 1
        result = json.loads(lines[-1])
        total += result["attempted"]
        failed += result["failed"]
        correct &= result["correct"]
        print(f"{name}:")
        print_table(report["metrics"])
        for reason in report["failures"]:
            print(f"  FAILED {reason}")
        merged.update({f"{name}.{k}": v for k, v in report["metrics"].items()})
    print(json.dumps({"correct": correct, "attempted": total, "failed": failed,
                      "metrics": merged}))
    return 0 if correct else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=(*WORKLOAD_NAMES, "all"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if args.workload == "all":
        return run_all(args)

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [m["name"] for m in spec["per_layer" if args.trace else "end_to_end"]]
    work_dir = Path(tempfile.mkdtemp(prefix=".work-", dir=BENCH_DIR))
    try:
        wl = make(args.workload, work_dir)
        golden = load_golden(wl.name)
        wl.warmup()
        runner = run_traced if args.trace else run_untraced
        metrics, attempted, failures, run_failure = runner(wl, golden, args)
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)

    prov = provenance(args)
    print(json.dumps({"provenance": prov}))
    print(f"{args.workload} (seed {args.seed}, {args.seconds:g} s, trace {args.trace}):")
    print_table(metrics)
    if run_failure is not None:
        failures = [f"run: {run_failure}", *failures]
    for reason in failures[:20]:
        print(f"  FAILED {reason}")
    print(json.dumps({"report": {"provenance": prov, "metrics": metrics,
                                 "failures": failures}}))
    correct = not failures
    op_failures = len(failures) - (run_failure is not None)
    print(result_line(correct, attempted, op_failures, metrics, names))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
