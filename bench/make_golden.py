"""Record the golden reference output of every input the workloads can draw.

    python3 bench/make_golden.py [workload ...]

Writes ``bench/golden/<workload>.json``.  The references are taken from the
package as it stands; run this only when the program's output is meant to
change, and say so in the change.  Every op must also pass the workload's
own semantic checks (recovered secrets, liar rejects, the published
findings), so a wrong program cannot be recorded silently.
"""

from __future__ import annotations

import json
import shutil
import sys
import tempfile
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
sys.path[:0] = [str(BENCH_DIR.parent / "src"), str(BENCH_DIR)]

from run import source_provenance  # noqa: E402
from workloads import GOLDEN_DIR, WORKLOADS, make  # noqa: E402


def record(name: str, work_dir: Path) -> dict:
    wl = make(name, work_dir)
    outputs, failures, stats = {}, [], {}
    for inp in wl.pool():
        out = wl.run(inp)
        outputs[wl.key(inp)] = wl.reference(inp, out)
        reason = wl.check(inp, out, outputs, stats)
        if reason is not None:
            failures.append(reason)
    if failures:
        raise SystemExit(f"{name}: {len(failures)} ops fail their checks, e.g. {failures[0]}")
    prov = source_provenance()
    source = {k: prov[k] for k in ("git_commit", "src_sha256", "python", "numpy")}
    return {"source": source, "outputs": outputs}


def main(names):
    GOLDEN_DIR.mkdir(exist_ok=True)
    work_dir = Path(tempfile.mkdtemp(prefix=".work-", dir=BENCH_DIR))
    try:
        for name in names or WORKLOADS:
            doc = record(name, work_dir)
            path = GOLDEN_DIR / f"{name}.json"
            path.write_text(json.dumps(doc, indent=0, sort_keys=True) + "\n")
            rel = path.relative_to(BENCH_DIR.parent)
            print(f"{name}: {len(doc['outputs'])} references -> {rel}")
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)


if __name__ == "__main__":
    main(sys.argv[1:])
