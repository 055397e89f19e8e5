"""One traced CLI op: time the package import, install the span wrappers,
then run ``groverqss.cli.main`` exactly as ``python -m groverqss.cli`` would.

    python3 bench/cli_entry.py <spans-out.json> <cli arguments...>

The recorder is written to ``spans-out.json`` for the parent to merge.
"""

import time

t0 = time.perf_counter_ns()

import os  # noqa: E402
import sys  # noqa: E402

BENCH = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(BENCH), "src"))
import groverqss.cli  # noqa: E402

t1 = time.perf_counter_ns()
sys.path.insert(1, BENCH)
import json  # noqa: E402

from spans import Recorder, install  # noqa: E402

rec = Recorder()
rec.add_span("cli.import", t0, t1)
rec.extra["cli.import_ns"] += t1 - t0
install(rec)
t2 = time.perf_counter_ns()
rc = groverqss.cli.main(sys.argv[2:])
rec.extra["cli.main_ns"] += time.perf_counter_ns() - t2
sys.stdout.flush()
with open(sys.argv[1], "w") as f:
    json.dump(rec.to_dict(), f)
sys.exit(rc)
