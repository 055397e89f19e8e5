"""Print the set-up time of one workload in seconds, measured in this fresh
interpreter: importing the package plus the first call into each layer the
workload uses.  Interpreter start-up is not included.

    python3 bench/setup_probe.py <workload>
"""

import time

t0 = time.perf_counter()

import os  # noqa: E402
import sys  # noqa: E402

sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src"))
import groverqss  # noqa: E402,F401
import warmup  # noqa: E402

warmup.FIRST_CALLS[sys.argv[1]]()
print(repr(time.perf_counter() - t0))
