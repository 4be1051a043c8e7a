"""Time set-up in a fresh interpreter: ``import versorlab`` plus the warm-up.

    python3 perfbench/probe.py <workload>

versorlab must be importable (run.py passes PYTHONPATH).  Prints one JSON
object with ``setup_s`` and the timed warm-up steps, in wall seconds.
"""

import time

t0 = time.perf_counter()
import versorlab  # noqa: E402,F401

t1 = time.perf_counter()

import json  # noqa: E402
import sys  # noqa: E402

from warm import warm_up  # noqa: E402

detail = warm_up(sys.argv[1])
t2 = time.perf_counter()
print(json.dumps({"setup_s": t2 - t0, "import_s": t1 - t0, **detail}))
