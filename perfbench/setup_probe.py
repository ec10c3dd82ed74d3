"""Time one fresh interpreter's set-up for a workload.

Prints the seconds spent importing miclab's layers plus the workload's
prepare() (first-use caches and fixed inputs).  The import of the
benchmark's own modules is left out.  run.py launches this several times
and reports the median as setup_s.

Usage: python3 perfbench/setup_probe.py WORKLOAD SEED
"""

import sys
import time

import env

env.pin_blas()
env.use_checkout_source()

t0 = time.perf_counter()
import miclab  # noqa: E402
import miclab.analysis  # noqa: E402,F401
import miclab.cli  # noqa: E402,F401
import miclab.serialize  # noqa: E402,F401
t1 = time.perf_counter()
env.check_checkout_source(miclab)
import workloads  # noqa: E402

t2 = time.perf_counter()
workloads.WORKLOADS[sys.argv[1]].prepare(int(sys.argv[2]))
t3 = time.perf_counter()
print(repr((t1 - t0) + (t3 - t2)))
