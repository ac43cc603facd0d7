"""A fixed reference job that gauges how fast the machine runs right now.

A small shared VM runs the same code 20 % and more faster or slower from
one minute to the next, on the wall clock and the CPU clock alike.  The
benchmark times this job between manifests and reports its time metrics at
a fixed machine speed: a measured time is multiplied by ``REFERENCE_S`` over
the job's time measured around it.  A change to pllab leaves the job
untouched, so it moves the reported times as much as the raw ones; a host
that slows everything down slows the job as well, and the ratio stays.

The job mixes what manifests spend their time on: interpreter work (dict
and list churn, number formatting, JSON) and small-array numpy (matrix
products, element-wise updates, reductions).
"""

from __future__ import annotations

import json
import statistics
import time

import numpy as np

# The job's median time on the 2-vCPU VM the bounds in BENCHMARK.json were
# set on; reported times are seconds at that speed.
REFERENCE_S = 0.006
REPEATS = 3

_A = np.linspace(-1.0, 1.0, 48 * 48).reshape(48, 48)
_ROW = [0.125 * i for i in range(40)]


def _job():
    table = {}
    for i in range(6000):
        key = i % 53
        table[key] = table.get(key, 0.0) + 0.5 * i
    lines = [",".join(f"{v:.17g}" for v in _ROW) for _ in range(24)]
    json.dumps({"rows": lines, "table": table}, sort_keys=True)
    x = _A
    for _ in range(80):
        nb = 0.25 * (x[:-2, 1:-1] + x[2:, 1:-1] + x[1:-1, :-2] + x[1:-1, 2:])
        x = np.clip(x @ _A * 0.02, -1.0, 1.0)
        x[1:-1, 1:-1] += np.where(nb > 0, 0.1 * nb, 0.0)
    return float(np.max(np.abs(x)))


def reference_seconds():
    """Median wall time of REPEATS runs of the job."""
    times = []
    for _ in range(REPEATS):
        t0 = time.perf_counter()
        _job()
        times.append(time.perf_counter() - t0)
    return statistics.median(times)
