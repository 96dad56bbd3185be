"""Host-speed probes: fixed kernels of the benchmark's own that tell how fast
the host runs code like a workload's, right now.

On a shared host the same request runs up to 2x slower while other tenants
load the machine; its CPU time grows with its wall time (the CPU itself runs
slower, no time is stolen), so either time of a request measures the host
as much as the program.  The benchmark runs the
workload's probe just before and just after every timed sample and scales
the sample by REFERENCE_S / (mean probe time): a time "at the reference host
speed", the speed at which the probe takes REFERENCE_S.  Each probe mimics
where its workload spends its time, because the slowdown differs between
interpreter-bound and array-bound code:

- `python_probe` (surface): scalar math in the interpreter and float
  formatting, like `thermo_point` over a grid and the CSV/JSON writers;
- `numpy_probe` (verify): int64 divmod, compare, sum and exp over arrays,
  like `oracle.enumerate_partition`.

The probes never call potts1d, so a change to the program cannot move them.
"""

from __future__ import annotations

import math
import time

import numpy as np

REFERENCE_S = 0.020


def python_probe() -> float:
    t0 = time.perf_counter()
    acc = 0.0
    parts = []
    for i in range(30000):
        x = (i % 977) * 0.01 - 4.0
        acc += math.log1p(math.exp(x)) / (1.0 + x * x)
        if i % 3 == 0:
            parts.append(f"{acc:.17g}")
    ",".join(parts)
    return time.perf_counter() - t0


def numpy_probe() -> float:
    t0 = time.perf_counter()
    for start in range(0, 3 * 32768, 32768):
        rem = np.arange(start, start + 32768, dtype=np.int64)
        digits = np.empty((rem.size, 8), dtype=np.int64)
        for j in range(8):
            rem, digits[:, j] = np.divmod(rem, 3)
        unequal = digits != np.roll(digits, -1, axis=1)
        float(np.exp(0.01 * unequal.sum(axis=1)).sum())
    return time.perf_counter() - t0


PROBES = {"surface": python_probe, "verify": numpy_probe}
