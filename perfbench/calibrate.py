"""Machine-speed calibration for the end-to-end times.

On a shared machine the same code runs up to ~35% slower for minutes at a
time, which is wider than any bound a comparison of two commits can use.
Each run therefore also times a fixed job that imports nothing from
barpack, and the end-to-end times are scaled by how fast that job ran:
a value reads as seconds on a machine where the job takes REFERENCE_S.
A change to barpack cannot change the job, so the scaling removes the
machine's drift and keeps the code's. Raw values stay in the report.
"""

from __future__ import annotations

import statistics
from time import perf_counter

# The job's median time on the machine the bounds were set on
# (2-core VM, Python 3.11.7).
REFERENCE_S = 0.025


def job_seconds() -> float:
    """Time one run of the job. It mixes what barpack's layers do: small
    tuples, pairwise tests through zip/all, dict stores, a keyed sort and
    recursion over a list."""
    t = perf_counter()
    cells = [(i * 37 % 101 + 1, i * 53 % 97 + 1) for i in range(400)]
    found = {}
    for i, a in enumerate(cells):
        for j in range(i + 1, min(i + 30, len(cells))):
            b = cells[j]
            if all(x + y <= 150 for x, y in zip(a, b)):
                found[(i, j)] = (a[1] + b[0], i)
    order = sorted(found.items(), key=lambda kv: (kv[1][0], kv[0]))
    _total(order, 0, len(order))
    return perf_counter() - t


def _total(order, lo, hi):
    if hi - lo <= 8:
        return sum(order[k][1][0] for k in range(lo, hi))
    mid = (lo + hi) // 2
    return _total(order, lo, mid) + _total(order, mid, hi)


def speed(samples) -> float:
    """Machine slowness relative to the reference (2.0 = twice as slow)."""
    return statistics.median(samples) / REFERENCE_S
