"""The closed loop that drives a workload, with its checks kept outside
the timed calls."""

from __future__ import annotations

import statistics
from time import perf_counter

import barpack
import calibrate
import check
import spans
import workloads

CALIBRATE_EVERY_S = 0.5   # time the calibration job between calls this often


class Loop:
    """Closed loop over a workload's instances: each call starts when the
    last one returned. Checks and fingerprints run outside the timing."""

    def __init__(self, wl, instances):
        self.wl, self.instances = wl, instances
        self.records = [None] * len(instances)  # first output per instance
        self.outputs = [None] * len(instances)
        self.attempted = self.failed = 0
        self.problems = []

    def call(self, funcs, i):
        """Run call i; return its wall time, or None if it raised."""
        inst = self.instances[i]
        self.attempted += 1
        t = perf_counter()
        try:
            exact, packs = workloads.run_call(self.wl, funcs, inst)
        except Exception as exc:  # counted as a failed call; the run goes on
            self._fail(i, f"{type(exc).__name__}: {exc}")
            return None
        dt = perf_counter() - t
        problems = check.check_call(inst, exact, packs)
        record = check.output_record(exact, packs)
        if self.records[i] is None:
            self.records[i], self.outputs[i] = record, (exact, packs)
        elif record != self.records[i]:
            problems.append("output differs from the first call on this instance")
        if problems:
            self._fail(i, "; ".join(problems))
        return dt

    def _fail(self, i, message):
        self.failed += 1
        if len(self.problems) < 10:
            self.problems.append(f"instance {i}: {message}")


def measure(loop, funcs, seconds):
    """Call every instance once, then keep cycling while the next call is
    expected to end within `seconds`. Returns the call times and the
    calibration job's times, taken between calls."""
    times, job = [], [calibrate.job_seconds()]
    k = len(loop.instances)
    start = last_job = perf_counter()
    i = 0
    while i < k or perf_counter() - start + statistics.fmean(times or [0.0]) < seconds:
        dt = loop.call(funcs, i % k)
        if dt is not None:
            times.append(dt)
        i += 1
        if perf_counter() - last_job >= CALIBRATE_EVERY_S:
            job.append(calibrate.job_seconds())
            last_job = perf_counter()
    return times, job


def measure_traced(loop, funcs, seconds):
    """Call each instance untraced and traced, back to back and in
    alternating order so that drifts in machine speed hit both alike, and
    repeat the pass while the next one is expected to fit in `seconds`.
    Returns (untraced times, traced times, tracer, calibration job times)."""
    tracer = spans.Tracer()
    traced_funcs = {name: tracer.wrap(name, fn) for name, fn in funcs.items()}
    plain, traced, job = [], [], [calibrate.job_seconds()]
    start = last_job = perf_counter()
    while True:
        t = perf_counter()
        for i in range(len(loop.instances)):
            for tracing in ((False, True) if i % 2 else (True, False)):
                if tracing:
                    with tracer.traced():
                        traced.append(loop.call(traced_funcs, i))
                else:
                    plain.append(loop.call(funcs, i))
            if perf_counter() - last_job >= CALIBRATE_EVERY_S:
                job.append(calibrate.job_seconds())
                last_job = perf_counter()
        if perf_counter() - start + (perf_counter() - t) > seconds:
            return ([x for x in plain if x is not None],
                    [x for x in traced if x is not None], tracer, job)


def quality(loop):
    """len_over_lb over every packer result of the first pass, and the
    worst packer length over a proven optimum (0 when none is proven)."""
    ratios, worst = [], 0.0
    for inst, out in zip(loop.instances, loop.outputs):
        if out is None:
            continue
        exact, packs = out
        lb = barpack.lower_bound(inst)
        for _, res in packs:
            ratios.append(res.length / lb)
            if exact is not None and exact.proven:
                worst = max(worst, res.length / exact.opt_length)
    return statistics.fmean(ratios or [0.0]), worst
