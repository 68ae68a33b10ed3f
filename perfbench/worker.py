"""Run one workload in this (fresh) process and print one JSON line.

Called by run.py with PYTHONPATH pointing at the checkout's src/. With
--setup-only it only imports barpack and generates the instances, so the
caller can repeat set-up in fresh processes and take a median.
"""

from __future__ import annotations

import argparse
import json
import resource
import statistics
import sys
from time import perf_counter


def main(argv=None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=1.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true")
    ap.add_argument("--setup-only", action="store_true")
    ap.add_argument("--spans-out")
    args = ap.parse_args(argv)

    t0 = perf_counter()
    import barpack
    import_s = perf_counter() - t0
    import calibrate
    import check
    import driver
    import spans
    import workloads
    wl = workloads.get(args.workload, args.smoke)
    seeds = workloads.instance_seeds(wl, args.seed)
    t1 = perf_counter()
    instances = workloads.make_instances(wl, seeds)
    gen_s = perf_counter() - t1
    setup_speed = calibrate.speed([calibrate.job_seconds() for _ in range(3)])
    out = {"setup_s": (import_s + gen_s) / setup_speed, "setup_raw_s": import_s + gen_s}
    if args.setup_only:
        print(json.dumps(out))
        return 0

    loop = driver.Loop(wl, instances)
    funcs = workloads.entry_points(wl)
    if args.trace:
        plain, traced, tracer, job = driver.measure_traced(loop, funcs, args.seconds)
        metrics = spans.layer_metrics(tracer.spans, len(traced))
        plain_s, traced_s = statistics.fmean(plain), statistics.fmean(traced)
        metrics["trace.overhead_s"] = traced_s - plain_s
        metrics["trace.overhead_frac"] = (traced_s - plain_s) / plain_s
        metrics["generators.gen_s"] = gen_s
        metrics["packers.max_ratio"] = driver.quality(loop)[1]
        metrics["calibration.speed"] = calibrate.speed(job)
        out["calls"] = {"untraced": len(plain), "traced": len(traced)}
        if args.spans_out:
            with open(args.spans_out, "w") as fh:
                json.dump({"fields": ["name", "start", "end", "parent", "counts"],
                           "spans": tracer.spans}, fh)
    else:
        times, job = driver.measure(loop, funcs, args.seconds)
        total, speed = sum(times), calibrate.speed(job)
        raw = {
            "solve_s.p50": statistics.median(times),
            "charts_per_s": len(times) * wl.n / total,
            "instances_per_s": len(times) / total,
        }
        metrics = {
            "solve_s.p50": raw["solve_s.p50"] / speed,
            "charts_per_s": raw["charts_per_s"] * speed,
            "instances_per_s": raw["instances_per_s"] * speed,
            "len_over_lb": driver.quality(loop)[0],
        }
        out.update(raw=raw, calls=len(times), measured_s=total,
                   calibration={"speed": speed, "job_s": job})
    metrics["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    out.update({
        "metrics": metrics,
        "attempted": loop.attempted,
        "failed": loop.failed,
        "problems": loop.problems,
        "fingerprint": check.digest(loop.records),
        "counts": check.counts([o for o in loop.outputs if o is not None]),
        "workload": {"name": wl.name, "family": wl.family, "n": wl.n,
                     "instances": wl.count, "algos": list(wl.algos),
                     "node_budget": wl.budget, "instance_seeds": seeds},
        "python": sys.version.split()[0],
    })
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
