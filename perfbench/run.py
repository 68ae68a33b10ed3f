"""barpack benchmark: one workload per invocation, each in a fresh process.

    python3 perfbench/run.py --workload mw-big --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --smoke

Run from anywhere inside a checkout; the library is taken from the
checkout's src/. The last line of standard output is the result:
{"correct", "attempted", "failed", "metrics"}; with --trace 0 the metrics
are BENCHMARK.json's end_to_end list, with --trace 1 its per_layer list.
The line before it is the full report (environment, fingerprint, exact
counts, every metric), which is also written to .bench_out/. The exit code
is 0 only when every call ran and passed every check.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".bench_out"
SETUP_REPS = 8        # extra fresh processes that only import and generate
TIME_LIMIT_S = 170    # a whole invocation ends within this
METRIC_LISTS = ("end_to_end", "per_layer")  # BENCHMARK.json list per --trace value


class RunFailed(Exception):
    pass


def _worker(args, deadline):
    env = {k: v for k, v in os.environ.items() if k != "BARPACK_THREADS"}
    env["PYTHONPATH"] = str(ROOT / "src")
    cmd = [sys.executable, str(HERE / "worker.py"), *args]
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=env, capture_output=True, text=True,
                              timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired as exc:
        raise RunFailed(f"worker exceeded the time limit: {' '.join(args)}") from exc
    if proc.returncode != 0:
        raise RunFailed(f"worker exited {proc.returncode}: {proc.stderr.strip()[-2000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def _git_sha():
    """Read from .git without running git, which would search outside the
    checkout."""
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            return (ROOT / ".git" / ref[5:]).read_text().strip()
        return ref
    except OSError:
        return "unknown"


def environment():
    src = ROOT / "src" / "barpack"
    return {
        "git_sha": _git_sha(),
        "nproc": os.cpu_count(),
        "src_barpack_lines": sum(len(p.read_text().splitlines())
                                 for p in sorted(src.glob("*.py"))),
    }


def run_workload(workload, seed, seconds, trace, smoke=False):
    """Set-up probes, then the measured worker. Returns the full report."""
    deadline = time.monotonic() + TIME_LIMIT_S
    base = ["--workload", workload, "--seed", str(seed)] + (["--smoke"] if smoke else [])
    OUT.mkdir(exist_ok=True)
    tag = f"{workload}-seed{seed}-trace{trace}" + ("-smoke" if smoke else "")
    setups = [_worker(base + ["--setup-only"], deadline) for _ in range(SETUP_REPS)]
    spans_out = ["--spans-out", str(OUT / f"{tag}-spans.json")] if trace else []
    report = _worker(base + ["--seconds", str(seconds), "--trace", str(trace), *spans_out],
                     deadline)
    setups.append(report)
    report["metrics"]["setup_s"] = statistics.median(s["setup_s"] for s in setups)
    report["setup_samples"] = [[s["setup_s"], s["setup_raw_s"]] for s in setups]
    report.update(seed=seed, seconds=seconds, trace=trace, smoke=smoke,
                  environment=environment())
    (OUT / f"{tag}.json").write_text(json.dumps(report, indent=1) + "\n")
    return report


def load_spec():
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def result_line(report, listed):
    """The result the benchmark's contract asks for; a listed metric the
    report lacks is a KeyError."""
    metrics = {m["name"]: {"value": report["metrics"][m["name"]], "unit": m["unit"]}
               for m in listed}
    return {"correct": report["failed"] == 0, "attempted": report["attempted"],
            "failed": report["failed"], "metrics": metrics}


def smoke():
    """Every workload at tiny sizes, traced and untraced: every metric in
    BENCHMARK.json is emitted, no call fails, and the fingerprint and exact
    counts repeat across runs."""
    spec = load_spec()
    errors = []
    for w in spec["workloads"]:
        seen = set()
        for trace in (0, 0, 1):
            report = run_workload(w["name"], 1, 0.5, trace, smoke=True)
            try:
                line = result_line(report, spec[METRIC_LISTS[trace]])
            except KeyError as exc:
                errors.append(f"{w['name']}: metric {exc} not emitted")
                continue
            values = [m["value"] for m in line["metrics"].values()]
            if line["failed"] or line["attempted"] < 1:
                errors.append(f"{w['name']}: failures {report['problems']}")
            if not all(isinstance(v, (int, float)) and math.isfinite(v) for v in values):
                errors.append(f"{w['name']}: non-finite metric in {line['metrics']}")
            if trace == 0 and not all(v > 0 for v in values):
                errors.append(f"{w['name']}: an end-to-end metric is 0: {line['metrics']}")
            seen.add(json.dumps([report["fingerprint"], report["counts"]]))
        if len(seen) != 1:
            errors.append(f"{w['name']}: fingerprint or counts differ across runs: {seen}")
        print(f"smoke {w['name']}: {sorted(seen)}")
    for e in errors:
        print(f"smoke FAILED: {e}", file=sys.stderr)
    return 1 if errors else 0


def main(argv=None) -> int:
    spec = load_spec()
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=[w["name"] for w in spec["workloads"]])
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=spec["run_seconds"])
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true",
                    help="run every workload at tiny sizes and check the output")
    args = ap.parse_args(argv)
    if not (ROOT / "src" / "barpack" / "__init__.py").is_file():
        print(f"no barpack sources under {ROOT / 'src'}; run inside a full checkout",
              file=sys.stderr)
        return 2
    if not args.smoke and args.workload is None:
        ap.error("--workload is required unless --smoke is given")
    if not 0 < args.seconds <= 120:
        ap.error("--seconds must be in (0, 120]")
    try:
        if args.smoke:
            return smoke()
        report = run_workload(args.workload, args.seed, args.seconds, args.trace)
    except RunFailed as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1
    print(json.dumps(report))
    print(json.dumps(result_line(report, spec[METRIC_LISTS[args.trace]])))
    return 0 if report["failed"] == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
