"""Command-line interface: gen, solve, compare, render, export-blp.

Exit codes: 0 success (including unproven exact results), 1 usage error,
2 invalid input, 3 internal fault (an invariant violation or any other
unexpected exception). Outputs carry no timestamps, so identical
invocations produce byte-identical files.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from concurrent.futures import ProcessPoolExecutor
from pathlib import Path

from .errors import BarpackError
from .exact import DEFAULT_NODE_BUDGET, export_blp, lower_bound, solve_exact
from .generators import FAMILIES, tight_family_forced_pairs
from .model import (
    DEFAULT_DENOMINATOR,
    Instance,
    instance_from_json,
    instance_to_json,
    packing_from_json,
)
from .packers import (
    PackResult,
    RunTrace,
    pack_first_fit,
    pack_forced_first_matching,
    pack_matching,
    pack_result_to_json,
    pack_weighted_matching,
)
from .render import render_svg
from .report import ReportRow, max_ratio_by_algo, row_for_run, rows_to_csv

# the packers solve and compare run by name; solve also offers "exact"
PACKERS = {"m": pack_matching, "mw": pack_weighted_matching, "ff": pack_first_fit}


class _Parser(argparse.ArgumentParser):
    # argparse exits 2 on usage errors by default; the contract wants 1
    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


def _build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="barpack",
                     description="Pack two-bar charts into a unit-height strip.")
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)

    p_gen = sub.add_parser("gen", help="generate an instance file")
    p_gen.add_argument("--family", required=True, choices=FAMILIES)
    p_gen.add_argument("--n", type=int, help="chart count for random families")
    p_gen.add_argument("--k", type=int, help="size parameter of the tight family")
    p_gen.add_argument("--seed", type=int, default=0)
    p_gen.add_argument("--denominator", type=int, default=DEFAULT_DENOMINATOR)
    p_gen.add_argument("--out", required=True)
    p_gen.set_defaults(func=_cmd_gen)

    p_solve = sub.add_parser("solve", help="pack one instance")
    p_solve.add_argument("instance")
    p_solve.add_argument("--algo", required=True, choices=(*PACKERS, "exact"))
    p_solve.add_argument("--force-first", default=None,
                         help='first-round pairing for --algo mw: "g-r" or "0-2,1-3"')
    p_solve.add_argument("--budget", type=int, default=None,
                         help="node budget for --algo exact")
    p_solve.add_argument("--out", default=None, help="result JSON path")
    p_solve.set_defaults(func=_cmd_solve)

    p_cmp = sub.add_parser("compare", help="run algorithms over an instance set")
    p_cmp.add_argument("instances", nargs="*", help="instance JSON files")
    p_cmp.add_argument("--family", choices=FAMILIES, help="generate a sweep instead")
    p_cmp.add_argument("--n", type=int)
    p_cmp.add_argument("--k", type=int)
    p_cmp.add_argument("--count", type=int, default=1, help="instances in the sweep")
    p_cmp.add_argument("--seed0", type=int, default=0, help="first seed of the sweep")
    p_cmp.add_argument("--denominator", type=int, default=DEFAULT_DENOMINATOR)
    p_cmp.add_argument("--algos", default="m,mw",
                       help=f"comma list from {','.join(PACKERS)}")
    p_cmp.add_argument("--force-first", default=None)
    p_cmp.add_argument("--oracle", action="store_true", help="add exact OPT per instance")
    p_cmp.add_argument("--budget", type=int, default=None, help="node budget for --oracle")
    p_cmp.add_argument("--out", default=None, help="CSV path (appends if present)")
    p_cmp.set_defaults(func=_cmd_compare)

    p_render = sub.add_parser("render", help="draw a packing as SVG")
    p_render.add_argument("instance")
    p_render.add_argument("packing", help="packing or result JSON file")
    p_render.add_argument("--out", required=True)
    p_render.set_defaults(func=_cmd_render)

    p_blp = sub.add_parser("export-blp", help="write the boolean model as LP text")
    p_blp.add_argument("instance")
    p_blp.add_argument("--jmax", type=int, default=None,
                       help="cell horizon (default: weighted-matching length)")
    p_blp.add_argument("--out", required=True)
    p_blp.set_defaults(func=_cmd_export_blp)

    return parser


def _load_instance(path: str) -> Instance:
    return instance_from_json(Path(path).read_text())


def _run_options(args, algos, exact: bool):
    """Check --budget and --force-first before any instance runs; returns
    the node budget of the exact search and the forced pairing: None,
    "g-r" or a list of (id, id) pairs."""
    if args.budget is not None and not exact:
        raise BarpackError("--budget only applies to solve --algo exact and compare --oracle")
    budget = DEFAULT_NODE_BUDGET if args.budget is None else args.budget
    if budget < 0:
        raise BarpackError(f"--budget {budget} must be at least 0")
    if args.force_first is None:
        return budget, None
    if "mw" not in algos:
        raise BarpackError("--force-first only applies to the mw algorithm")
    if args.force_first == "g-r":
        return budget, "g-r"
    pairs = []
    for part in args.force_first.split(","):
        left, _, right = part.partition("-")
        try:
            pairs.append((int(left), int(right)))
        except ValueError:
            raise BarpackError(f"--force-first part {part!r} is not two chart ids "
                               "joined by '-'") from None
    return budget, pairs


def _run_packer(algo: str, inst: Instance, forced) -> tuple[str, PackResult]:
    """(report label, result) of one packer run; mw with a forced first
    round runs as mw-forced."""
    if algo == "mw" and forced is not None:
        pairs = tight_family_forced_pairs(inst) if forced == "g-r" else forced
        return "mw-forced", pack_forced_first_matching(inst, pairs)
    return algo, PACKERS[algo](inst)


def _family_instances(args, seeds) -> list[tuple[str, Instance]]:
    """(name, instance) of --family for each seed, none without --family.
    Tight is sized by --k, the others by --n; a size flag nothing reads is an error."""
    reads = args.family and ("k" if args.family == "tight" else "n")
    for flag in ("n", "k"):
        if getattr(args, flag) is not None and flag != reads:
            where = f"--family {args.family}" if reads else "instance files"
            raise BarpackError(f"--{flag} does not apply to {where}")
    if not reads:
        return []
    size = getattr(args, reads)
    if size is None:
        raise BarpackError(f"--family {args.family} needs --{reads}")
    return [(f"{args.family}-{size}-s{seed}", FAMILIES[args.family](size, seed, args.denominator))
            for seed in seeds]


def _cmd_gen(args) -> int:
    [(_, inst)] = _family_instances(args, [args.seed])
    Path(args.out).write_text(instance_to_json(inst))
    print(f"wrote {args.out} n={inst.n}")
    return 0


def _cmd_solve(args) -> int:
    budget, forced = _run_options(args, (args.algo,), args.algo == "exact")
    inst = _load_instance(args.instance)
    extra, tail = None, ""
    if args.algo == "exact":
        res = solve_exact(inst, budget=budget)
        result = PackResult(res.packing, RunTrace(inst.n, (), inst.n), res.opt_length)
        extra, tail = {"proven": res.proven}, f" proven={json.dumps(res.proven)}"
    else:
        result = _run_packer(args.algo, inst, forced)[1]
    print(f"algo={args.algo} n={inst.n} L={result.length} "
          f"rounds={len(result.trace.rounds)}{tail}")
    if args.out:
        Path(args.out).write_text(pack_result_to_json(result, extra))
    return 0


def _compare_worker(payload) -> list[ReportRow]:
    """Rows for one instance, given as a file path or as an Instance."""
    name, source, algos, forced, oracle, budget = payload
    try:
        inst = source if isinstance(source, Instance) else _load_instance(source)
    except (BarpackError, ValueError, OSError) as exc:  # ValueError: not text or not JSON
        return [ReportRow(name, 0, "-", status=f"error: {exc}")]
    lb = lower_bound(inst)
    opt = None
    if oracle:
        res = solve_exact(inst, budget=budget)
        if res.proven:
            opt = res.opt_length
    rows = []
    for algo in algos:
        try:
            label, result = _run_packer(algo, inst, forced)
            rows.append(row_for_run(name, inst, label, result, opt, lb,
                                    matching_based=algo != "ff"))
        except BarpackError as exc:
            rows.append(ReportRow(name, inst.n, algo, opt=opt, lb=lb,
                                  status=f"error: {exc}"))
    return rows


def _worker_count(requested: str | None, jobs: int, cpus: int | None) -> int:
    """Worker processes for compare: BARPACK_THREADS (unset means 1),
    clamped to the CPU count and to the number of jobs."""
    if requested is None:
        return 1
    try:
        count = int(requested)
    except ValueError:
        raise BarpackError(f"BARPACK_THREADS={requested!r} is not an integer") from None
    if count < 1:
        raise BarpackError(f"BARPACK_THREADS={count} must be at least 1")
    return max(1, min(count, cpus or 1, jobs))


def _cmd_compare(args) -> int:
    algos = tuple(a for a in args.algos.split(",") if a)
    if not algos:
        raise BarpackError(f"--algos {args.algos!r} names no algorithm")
    for a in algos:
        if a not in PACKERS:
            raise BarpackError(f"unknown algo {a!r} (compare accepts {', '.join(PACKERS)})")
    budget, forced = _run_options(args, algos, args.oracle)

    if args.family and args.count < 1:
        raise BarpackError(f"--count {args.count} must be at least 1")
    sources = [(Path(path).name, path) for path in args.instances]
    sources += _family_instances(args, range(args.seed0, args.seed0 + args.count))
    payloads = [(name, source, algos, forced, args.oracle, budget)
                for name, source in sources]

    threads = _worker_count(os.environ.get("BARPACK_THREADS"), len(payloads),
                            os.cpu_count())
    if threads > 1:
        with ProcessPoolExecutor(max_workers=threads) as pool:
            per_instance = list(pool.map(_compare_worker, payloads))
    else:
        per_instance = [_compare_worker(p) for p in payloads]
    rows = [row for batch in per_instance for row in batch]

    if args.out:
        out = Path(args.out)
        fresh = not out.exists() or out.stat().st_size == 0
        csv_text = rows_to_csv(rows, include_header=fresh)
        if fresh:
            csv_text = "# barpack report v1\n" + csv_text
        with out.open("a") as fh:
            fh.write(csv_text)
    else:
        sys.stdout.write(rows_to_csv(rows))

    for algo, worst in sorted(max_ratio_by_algo(rows).items()):
        print(f"algo={algo} max_ratio={worst:.3f}")
    return 0


def _cmd_render(args) -> int:
    inst = _load_instance(args.instance)
    packing = packing_from_json(Path(args.packing).read_text())
    svg = render_svg(inst, packing)
    Path(args.out).write_text(svg)
    print(f"wrote {args.out}")
    return 0


def _cmd_export_blp(args) -> int:
    inst = _load_instance(args.instance)
    jmax = args.jmax
    if jmax is None:
        jmax = pack_weighted_matching(inst).length
    text = export_blp(inst, jmax)
    Path(args.out).write_text(text)
    print(f"wrote {args.out} jmax={jmax}")
    return 0


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    # ValueError covers json.JSONDecodeError
    except (BarpackError, ValueError, OSError) as exc:
        print(f"barpack: {exc}", file=sys.stderr)
        return 2
    except AssertionError as exc:
        print(f"barpack: internal invariant violation: {exc}", file=sys.stderr)
        return 3
    except Exception as exc:  # any other fault is a bug, not bad input
        print(f"barpack: internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
