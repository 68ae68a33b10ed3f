"""Experiment reporting: per-run rows, ratio bounds, CSV output.

The two analytic ratio bounds for big instances are functions of
x = (cells saved in round one) / n: a dual-side bound 1 + 1/(3 - 2x) that
grows with x, and a capacity-side bound 2 - x that falls with x. They
cross at x = 1/2, where both equal 3/2.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass
from types import SimpleNamespace

from .errors import InvariantViolation
from .model import Instance, is_feasible, length
from .packers import PackResult

CSV_HEADER = "instance,n,algo,L,m1,w1,opt,lb,ratio,fx,gx,status"


def ratio_bound_dual(x: float) -> float:
    """1 + 1/(3 - 2x), increasing on [0, 1]."""
    return 1.0 + 1.0 / (3.0 - 2.0 * x)


def ratio_bound_capacity(x: float) -> float:
    """2 - x, decreasing on [0, 1]."""
    return 2.0 - x


@dataclass(frozen=True)
class ReportRow:
    instance: str
    n: int
    algo: str
    L: int | None = None
    m1: int | None = None
    w1: int | None = None
    opt: int | None = None  # only when proven by the exact solver
    lb: int | None = None
    status: str = "ok"

    def ratio(self) -> float | None:
        if self.L is None:
            return None
        if self.opt:
            return self.L / self.opt
        if self.lb:
            return self.L / self.lb
        return None

    def x(self) -> float | None:
        # round-one realized savings per chart
        if self.w1 is None or self.n <= 0:
            return None
        return self.w1 / self.n


def row_for_run(name: str, inst: Instance, algo: str, result: PackResult,
                opt: int | None, lb: int | None,
                matching_based: bool = True) -> ReportRow:
    if not is_feasible(inst, result.packing):
        raise InvariantViolation(f"{algo} returned an infeasible packing")
    if length(inst, result.packing) != result.length:
        raise InvariantViolation(f"{algo} reported length {result.length}, "
                                 "not its packing's")
    if not matching_based:
        # no matching rounds, so the x = w1/n bounds do not apply
        return ReportRow(name, inst.n, algo, result.length, opt=opt, lb=lb)
    rounds = result.trace.rounds
    m1 = rounds[0].cardinality if rounds else 0
    w1 = rounds[0].savings if rounds else 0
    return ReportRow(name, inst.n, algo, result.length, m1, w1, opt, lb)


def _fmt(value) -> str:
    if value is None:
        return ""
    if isinstance(value, float):
        return f"{value:.3f}"
    return str(value)


def rows_to_csv(rows, include_header: bool = True) -> str:
    """Fixed-column CSV; ratio/fx/gx cells stay empty without a denominator.
    A field with a comma, quote, newline or carriage return is quoted."""
    lines = []
    # the writer quotes the terminator's characters, so "\r\n" has it quote a
    # bare "\r" too; each row, written in one call, then ends in "\n"
    writer = csv.writer(SimpleNamespace(write=lines.append), lineterminator="\r\n")
    if include_header:
        writer.writerow(CSV_HEADER.split(","))
    for row in rows:
        x = row.x()
        fx = ratio_bound_dual(x) if x is not None and row.status == "ok" else None
        gx = ratio_bound_capacity(x) if x is not None and row.status == "ok" else None
        writer.writerow([row.instance, _fmt(row.n), row.algo, _fmt(row.L),
                         _fmt(row.m1), _fmt(row.w1), _fmt(row.opt), _fmt(row.lb),
                         _fmt(row.ratio()), _fmt(fx), _fmt(gx), row.status])
    return "".join(line[:-2] + "\n" for line in lines)


def max_ratio_by_algo(rows) -> dict[str, float]:
    worst: dict[str, float] = {}
    for row in rows:
        r = row.ratio()
        if r is None:
            continue
        if row.algo not in worst or r > worst[row.algo]:
            worst[row.algo] = r
    return worst
