"""Verification gate and output fingerprint.

The checks are plain comparisons made here, so they hold under
`python -O`, where the library's own asserts vanish.
"""

from __future__ import annotations

import hashlib
import json
from fractions import Fraction

import barpack

RATIO_LIMIT = Fraction(3, 2)


def check_call(inst, exact, packs) -> list[str]:
    """Problems found in one call's outputs; empty when all checks pass."""
    problems = []
    for algo, res in packs:
        if not barpack.is_feasible(inst, res.packing):
            problems.append(f"{algo}: packing is infeasible")
            continue
        if barpack.length(inst, res.packing) != res.length:
            problems.append(f"{algo}: reported length {res.length} is not the packing's")
        if 2 * inst.n - res.trace.total_savings() != res.length:
            problems.append(f"{algo}: 2n - savings != length {res.length}")
    if exact is None:
        return problems
    lb = barpack.lower_bound(inst)
    if not barpack.is_feasible(inst, exact.packing):
        return problems + ["exact: packing is infeasible"]
    if barpack.length(inst, exact.packing) != exact.opt_length:
        problems.append("exact: reported length is not the packing's")
    if exact.opt_length < lb:
        problems.append(f"exact: length {exact.opt_length} below lower bound {lb}")
    if not exact.proven:
        return problems
    # big non-increasing instances satisfy both packers' 3/2 theorems
    for algo, res in packs:
        if res.length < exact.opt_length:
            problems.append(f"{algo}: length {res.length} beats the proven optimum")
        if Fraction(res.length, exact.opt_length) > RATIO_LIMIT:
            problems.append(f"{algo}: ratio {res.length}/{exact.opt_length} above 3/2")
    return problems


def output_record(exact, packs) -> list:
    """Everything a call returned that a changed algorithm could change."""
    record = [[algo, list(res.packing.starts),
               [[r.cardinality, r.weight, r.savings] for r in res.trace.rounds]]
              for algo, res in packs]
    if exact is not None:
        record.append(["exact", exact.opt_length, exact.proven,
                       exact.nodes_explored, list(exact.packing.starts)])
    return record


def digest(records) -> str:
    text = json.dumps(records, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()


def counts(outputs) -> dict:
    """Exact counts over one pass of the instance set."""
    packs = [res for _, ps in outputs for _, res in ps]
    exacts = [ex for ex, _ in outputs if ex is not None]
    return {
        "unions.edges": sum(r.graph_edges for res in packs for r in res.trace.rounds),
        "rounds": sum(len(res.trace.rounds) for res in packs),
        "exact.nodes": sum(ex.nodes_explored for ex in exacts),
    }
