"""Packing algorithms: iterated-matching heuristics and a first-fit baseline.

The matching-based packers repeat one step: build the union graph over the
current charts, compute a maximum (cardinality or weight) matching, merge
every matched pair using its recorded best overlap, and stop once no pair
can be combined. The final charts are laid out disjointly and converted to
a per-chart start-cell packing along their provenance.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from operator import itemgetter

from .errors import InvariantViolation, NotAMatching, NotMaxWeight, ProvenanceGap
from .matching import Graph, matching_weight, max_cardinality_matching, max_weight_matching
from .model import Instance, Packing, compact, length
from .unions import build_graph, chart_from_bars, merge


@dataclass(frozen=True)
class RoundStats:
    """One matching round: matched pairs, their weight, cells saved, and
    what the union graph offered (edge count, largest overlap)."""

    cardinality: int
    weight: int
    savings: int
    graph_edges: int
    max_union: int


@dataclass(frozen=True)
class RunTrace:
    initial_charts: int
    rounds: tuple[RoundStats, ...]
    final_charts: int

    def total_savings(self) -> int:
        return sum(r.savings for r in self.rounds)


@dataclass(frozen=True)
class PackResult:
    packing: Packing
    trace: RunTrace
    length: int


def realize(final_charts) -> Packing:
    """Lay charts consecutively (ascending first-provenance id) and derive
    each original chart's start cell from its provenance offset."""
    charts = sorted(final_charts, key=lambda c: c.provenance[0][0])
    ids = sorted(cid for ch in charts for cid, _ in ch.provenance)
    if ids != list(range(len(ids))) or not ids:
        raise ProvenanceGap("provenance must cover ids 0..n-1 exactly once")
    starts = [0] * len(ids)
    cursor = 1
    for ch in charts:
        for cid, off in ch.provenance:
            starts[cid] = cursor + off
        cursor += len(ch.cells)
    return Packing(tuple(starts))


def _finish(inst: Instance, charts, rounds) -> PackResult:
    # realize leaves no gap (every chart cell holds a bar): the length telescopes
    packing = realize(charts)
    realized = length(inst, packing)
    trace = RunTrace(inst.n, tuple(rounds), len(charts))
    if realized != 2 * inst.n - trace.total_savings():
        raise InvariantViolation(f"realized length {realized} is not 2n - savings")
    return PackResult(packing, trace, realized)


def _merge_round(charts, graph: Graph, chosen, denominator):
    """Merge the pair of each chosen edge id; the merged chart takes the
    place of the smaller index."""
    merged, gone, savings = {}, set(), 0
    for i in chosen:
        left, right, t = graph.edges[i]
        merged[min(left, right)] = merge(charts[left], charts[right], t, denominator)
        gone.add(max(left, right))
        savings += t
    return [merged.get(c, ch) for c, ch in enumerate(charts) if c not in gone], savings


def _round_stats(graph: Graph, chosen, savings, weighted) -> RoundStats:
    return RoundStats(
        cardinality=len(chosen),
        weight=savings if weighted else len(chosen),
        savings=savings,
        graph_edges=len(graph.edges),
        max_union=max(map(itemgetter(2), graph.edges), default=0),
    )


def _run_rounds(inst: Instance, weighted: bool, forced_first=None) -> PackResult:
    charts = [chart_from_bars(c) for c in inst.charts]
    rounds = []
    # a forced pairing is the first pass, checked even over a single chart
    while len(charts) > 1 or forced_first is not None:
        graph = build_graph(charts, inst.denominator)
        if forced_first is not None:
            chosen, forced_first = _validate_forced(graph, forced_first), None
        elif not graph.edges:
            break
        else:
            m = max_weight_matching(graph) if weighted else max_cardinality_matching(graph)
            chosen = sorted(m.edge_indices)
        if not chosen:  # an empty pairing is maximum only if no union (t >= 1) exists
            break
        charts, savings = _merge_round(charts, graph, chosen, inst.denominator)
        rounds.append(_round_stats(graph, chosen, savings, weighted))
        del graph  # its edges and adjacency go before the next build
    return _finish(inst, charts, rounds)


def _validate_forced(graph: Graph, pairs):
    """Check the supplied id pairs form a maximum-weight matching of the
    first-round graph and return their edge ids."""
    by_pair = {frozenset((u, v)): i for i, (u, v, _) in enumerate(graph.edges)}
    used = set()
    chosen = []
    for i, j in pairs:
        edge = by_pair.get(frozenset((i, j)))
        if edge is None:
            raise NotAMatching(f"charts {i} and {j} admit no union")
        if i in used or j in used:
            raise NotAMatching(f"chart {i if i in used else j} is paired twice")
        used.update((i, j))
        chosen.append(edge)
    optimum = matching_weight(graph, max_weight_matching(graph))
    forced_weight = sum(graph.edges[i][2] for i in chosen)
    if forced_weight < optimum:
        raise NotMaxWeight(
            f"forced matching weighs {forced_weight}, optimum is {optimum}")
    return chosen


def pack_matching(inst: Instance) -> PackResult:
    """Iterated maximum-cardinality matching over the union graph, every
    edge counted as 1 (CLI algo "m"). Matched pairs still merge with their
    best overlap, so a round may save more cells than it has matched edges."""
    return _run_rounds(inst, weighted=False)


def pack_weighted_matching(inst: Instance) -> PackResult:
    """Iterated maximum-weight matching over the union graph
    (CLI algo "mw"); edge weights are the cells their union saves."""
    return _run_rounds(inst, weighted=True)


def pack_forced_first_matching(inst: Instance, first_pairs) -> PackResult:
    """Like pack_weighted_matching but realizing the supplied (id, id)
    pairs as round one, after verifying they attain maximum weight.
    Reproduces adversarial runs deterministically."""
    return _run_rounds(inst, weighted=True, forced_first=list(first_pairs))


def pack_first_fit(inst: Instance, order=None) -> PackResult:
    """Baseline: place each chart at the smallest feasible start cell.

    order is a permutation of ids (defaults to id order). The trace has no
    matching rounds.
    """
    if order is None:
        order = range(inst.n)
    order = list(order)
    if sorted(order) != list(range(inst.n)):
        raise ValueError("order must be a permutation of the instance ids")
    denom = inst.denominator
    # after j charts no cell past 2j holds a bar, so every start is at most
    # 2n - 1 and loads[s] stays inside 2n entries
    loads = [0] * (2 * inst.n)
    starts = [0] * inst.n
    for cid in order:
        chart = inst.charts[cid]
        s = 1
        while True:
            if loads[s - 1] + chart.a <= denom and loads[s] + chart.b <= denom:
                loads[s - 1] += chart.a
                loads[s] += chart.b
                starts[cid] = s
                break
            s += 1
    packing = compact(inst, Packing(tuple(starts)))
    trace = RunTrace(inst.n, (), inst.n)
    return PackResult(packing, trace, length(inst, packing))


# ---------------------------------------------------------------------------
# Result serialization: {"length":L,"starts":[...],"trace":[{"m","w","s"},...]}

def pack_result_to_json(result: PackResult, extra=None) -> str:
    payload = {
        "length": result.length,
        "starts": list(result.packing.starts),
        "trace": [{"m": r.cardinality, "w": r.weight, "s": r.savings}
                  for r in result.trace.rounds],
    }
    if extra:
        payload.update(extra)
    return json.dumps(payload, separators=(",", ":"))
