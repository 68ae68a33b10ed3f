"""Union algebra over charts and construction of the union graph.

Two charts form a union when a suffix of one overlaps a prefix of the
other by t cells (t = 1 or 2) without any shared cell exceeding the strip
height. Merging realizes the union and keeps track of where each original
two-bar chart ended up (its provenance offset).
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import InfeasibleMerge, OverlapTooLarge
from .matching import Graph
from .model import BarChart

Provenance = tuple[tuple[int, int], ...]


@dataclass(frozen=True)
class Chart:
    """A (possibly merged) chart: cell load numerators plus provenance.

    provenance lists (original id, offset) pairs; offset is the 0-based
    cell index of that chart's first bar inside this chart.
    """

    cells: tuple[int, ...]
    provenance: Provenance

    def __len__(self) -> int:
        return len(self.cells)

    def mass(self) -> int:
        return sum(self.cells)


def chart_from_bars(chart: BarChart) -> Chart:
    return Chart((chart.a, chart.b), ((chart.id, 0),))


def union_feasible(left: Chart, right: Chart, t: int, denominator: int) -> bool:
    """True iff overlapping left's last t cells with right's first t keeps
    every shared cell at or below the strip height."""
    if t not in (1, 2) or t > min(len(left), len(right)):
        raise OverlapTooLarge(f"overlap {t} invalid for lengths "
                              f"{len(left)} and {len(right)}")
    tail = left.cells[len(left) - t:]
    return all(x + y <= denominator for x, y in zip(tail, right.cells[:t]))


def merge(left: Chart, right: Chart, t: int, denominator: int) -> Chart:
    """Realize the t-cell union of left before right."""
    if not union_feasible(left, right, t, denominator):
        raise InfeasibleMerge(f"overlap of {t} cells would overload a cell")
    shift = len(left) - t
    cells = (left.cells[:shift]
             + tuple(x + y for x, y in zip(left.cells[shift:], right.cells[:t]))
             + right.cells[t:])
    provenance = left.provenance + tuple(
        (cid, off + shift) for cid, off in right.provenance)
    return Chart(cells, provenance)


def best_union(x: Chart, y: Chart, denominator: int):
    """Best feasible union of two distinct charts, or None.

    Among the up-to-four candidates (two orientations, t in {1, 2}) the
    largest t wins; ties prefer x before y. Returns (x_first, t).
    """
    for t in (2, 1):
        if t > min(len(x), len(y)):
            continue
        for x_first in (True, False):
            left, right = (x, y) if x_first else (y, x)
            if union_feasible(left, right, t, denominator):
                return x_first, t
    return None


@dataclass(frozen=True)
class UnionGraph(Graph):
    """The union graph as the matcher reads it: (u, v, weight) edges with
    u < v, sorted by (u, v), plus best[i], the (u_first, t) that
    best_union(u, v) gives edge i. The weight is t on weighted graphs and
    1 otherwise."""

    best: tuple[tuple[bool, int], ...]


def build_graph(charts, denominator: int, weighted: bool) -> UnionGraph:
    """Union graph over the given charts: one edge per unordered pair that
    admits a feasible union, realized exactly as best_union would.

    A union reads only the first two and last two cells of each side, so
    those are read once. A chart shorter than two cells stands in inf for
    the cells it lacks: no overlap fits inf, just as best_union skips an
    overlap longer than a chart.
    """
    charts = list(charts)
    if not charts:
        raise ValueError("cannot build a union graph over zero charts")
    inf = float("inf")
    first = [ch.cells[0] if ch.cells else inf for ch in charts]
    second = [ch.cells[1] if len(ch.cells) > 1 else inf for ch in charts]
    penult = [ch.cells[-2] if len(ch.cells) > 1 else inf for ch in charts]
    last = [ch.cells[-1] if ch.cells else inf for ch in charts]
    n, d, w2 = len(charts), denominator, 2 if weighted else 1
    # one int object per vertex, shared by every edge tuple that names it
    ids = list(range(n))
    edges, best = [], []
    for u in ids:
        # room left beside u's boundary cells, tried in best_union's order
        rp, rl, rf, rs = d - penult[u], d - last[u], d - first[u], d - second[u]
        s = u + 1
        for v, fv, sv, pv, lv in zip(ids[s:], first[s:], second[s:],
                                     penult[s:], last[s:]):
            if fv <= rp and sv <= rl:
                edges.append((u, v, w2))
                best.append((True, 2))
            elif pv <= rf and lv <= rs:
                edges.append((u, v, w2))
                best.append((False, 2))
            elif fv <= rl:
                edges.append((u, v, 1))
                best.append((True, 1))
            elif lv <= rf:
                edges.append((u, v, 1))
                best.append((False, 1))
    return UnionGraph(n, tuple(edges), tuple(best))


def graph_to_edge_list(graph: UnionGraph) -> str:
    """Plain 'u v weight' lines, for debugging."""
    return "".join(f"{u} {v} {w}\n" for u, v, w in graph.edges)
