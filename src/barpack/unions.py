"""Union algebra over charts and construction of the union graph.

Two charts form a union when a suffix of one overlaps a prefix of the
other by t cells (t = 1 or 2) without any shared cell exceeding the strip
height. Merging realizes the union and keeps track of where each original
two-bar chart ended up (its provenance offset).

The union graph is a plain matching Graph whose edges are (left, right, t):
chart left goes first, the pair shares t cells, and t, the cells the union
saves, is the edge's weight. The graph also carries the matcher's adjacency
map, so the matcher does not index it again. The cardinality matcher reads
every weight as 1.
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


def build_graph(charts, denominator: int) -> Graph:
    """Union graph over the given charts: one edge (left, right, t) per
    pair u < v with a feasible union; the largest t wins, and u goes left
    on a tie. Chart left goes first and the two share t in {1, 2} cells,
    which is also the edge's weight. Edges come in (u, v) order, whichever
    end goes first, so the graph's adj, adj[v] = {w: t}, lists each
    vertex's neighbours in ascending order, as _index would.

    A union reads only the first two and last two cells of each side, so
    those are read once. A chart shorter than two cells stands in inf for
    the cells it lacks: no overlap fits inf, just as no overlap may be
    longer than a chart.
    """
    charts = list(charts)
    if not charts:
        raise ValueError("cannot build a union graph over zero charts")
    inf = float("inf")
    first = [ch.cells[0] if ch.cells else inf for ch in charts]
    second = [ch.cells[1] if len(ch.cells) > 1 else inf for ch in charts]
    penult = [ch.cells[-2] if len(ch.cells) > 1 else inf for ch in charts]
    last = [ch.cells[-1] if ch.cells else inf for ch in charts]
    n, d = len(charts), denominator
    # one int object per vertex, shared by every edge tuple that names it
    ids = list(range(n))
    edges = []
    for u in ids:
        # room left beside u's boundary cells: t = 2 before t = 1, u left first
        rp, rl, rf, rs = d - penult[u], d - last[u], d - first[u], d - second[u]
        s = u + 1
        for v, fv, sv, pv, lv in zip(ids[s:], first[s:], second[s:],
                                     penult[s:], last[s:]):
            if fv <= rp and sv <= rl:
                edges.append((u, v, 2))
            elif pv <= rf and lv <= rs:
                edges.append((v, u, 2))
            elif fv <= rl:
                edges.append((u, v, 1))
            elif lv <= rf:
                edges.append((v, u, 1))
    edges = tuple(edges)  # before adj, so the list is gone by then
    adj = [{} for _ in ids]
    for u, v, t in edges:
        adj[u][v] = adj[v][u] = t
    return Graph(n, edges, adj)

