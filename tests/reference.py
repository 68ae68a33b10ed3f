"""Independent references the tests compare the library against.

brute_force_matching enumerates every matching, is_valid_matching checks
that a matching's edges are vertex-disjoint, and best_union tries the four
candidate unions of a chart pair one by one. None of them runs in the
library; each is the slow, obvious version of what a library function does.
"""

from barpack.matching import Graph, Matching, _index
from barpack.unions import Chart, union_feasible


def is_valid_matching(g: Graph, m: Matching) -> bool:
    used = set()
    for i in m.edge_indices:
        u, v, _ = g.edges[i]
        if u in used or v in used:
            return False
        used.update((u, v))
    return True


def brute_force_matching(g: Graph, objective: str = "weight") -> Matching:
    """Exhaustively enumerate all matchings and return an optimum.

    Only meant as a test oracle; refuses graphs with more than 24 edges.
    objective is "weight" or "cardinality".
    """
    _index(g)
    if objective not in ("weight", "cardinality"):
        raise ValueError(f"unknown objective {objective!r}")
    if len(g.edges) > 24:
        raise ValueError(f"{len(g.edges)} edges exceed the enumeration guard of 24")

    best_value = 0
    best: list[int] = []
    chosen: list[int] = []
    used = [False] * g.num_vertices

    def value_of(indices) -> int:
        if objective == "cardinality":
            return len(indices)
        return sum(g.edges[i][2] for i in indices)

    def explore(next_edge: int) -> None:
        nonlocal best_value, best
        v = value_of(chosen)
        if v > best_value:
            best_value = v
            best = list(chosen)
        for i in range(next_edge, len(g.edges)):
            u, w, _ = g.edges[i]
            if used[u] or used[w]:
                continue
            used[u] = used[w] = True
            chosen.append(i)
            explore(i + 1)
            chosen.pop()
            used[u] = used[w] = False

    explore(0)
    return Matching(frozenset(best))


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
