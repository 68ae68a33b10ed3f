"""Exact maximum matching in general (non-bipartite) graphs.

The weighted solver is the classic primal-dual blossom method (Galil's
survey describes it; Ed Rothberg's C code and its well-known Python ports
fix the bookkeeping conventions used here). Maximum-cardinality matching
is the same solver on unit weights. Whenever all weights are equal every
edge stays tight, so the solver skips the delta 2, 3 and 4 scans and builds
no tight-edge lists. A brute-force enumerator over all matchings doubles as
the independent test oracle.

All arithmetic is integer; with integer weights the optimum is verified
against the dual solution on every call, in the pass that reads back the
matched edge ids.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import InvariantViolation, TooLarge


@dataclass(frozen=True)
class Graph:
    """Simple undirected graph: vertex count plus (u, v, weight) edges."""

    num_vertices: int
    edges: tuple[tuple[int, int, int], ...]


@dataclass(frozen=True)
class Matching:
    """A set of pairwise vertex-disjoint edges, stored by edge index."""

    edge_indices: frozenset[int]

    def cardinality(self) -> int:
        return len(self.edge_indices)


def validate_graph(g: Graph) -> None:
    _index(g)


def _index(g: Graph, unit: bool = False):
    """Check every edge and index it in the same pass: adj[v] maps v's neighbours
    to edge weights (1 throughout if unit) in edge input order, since dicts keep
    insertion order, and catches a duplicate in either orientation. Ids must be
    plain ints: True would stand for vertex 1, and 0.5 for none."""
    n = g.num_vertices
    if type(n) is not int or n < 0:
        raise ValueError(f"vertex count {n!r} must be a non-negative integer")
    adj = [{} for _ in range(n)]
    for u, v, w in g.edges:
        if type(u) is not int or type(v) is not int:
            raise ValueError(f"edge ({u!r}, {v!r}) has a non-integer vertex id")
        if u == v:
            raise ValueError(f"self-loop at vertex {u}")
        if not (0 <= u < n and 0 <= v < n):
            raise ValueError(f"edge ({u}, {v}) out of vertex range")
        if type(w) is not int or w < 0:
            raise ValueError(f"edge ({u}, {v}) weight {w!r} must be a non-negative integer")
        if v in adj[u]:
            raise ValueError(f"duplicate edge {(u, v) if u < v else (v, u)}")
        adj[u][v] = adj[v][u] = 1 if unit else w
    return adj


def matching_pairs(g: Graph, m: Matching) -> tuple[tuple[int, int], ...]:
    return tuple((g.edges[i][0], g.edges[i][1]) for i in sorted(m.edge_indices))


def matching_weight(g: Graph, m: Matching) -> int:
    return sum(g.edges[i][2] for i in m.edge_indices)


def is_valid_matching(g: Graph, m: Matching) -> bool:
    used = set()
    for i in m.edge_indices:
        u, v, _ = g.edges[i]
        if u in used or v in used:
            return False
        used.update((u, v))
    return True


def max_weight_matching(g: Graph) -> Matching:
    """A matching of maximum total weight (not necessarily of maximum
    cardinality). Deterministic for a fixed edge input order."""
    return _blossom_matching(g, unit=False)


def max_cardinality_matching(g: Graph) -> Matching:
    """A matching of maximum cardinality (blossom-based, exact on general
    graphs). Runs the weighted solver on unit weights."""
    return _blossom_matching(g, unit=True)


def brute_force_matching(g: Graph, objective: str = "weight") -> Matching:
    """Exhaustively enumerate all matchings and return an optimum.

    Only meant as a test oracle; refuses graphs with more than 24 edges.
    objective is "weight" or "cardinality".
    """
    validate_graph(g)
    if objective not in ("weight", "cardinality"):
        raise ValueError(f"unknown objective {objective!r}")
    if len(g.edges) > 24:
        raise TooLarge(f"{len(g.edges)} edges exceed the enumeration guard of 24")

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
            u, w, _ = g.edges[i][0], g.edges[i][1], g.edges[i][2]
            if used[u] or used[w]:
                continue
            used[u] = used[w] = True
            chosen.append(i)
            explore(i + 1)
            chosen.pop()
            used[u] = used[w] = False

    explore(0)
    return Matching(frozenset(best))


class _Blossom:
    """A non-trivial blossom: odd alternating cycle over sub-blossoms."""

    __slots__ = ("childs", "edges")

    def leaves(self):
        stack = [*self.childs]
        while stack:
            t = stack.pop()
            if isinstance(t, _Blossom):
                stack.extend(t.childs)
            else:
                yield t


def _walk_start(b, child):
    """Start index and step of the even-length walk from b's child to its base:
    forward from an odd index (made negative, so it wraps to 0), else backward."""
    j = b.childs.index(child)
    if j & 1:
        return j - len(b.childs), 1
    return j, -1


def _walk_edge(b, j, jstep):
    """The edge from child j to child j + jstep, oriented from child j."""
    if jstep == 1:
        return b.edges[j]
    q, p = b.edges[j - 1]
    return p, q


def _verify_optimum(edges, adj, mate, dualvar, blossomdual, blossomparent):
    """Prove mate optimal by complementary slackness against the final (doubled)
    duals and _index's adjacency map, integer-exact, and return the matched edge
    ids. Raises InvariantViolation, so it also runs under python -O."""
    if min(dualvar) < 0 or min(blossomdual.values(), default=0) < 0:
        raise InvariantViolation("matching solver left a negative dual")
    # held[b]: the positive-dual blossoms among b and its ancestors, parents first
    held = {None: frozenset()}
    for b in reversed(blossomdual):
        up = held[blossomparent[b]]
        held[b] = up | {b} if blossomdual[b] else up
    # by vertex: its mate (None if free) and the positive-dual blossoms holding it
    mates = [mate.get(v) for v in range(len(dualvar))]
    inside = [held[blossomparent[v]] for v in range(len(dualvar))]
    matched = []
    for i, (u, v, _) in enumerate(edges):
        s = dualvar[u] + dualvar[v] - 2 * adj[u][v]
        if inside[u] and inside[v]:
            # each blossom holding both ends adds its dual
            for b in inside[u] & inside[v]:
                s += 2 * blossomdual[b]
        if s < 0:
            raise InvariantViolation(f"edge ({u}, {v}) has negative slack {s}")
        if mates[u] == v or mates[v] == u:
            if mates[u] != v or mates[v] != u or s != 0:
                raise InvariantViolation(f"matched edge ({u}, {v}) is one-sided or not tight")
            matched.append(i)
    for v, dual in enumerate(dualvar):
        if mates[v] is None and dual != 0:
            raise InvariantViolation(f"free vertex {v} has dual {dual}")
    for b, dual in blossomdual.items():
        if dual > 0 and (len(b.edges) % 2 == 0 or any(
                mates[u] != v or mates[v] != u for u, v in b.edges[1::2])):
            raise InvariantViolation("a blossom with positive dual is not full")
    return matched


def _tight_lists(adj, dualvar):
    """For each v, its neighbours w with dualvar[v] + dualvar[w] <= 2 * weight."""
    return [[w for w, wt in nbrs.items() if dv + dualvar[w] <= 2 * wt]
            for dv, nbrs in zip(dualvar, adj)]


def _blossom_matching(g: Graph, unit: bool) -> Matching:
    """Core solver: an optimum matching of g by edge id, over unit weights if unit.

    State follows the standard formulation: vertices are labeled S (1) or
    T (2) while alternating trees are grown from free vertices; tight edges
    between S-vertices either close a new blossom or yield an augmenting
    path; when no tight edge is available, the dual variables are adjusted
    by the smallest of the four classic deltas. Weights come from _index's
    adjacency map; duals and inblossom are lists by vertex. State that also
    keys blossoms stays in dicts: their order fixes the delta-3 and end-of-stage
    scans, and with them the weighted tie-breaks.

    The scan reads tight[v], v's neighbours w with dualvar[v] + dualvar[w] <=
    2 * weight in adj order (<=: an edge inside a blossom can have negative
    slack; the scan skips it by its blossom). Duals change only at a dual step,
    which rebuilds the lists unless it ends the solve. Deltas 2 and 3 come from
    a scan of the edges, not from Galil's least-slack cache: a step and a
    rebuild cost O(m), so a solve is O(n^2 m) at worst, not O(n^3). Dual steps
    are rare: perfbench's 16 mw-big solves (gen_big(300), seed 1) run 1,485
    stages, 16 delta-3 steps and no delta-2 or delta-4 step, and read 335k
    tight-list entries where a scan of every adjacency entry read 2.52M.

    Under uniform weights (all equal, or all read as 1 if unit) every edge
    stays tight until the final delta-1 stop, so adj serves as the tight lists
    and the delta 2-4 scans are skipped: duals change only at a delta step,
    and each blossom forms S-labelled with dual 0 and is expanded at its
    stage's end. A drained queue thus leaves no S-S edge between top-level
    blossoms and no S-vertex beside an unlabelled one.

    mate starts empty: every vertex dual starts at top, so until the first
    dual step the tight edges are exactly the top-weight ones and the stages
    are a cardinality solve's over them (same vertex order, same filtered adj
    order, zero-dual blossoms expanded at each stage's end). A warm start
    from that solve's matching would only repeat its last, failed stage.
    """
    adj = _index(g, unit)
    if not g.edges:
        return Matching(frozenset())

    gnodes = range(g.num_vertices)
    weights = {1} if unit else {w for _, _, w in g.edges}
    top, uniform = max(weights), len(weights) == 1
    mate = {}
    free = list(gnodes)
    inblossom = list(gnodes)
    blossomparent = {v: None for v in gnodes}
    blossombase = {v: v for v in gnodes}
    dualvar = [top] * g.num_vertices
    blossomdual = {}
    tight = adj if uniform else _tight_lists(adj, dualvar)

    def assign_label(w, t, v):
        # label the top-level blossom containing w, reached through edge (v, w)
        b = inblossom[w]
        assert label.get(w) is None and label.get(b) is None
        label[w] = label[b] = t
        labeledge[w] = labeledge[b] = (v, w)
        if t == 1:
            # S-blossom: its vertices join the scan queue
            if isinstance(b, _Blossom):
                queue.extend(b.leaves())
            else:
                queue.append(b)
        elif t == 2:
            # T-blossom: its base's mate becomes an S-vertex
            base = blossombase[b]
            assign_label(mate[base], 1, base)

    def scan_blossom(v, w):
        # trace back from v and w; returns the base of a new blossom, or
        # None when the paths reach two different roots (augmenting path)
        path = []
        base = None
        while v is not None:
            b = inblossom[v]
            if label[b] & 4:
                base = blossombase[b]
                break
            assert label[b] == 1
            path.append(b)
            label[b] = 5
            if labeledge[b] is None:
                assert blossombase[b] not in mate
                v = None
            else:
                assert labeledge[b][0] == mate[blossombase[b]]
                v = labeledge[b][0]
                b = inblossom[v]
                assert label[b] == 2
                v = labeledge[b][0]
            if w is not None:
                v, w = w, v
        for b in path:
            label[b] = 1
        return base

    def add_blossom(base, v, w):
        # fold the odd cycle through S-vertices v, w with the given base
        # into a new S-blossom with dual zero
        bb, bv, bw = inblossom[base], inblossom[v], inblossom[w]
        b = _Blossom()
        blossombase[b] = base
        blossomparent[b] = None
        blossomparent[bb] = b
        b.childs = path = []
        b.edges = edgs = [(v, w)]
        while bv != bb:
            blossomparent[bv] = b
            path.append(bv)
            edgs.append(labeledge[bv])
            assert label[bv] == 2 or (
                label[bv] == 1 and labeledge[bv][0] == mate[blossombase[bv]])
            v = labeledge[bv][0]
            bv = inblossom[v]
        path.append(bb)
        path.reverse()
        edgs.reverse()
        while bw != bb:
            blossomparent[bw] = b
            path.append(bw)
            edgs.append((labeledge[bw][1], labeledge[bw][0]))
            assert label[bw] == 2 or (
                label[bw] == 1 and labeledge[bw][0] == mate[blossombase[bw]])
            w = labeledge[bw][0]
            bw = inblossom[w]
        assert label[bb] == 1
        label[b] = 1
        labeledge[b] = labeledge[bb]
        blossomdual[b] = 0
        for v in b.leaves():
            if label[inblossom[v]] == 2:
                # former T-vertex becomes S through the new blossom
                queue.append(v)
            inblossom[v] = b

    def expand_blossom(b, endstage):
        # recursion depth is bounded by blossom nesting, itself < n/2
        for s in b.childs:
            blossomparent[s] = None
            if isinstance(s, _Blossom):
                if endstage and blossomdual[s] == 0:
                    expand_blossom(s, endstage)
                else:
                    for v in s.leaves():
                        inblossom[v] = s
            else:
                inblossom[s] = s
        # a T-blossom expanded mid-stage must relabel its children
        if (not endstage) and label.get(b) == 2:
            entrychild = inblossom[labeledge[b][1]]
            j, jstep = _walk_start(b, entrychild)
            v, w = labeledge[b]
            while j != 0:
                # relabel the T-sub-blossom on the way to the base
                _, q = _walk_edge(b, j, jstep)
                label[w] = None
                label[q] = None
                assign_label(w, 2, v)
                j += jstep
                v, w = _walk_edge(b, j, jstep)
                j += jstep
            # the base keeps label T without stepping to its mate
            bw = b.childs[j]
            label[w] = label[bw] = 2
            labeledge[w] = labeledge[bw] = (v, w)
            j += jstep
            while b.childs[j] != entrychild:
                # children on the other side are relabeled only if reachable
                bv = b.childs[j]
                if label.get(bv) == 1:
                    j += jstep
                    continue
                if isinstance(bv, _Blossom):
                    for v in bv.leaves():
                        if label.get(v):
                            break
                else:
                    v = bv
                if label.get(v):
                    assert label[v] == 2
                    assert inblossom[v] == bv
                    label[v] = None
                    label[mate[blossombase[bv]]] = None
                    assign_label(v, 2, labeledge[v][0])
                j += jstep
        label.pop(b, None)
        labeledge.pop(b, None)
        del blossomparent[b], blossombase[b], blossomdual[b]

    def augment_blossom(b, v):
        # swap matched/unmatched edges along the path from v to b's base
        t = v
        while blossomparent[t] != b:
            t = blossomparent[t]
        if isinstance(t, _Blossom):
            augment_blossom(t, v)
        i, jstep = _walk_start(b, t)
        j = i
        while j != 0:
            j += jstep
            t = b.childs[j]
            w, x = _walk_edge(b, j, jstep)
            if isinstance(t, _Blossom):
                augment_blossom(t, w)
            j += jstep
            t = b.childs[j]
            if isinstance(t, _Blossom):
                augment_blossom(t, x)
            mate[w], mate[x] = x, w
        # rotate children so the new base comes first (a negative i, from
        # a forward walk, slices the same rotation)
        b.childs = b.childs[i:] + b.childs[:i]
        b.edges = b.edges[i:] + b.edges[:i]
        blossombase[b] = blossombase[b.childs[0]]
        assert blossombase[b] == v

    def augment_matching(v, w):
        for s, j in ((v, w), (w, v)):
            while 1:
                bs = inblossom[s]
                assert label[bs] == 1
                assert (labeledge[bs] is None and blossombase[bs] not in mate) or (
                    labeledge[bs][0] == mate[blossombase[bs]])
                if isinstance(bs, _Blossom):
                    augment_blossom(bs, s)
                mate[s] = j
                if labeledge[bs] is None:
                    break
                t = labeledge[bs][0]
                bt = inblossom[t]
                assert label[bt] == 2
                s, j = labeledge[bt]
                assert blossombase[bt] == t
                if isinstance(bt, _Blossom):
                    augment_blossom(bt, j)
                mate[j] = s

    while 1:
        # stage: grow alternating trees until one augmentation succeeds. free only
        # shrinks; each free vertex is its top-level blossom's base, labelled S
        free = [v for v in free if v not in mate]
        label = dict.fromkeys(free, 1)
        labeledge = dict.fromkeys(free)
        queue = free[:]
        if blossomdual:
            # a free vertex may be the base of a surviving blossom: label that too
            roots = [inblossom[v] for v in free]
            label.update(dict.fromkeys(roots, 1))
            labeledge.update(dict.fromkeys(roots))
            queue = [x for b in roots for x in (b.leaves() if isinstance(b, _Blossom) else (b,))]

        augmented = 0
        while 1:
            # substage: scan tight edges; if none, pump the duals
            while queue and not augmented:
                v = queue.pop()
                assert label[inblossom[v]] == 1
                for w in tight[v]:
                    bv, bw = inblossom[v], inblossom[w]
                    if bv == bw:
                        continue  # inside one blossom
                    if label.get(bw) is None:
                        # free vertex: becomes T, its mate becomes S
                        assign_label(w, 2, v)
                    elif label.get(bw) == 1:
                        # S-S edge: new blossom or augmenting path
                        base = scan_blossom(v, w)
                        if base is not None:
                            add_blossom(base, v, w)
                        else:
                            augment_matching(v, w)
                            augmented = 1
                            break
                    elif label.get(w) is None:
                        # unreached vertex inside a T-blossom
                        assert label[bw] == 2
                        label[w] = 2
                        labeledge[w] = (v, w)

            if augmented:
                break

            # delta1: minimum vertex dual (stopping criterion)
            delta, deltatype = min(dualvar), 1

            if not uniform:
                # delta2: least slack from an S-vertex to a free vertex
                for w in gnodes:
                    if label.get(inblossom[w]) is None:
                        for v, wt in adj[w].items():
                            if label.get(inblossom[v]) == 1:
                                d = dualvar[v] + dualvar[w] - 2 * wt
                                if d < delta:
                                    delta, deltatype, deltaedge = d, 2, (v, w)

                # delta3: half the least S-S slack (duals are doubled, so it is even)
                for b in blossomparent:
                    if blossomparent[b] is None and label.get(b) == 1:
                        for v in b.leaves() if isinstance(b, _Blossom) else (b,):
                            for w, wt in adj[v].items():
                                bw = inblossom[w]
                                if bw != b and label.get(bw) == 1:
                                    d = dualvar[v] + dualvar[w] - 2 * wt
                                    assert d % 2 == 0
                                    d //= 2
                                    if d < delta:
                                        delta, deltatype, deltaedge = d, 3, (v, w)

                # delta4: smallest T-blossom dual
                for b, dual in blossomdual.items():
                    if blossomparent[b] is None and label.get(b) == 2 and dual < delta:
                        delta, deltatype, deltablossom = dual, 4, b

            for v in gnodes:
                if label.get(inblossom[v]) == 1:
                    dualvar[v] -= delta
                elif label.get(inblossom[v]) == 2:
                    dualvar[v] += delta
            for b in blossomdual:
                if blossomparent[b] is None:
                    if label.get(b) == 1:
                        blossomdual[b] += delta
                    elif label.get(b) == 2:
                        blossomdual[b] -= delta

            if deltatype == 1:
                break
            tight = _tight_lists(adj, dualvar)
            if deltatype == 4:
                expand_blossom(deltablossom, False)
            else:
                # delta 2 or 3: the least-slack edge from an S-vertex is tight and listed now
                v, w = deltaedge
                assert label[inblossom[v]] == 1
                assert dualvar[v] + dualvar[w] == 2 * adj[v][w] and w in tight[v]
                queue.append(v)

        for v in mate:
            assert mate[mate[v]] == v

        if not augmented:
            break

        # discard S-blossoms whose dual dropped to zero; a child precedes
        # its parent here, so no blossom is deleted before its turn
        for b in list(blossomdual):
            if blossomparent[b] is None and label.get(b) == 1 and blossomdual[b] == 0:
                expand_blossom(b, True)

    matched = _verify_optimum(g.edges, adj, mate, dualvar, blossomdual, blossomparent)
    # the recursive helpers reach themselves through closure cells; unlink
    # them so the solver state is freed now, not at some later GC pass
    del assign_label, expand_blossom, augment_blossom
    return Matching(frozenset(matched))
