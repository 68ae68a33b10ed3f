"""Union algebra: overlap feasibility, merging, union graph construction."""

from fractions import Fraction
from itertools import combinations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from barpack import packers
from barpack.errors import InfeasibleMerge, OverlapTooLarge
from barpack.generators import (
    GenSpec,
    gen_big,
    gen_big_nonincreasing,
    gen_tight_family,
    generate,
)
from barpack.model import BarChart, Instance, Packing, occupancy
from barpack.packers import pack_matching, pack_weighted_matching
from barpack.unions import (
    Chart,
    best_union,
    build_graph,
    chart_from_bars,
    graph_to_edge_list,
    merge,
    union_feasible,
)


def two_bar(cid, a, b, denom=100):
    return chart_from_bars(BarChart(cid, round(a * denom), round(b * denom)))


class TestUnionFeasible:
    def test_one_cell_overlap(self):
        left, right = two_bar(0, 0.7, 0.3), two_bar(1, 0.35, 0.65)
        assert union_feasible(left, right, 1, 100)

    def test_two_cell_boundary(self):
        left, right = two_bar(0, 0.4, 0.6), two_bar(1, 0.6, 0.4)
        assert union_feasible(left, right, 2, 100)

    def test_overloaded_cell(self):
        left, right = two_bar(0, 0.35, 0.65), two_bar(1, 0.7, 0.3)
        assert not union_feasible(left, right, 1, 100)

    def test_bad_overlap_size(self):
        left, right = two_bar(0, 0.4, 0.6), two_bar(1, 0.6, 0.4)
        with pytest.raises(OverlapTooLarge):
            union_feasible(left, right, 3, 100)
        with pytest.raises(OverlapTooLarge):
            union_feasible(left, right, 0, 100)


class TestMerge:
    def test_one_cell(self):
        got = merge(two_bar(0, 0.7, 0.3), two_bar(1, 0.35, 0.65), 1, 100)
        assert got.cells == (70, 65, 65)
        assert got.provenance == ((0, 0), (1, 1))

    def test_two_cells(self):
        got = merge(two_bar(0, 0.4, 0.6), two_bar(1, 0.6, 0.4), 2, 100)
        assert got.cells == (100, 100)
        assert got.provenance == ((0, 0), (1, 0))

    def test_infeasible(self):
        three = merge(two_bar(0, 0.7, 0.3), two_bar(1, 0.35, 0.65), 1, 100)
        with pytest.raises(InfeasibleMerge):
            merge(three, two_bar(2, 0.7, 0.3), 1, 100)

    def test_mass_and_length_arithmetic(self):
        x = merge(two_bar(0, 0.7, 0.3), two_bar(1, 0.35, 0.65), 1, 100)
        y = two_bar(2, 0.2, 0.3)
        for t in (1, 2):
            if union_feasible(x, y, t, 100):
                merged = merge(x, y, t, 100)
                assert merged.mass() == x.mass() + y.mass()
                assert len(merged) == len(x) + len(y) - t


class TestBestUnion:
    def test_two_union_dominates(self):
        got = best_union(two_bar(0, 0.4, 0.6), two_bar(1, 0.6, 0.4), 100)
        assert got is not None and got[1] == 2

    def test_orientation_matters(self):
        got = best_union(two_bar(0, 0.7, 0.3), two_bar(1, 0.35, 0.65), 100)
        assert got == (True, 1)  # first-before-second; t=2 needs 0.7+0.35 <= 1

    def test_no_union(self):
        assert best_union(two_bar(0, 0.8, 0.7), two_bar(1, 0.6, 0.9), 100) is None

    def test_tie_prefers_first_argument_left(self):
        # both orientations feasible at t=1 only
        got = best_union(two_bar(0, 0.6, 0.4), two_bar(1, 0.6, 0.4), 100)
        assert got == (True, 1)


def _brute_force_edges(inst):
    """Independent enumeration of the union graph over 2-bar charts using
    Fraction arithmetic: all four candidates per unordered pair."""
    edges = set()
    D = inst.denominator
    hs = [(Fraction(c.a, D), Fraction(c.b, D)) for c in inst.charts]
    for i, j in combinations(range(inst.n), 2):
        (ai, bi), (aj, bj) = hs[i], hs[j]
        t2 = ai + aj <= 1 and bi + bj <= 1
        t1 = bi + aj <= 1 or bj + ai <= 1
        if t2 or t1:
            edges.add((i, j, 2 if t2 else 1))
    return edges


class TestBuildGraph:
    def test_no_feasible_union(self):
        charts = [two_bar(0, 0.8, 0.7), two_bar(1, 0.6, 0.9)]
        assert build_graph(charts, 100, weighted=True).edges == ()

    def test_tight_family_k1_edges(self):
        inst = gen_tight_family(1, 100)
        graph = build_graph([chart_from_bars(c) for c in inst.charts], 100, True)
        got = set(graph.edges)
        assert got == _brute_force_edges(inst)
        # greens chain, reds chain, and every green-red pair; all 1-unions
        assert got == {(0, 1, 1), (2, 3, 1),
                       (0, 2, 1), (0, 3, 1), (1, 2, 1), (1, 3, 1)}

    def test_single_two_union_edge(self):
        charts = [two_bar(0, 0.4, 0.6), two_bar(1, 0.6, 0.4)]
        graph = build_graph(charts, 100, weighted=True)
        assert list(graph.edges) == [(0, 1, 2)]
        unweighted = build_graph(charts, 100, weighted=False)
        assert unweighted.edges[0][2] == 1  # weight
        assert unweighted.best[0][1] == 2  # best overlap still recorded

    def test_matches_brute_force_on_random_instances(self):
        for seed in range(30):
            inst = gen_big(6, seed, 1000)
            graph = build_graph([chart_from_bars(c) for c in inst.charts],
                                inst.denominator, True)
            assert set(graph.edges) == _brute_force_edges(inst)

    def test_edge_list_export(self):
        charts = [two_bar(0, 0.4, 0.6), two_bar(1, 0.6, 0.4)]
        graph = build_graph(charts, 100, weighted=True)
        assert graph_to_edge_list(graph) == "0 1 2\n"

    def test_edges_share_one_int_per_vertex(self):
        # ids above 256 are not cached by Python, so an edge tuple that made
        # its own int for a vertex would add one distinct object per edge
        inst = gen_big(600, 3)
        graph = build_graph([chart_from_bars(c) for c in inst.charts],
                            inst.denominator, True)
        assert len(graph.edges) > 10 * inst.n
        assert len({id(x) for u, v, _ in graph.edges for x in (u, v)}) <= inst.n


def _reference_edges(charts, denominator, weighted):
    """The union graph as a loop of best_union over all pairs gives it:
    (u, v, u_first, t, weight) in (u, v) order."""
    edges = []
    for u, v in combinations(range(len(charts)), 2):
        found = best_union(charts[u], charts[v], denominator)
        if found is not None:
            u_first, t = found
            edges.append((u, v, u_first, t, t if weighted else 1))
    return edges


def _graph_edges(graph):
    assert len(graph.best) == len(graph.edges)
    return [(u, v, u_first, t, w)
            for (u, v, w), (u_first, t) in zip(graph.edges, graph.best)]


class TestBuildGraphDifferential:
    """build_graph edge for edge against the best_union loop it replaces,
    on the charts every round of both packers builds its graph over."""

    @pytest.mark.parametrize("packer", [pack_matching, pack_weighted_matching])
    @pytest.mark.parametrize("family", ["big-nonincreasing", "big", "general", "tight"])
    def test_every_round_of_both_packers(self, family, packer, monkeypatch):
        seen = {"builds": 0, "merged_two_cell": 0, "three_plus": 0}

        def checked_build(charts, denominator, weighted):
            graph = build_graph(charts, denominator, weighted)
            assert graph.num_vertices == len(charts)
            assert _graph_edges(graph) == _reference_edges(charts, denominator, weighted)
            seen["builds"] += 1
            seen["merged_two_cell"] += sum(
                1 for ch in charts if len(ch) == 2 and len(ch.provenance) > 1)
            seen["three_plus"] += sum(1 for ch in charts if len(ch) >= 3)
            return graph

        monkeypatch.setattr(packers, "build_graph", checked_build)
        if family == "tight":
            specs = [GenSpec(family, k, 0, 100 * d) for k in (1, 2, 3) for d in (1, 7)]
        else:
            # D = 20 makes shared cells that load to exactly 1 common
            specs = [GenSpec(family, 12, seed, d)
                     for seed in range(30) for d in (20, 1_000_000)]
        for spec in specs:
            packer(generate(spec))
        assert seen["builds"] >= len(specs)
        assert seen["three_plus"] > 0
        if family in ("big", "general"):
            assert seen["merged_two_cell"] > 0


@st.composite
def short_charts(draw):
    """Charts of 0 to 4 cells, as the public Chart dataclass allows."""
    denom = draw(st.integers(1, 12))
    count = draw(st.integers(1, 7))
    charts = [Chart(tuple(draw(st.lists(st.integers(0, 14), max_size=4))), ((i, 0),))
              for i in range(count)]
    return charts, denom


class TestBuildGraphShortCharts:
    def test_one_cell_chart(self):
        one = Chart((30,), ((0, 0),))
        graph = build_graph([one, two_bar(1, 0.7, 0.3)], 100, weighted=True)
        assert graph.edges == ((0, 1, 1),)
        assert graph.best == ((True, 1),) == (best_union(one, two_bar(1, 0.7, 0.3), 100),)

    @settings(max_examples=300, deadline=None)
    @given(short_charts(), st.booleans())
    def test_matches_best_union(self, case, weighted):
        charts, denom = case
        got = _graph_edges(build_graph(charts, denom, weighted))
        assert got == _reference_edges(charts, denom, weighted)


class TestProvenanceSoundness:
    def test_merged_chart_lays_out_to_its_cells(self):
        merged = merge(merge(two_bar(0, 0.7, 0.3), two_bar(1, 0.35, 0.65), 1, 100),
                       two_bar(2, 0.2, 0.3), 1, 100)
        inst = Instance((BarChart(0, 70, 30), BarChart(1, 35, 65),
                         BarChart(2, 20, 30)), 100)
        base = 3  # lay the merged chart starting at an arbitrary cell
        starts = [0] * 3
        for cid, off in merged.provenance:
            starts[cid] = base + off
        cells = occupancy(inst, Packing(tuple(starts)))
        assert cells[base - 1:] == merged.cells
        assert all(load == 0 for load in cells[:base - 1])


class TestBigInstanceStructure:
    def test_big_nonincreasing_admits_no_two_unions(self):
        for seed in range(20):
            inst = gen_big_nonincreasing(7, seed)
            graph = build_graph([chart_from_bars(c) for c in inst.charts],
                                inst.denominator, True)
            assert all(w == 1 for _, _, w in graph.edges)

    def test_no_two_unions_after_first_weighted_round(self):
        # charts of length >= 3 built by the weighted packer never admit
        # 2-unions when all inputs are big
        for seed in range(30):
            inst = gen_big(10, seed)
            result = pack_weighted_matching(inst)
            for stats in result.trace.rounds[1:]:
                assert stats.max_union <= 1


@st.composite
def mergeable_charts(draw):
    denom = 1000
    xs = [two_bar(i, draw(st.integers(1, denom)) / denom,
                  draw(st.integers(1, denom)) / denom, denom)
          for i in range(2)]
    return xs[0], xs[1], denom


class TestMergeProperties:
    @settings(max_examples=150, deadline=None)
    @given(mergeable_charts())
    def test_mass_length_provenance(self, case):
        x, y, denom = case
        found = best_union(x, y, denom)
        if found is None:
            return
        x_first, t = found
        left, right = (x, y) if x_first else (y, x)
        merged = merge(left, right, t, denom)
        assert merged.mass() == x.mass() + y.mass()
        assert len(merged) == len(x) + len(y) - t
        assert all(c <= denom for c in merged.cells)
        assert sorted(cid for cid, _ in merged.provenance) == [0, 1]
