"""Matching engine: examples, structural validity, oracle equivalence."""

import dis
import gc
import os
import random
import subprocess
import sys
from pathlib import Path

import pytest

import barpack
from barpack import matching
from barpack.errors import InvariantViolation, TooLarge
from barpack.matching import (
    Graph,
    _Blossom,
    _verify_optimum,
    brute_force_matching,
    is_valid_matching,
    matching_pairs,
    matching_weight,
    max_cardinality_matching,
    max_weight_matching,
    validate_graph,
)


def graph(n, *edges):
    return Graph(n, tuple(edges))


class TestMaxCardinality:
    def test_triangle(self):
        g = graph(3, (0, 1, 1), (1, 2, 1), (0, 2, 1))
        assert max_cardinality_matching(g).cardinality() == 1

    def test_path(self):
        g = graph(4, (0, 1, 1), (1, 2, 1), (2, 3, 1))
        m = max_cardinality_matching(g)
        assert m.cardinality() == 2
        assert set(matching_pairs(g, m)) == {(0, 1), (2, 3)}

    def test_empty(self):
        assert max_cardinality_matching(graph(5)).cardinality() == 0

    def test_odd_cycle(self):
        g = graph(5, (0, 1, 1), (1, 2, 1), (2, 3, 1), (3, 4, 1), (4, 0, 1))
        assert max_cardinality_matching(g).cardinality() == 2

    def test_needs_blossom_shrinking(self):
        # a triangle hanging off a path defeats greedy augmentation
        g = graph(6, (0, 1, 1), (1, 2, 1), (2, 3, 1), (3, 1, 1), (3, 4, 1), (4, 5, 1))
        assert max_cardinality_matching(g).cardinality() == 3


def record_final_state(monkeypatch):
    """Record the blossoms each solve ends with, as _verify_optimum sees them."""
    seen, verify = {}, matching._verify_optimum

    def recording_verify(edges, adj, mate, dualvar, blossomdual, blossomparent):
        seen.update(blossomdual=blossomdual, blossomparent=blossomparent)
        return verify(edges, adj, mate, dualvar, blossomdual, blossomparent)
    monkeypatch.setattr(matching, "_verify_optimum", recording_verify)
    return seen


def record_tight_lists(monkeypatch):
    """Record each tight-list build as its set of tight edges (u < v)."""
    built, tight_lists = [], matching._tight_lists

    def recording(adj, dualvar):
        tight = tight_lists(adj, dualvar)
        built.append({(v, w) for v, ws in enumerate(tight) for w in ws if v < w})
        return tight
    monkeypatch.setattr(matching, "_tight_lists", recording)
    return built


class TestMaxWeight:
    def test_middle_edge_wins(self):
        g = graph(4, (0, 1, 1), (1, 2, 3), (2, 3, 1))
        m = max_weight_matching(g)
        assert matching_weight(g, m) == 3
        assert set(matching_pairs(g, m)) == {(1, 2)}

    def test_outer_edges_win(self, monkeypatch):
        # every dual starts at the top weight, so until the first dual step
        # 1-2 is the only tight edge, and the solver must trade it for the
        # two lighter edges
        built = record_tight_lists(monkeypatch)
        g = graph(4, (0, 1, 2), (1, 2, 3), (2, 3, 2))
        m = max_weight_matching(g)
        assert built[0] == {(1, 2)}
        assert matching_weight(g, m) == 4
        assert set(matching_pairs(g, m)) == {(0, 1), (2, 3)}

    def test_first_matched_edge_ends_inside_a_blossom(self, monkeypatch):
        # the first stage matches the top-weight edge 0-2; free vertex 1
        # reaches it through 0-1, and after a delta-3 step the light edge 1-2
        # closes the triangle into a blossom that keeps a positive dual and 0-2
        seen = record_final_state(monkeypatch)
        g = graph(3, (0, 1, 3), (0, 2, 3), (1, 2, 1))
        assert set(matching_pairs(g, max_weight_matching(g))) == {(0, 2)}
        b = seen["blossomparent"][0]
        assert seen["blossomparent"][2] is b and seen["blossomdual"][b] > 0
        assert set(b.leaves()) == {0, 1, 2}

    def test_tight_lists_are_built_once_per_dual_step(self, monkeypatch):
        built = record_tight_lists(monkeypatch)
        # every edge weighs 2, so each stays tight and adj serves as the lists
        g = graph(5, (0, 1, 2), (1, 2, 2), (2, 0, 2), (2, 3, 2), (3, 4, 2))
        m = max_weight_matching(g)
        assert m == max_cardinality_matching(g) and matching_weight(g, m) == 4
        assert built == []
        # the triangle above makes one delta-3 step before the final delta 1:
        # the lists are built at the start and once after that step
        max_weight_matching(graph(3, (0, 1, 3), (0, 2, 3), (1, 2, 1)))
        assert built == [{(0, 1), (0, 2)}, {(0, 1), (0, 2), (1, 2)}]

    def test_least_slack_edges_leave_non_base_leaves(self):
        # free vertex 0 grows the S-blossom {0, 5, 1}; 5 was a T-vertex, so only
        # the blossom carries its S label. The next least-slack edges leave
        # that blossom's other leaves: 5-3 to a free vertex (delta 2), then 1-2
        # into the S-blossom around 2 (delta 3, both ends non-trivial)
        g = graph(7, (2, 6, 8), (0, 5, 9), (0, 1, 3), (2, 4, 9), (3, 5, 10), (4, 6, 5),
                  (2, 3, 9), (1, 5, 9), (1, 2, 6))
        assert set(matching_pairs(g, max_weight_matching(g))) == {(0, 5), (2, 3), (4, 6)}

    def test_stage_start_queues_every_leaf_of_a_blossom_root(self):
        # the triangle 2-3-5 closes into an S-blossom around free vertex 3 and
        # keeps dual 1 while 0-4 augments, so the next stage starts at that
        # blossom with all its leaves queued; queueing only its base ends in
        # the other weight-10 matching {0-4, 1-5, 2-3, 6-7}
        g = graph(8, (6, 7, 4), (2, 6, 4), (3, 5, 3), (0, 4, 1), (2, 5, 4), (1, 5, 2),
                  (1, 7, 2), (2, 3, 3))
        assert set(matching_pairs(g, max_weight_matching(g))) == {
            (0, 4), (1, 7), (2, 6), (3, 5)}

    def test_weight_beats_cardinality(self):
        g = graph(4, (0, 1, 5), (1, 2, 1), (2, 3, 1))
        m = max_weight_matching(g)
        assert matching_weight(g, m) == 6

    def test_deterministic(self):
        g = graph(6, (0, 1, 2), (2, 3, 2), (4, 5, 2), (1, 2, 2), (3, 4, 2))
        assert max_weight_matching(g) == max_weight_matching(g)


    def test_leaves_no_reference_cycles(self):
        # the solver's state must be freed when it returns, not whenever
        # the cyclic collector next runs
        g = graph(6, (0, 1, 2), (1, 2, 2), (2, 0, 2), (2, 3, 1), (3, 4, 2),
                  (4, 5, 2), (5, 3, 2))
        gc.collect()
        gc.disable()
        try:
            max_weight_matching(g)
            max_cardinality_matching(g)
            assert gc.collect() == 0
        finally:
            gc.enable()


# _verify_optimum reads doubled duals: dual 1 on both ends makes a weight-1
# edge tight. The path 0-1-2-3 has the perfect matching {0-1, 2-3}.
PATH = ((0, 1, 1), (1, 2, 1), (2, 3, 1))


def adjacency(edges, n):
    """The solver's adjacency map over edges on n vertices."""
    adj = [{} for _ in range(n)]
    for u, v, w in edges:
        adj[u][v] = adj[v][u] = w
    return adj


UNNESTED = dict.fromkeys(range(4))
PERFECT = {0: 1, 1: 0, 2: 3, 3: 2}


def triangle_blossom(edges):
    """Triangle 0-1-2 inside one blossom of dual 1, with 0-1 matched."""
    b = _Blossom()
    b.childs, b.edges = [0, 1, 2], edges
    triangle = [(0, 1, 1), (1, 2, 1), (0, 2, 1)]
    return (triangle, adjacency(triangle, 3), {0: 1, 1: 0},
            [0] * 3, {b: 1}, {0: b, 1: b, 2: b, b: None})


class TestVerifyOptimum:
    def test_accepts_an_optimum(self):
        # and returns the matched edges' ids
        assert _verify_optimum(PATH, adjacency(PATH, 4), PERFECT, [1] * 4, {},
                               UNNESTED) == [0, 2]
        assert _verify_optimum(*triangle_blossom([(2, 0), (0, 1), (1, 2)])) == [0]

    @pytest.mark.parametrize("mate, duals, message", [
        ({1: 2, 2: 1}, (1, 1, 1, 1), "free vertex 0"),  # not a maximum matching
        (PERFECT, (0, 0, 0, 0), "negative slack"),
        (PERFECT, (-1, 3, 1, 1), "negative dual"),
        ({0: 1, 2: 3, 3: 2}, (1, 1, 1, 1), "one-sided"),
        ({0: 1, 1: 0, 2: 3, 3: 2}, (2, 1, 1, 1), "not tight"),
    ])
    def test_rejects_a_non_optimum(self, mate, duals, message):
        with pytest.raises(InvariantViolation, match=message):
            _verify_optimum(PATH, adjacency(PATH, 4), mate, list(duals), {}, UNNESTED)

    def test_rejects_a_blossom_that_is_not_full(self):
        with pytest.raises(InvariantViolation, match="blossom"):
            _verify_optimum(*triangle_blossom([(0, 1), (1, 2), (2, 0)]))

    @pytest.mark.parametrize("edge", [(2, 3, 1), (3, 2, 1)])
    def test_checks_an_edge_with_one_top_level_end(self, edge):
        # vertex 3 lies in no blossom; 2 lies in the triangle's, whose dual
        # must not rescue the edge's slack 0 + 0 - 2
        triangle, _, mate, duals, blossomdual, parent = triangle_blossom(
            [(2, 0), (0, 1), (1, 2)])
        edges = [*triangle, edge]
        with pytest.raises(InvariantViolation, match=r"\(\d, \d\) has negative slack -2"):
            _verify_optimum(edges, adjacency(edges, 4), mate, [*duals, 0],
                            blossomdual, {**parent, 3: None})

    @pytest.mark.parametrize("inner_dual, weight_32, ok", [
        (1, 1, True), (0, 1, False), (1, 2, False)])
    def test_adds_the_duals_of_exactly_the_common_blossoms(self, inner_dual, weight_32, ok):
        # the triangle 0-1-2 (weight 2) nests in a blossom with 3 and 4: the
        # triangle's edges need both duals, and edge 3-2 gets only the outer one
        inner, outer = _Blossom(), _Blossom()
        inner.childs, inner.edges = [0, 1, 2], [(2, 0), (0, 1), (1, 2)]
        outer.childs, outer.edges = [inner, 3, 4], [(2, 3), (3, 4), (4, 2)]
        edges = [(0, 1, 2), (1, 2, 2), (0, 2, 2), (3, 2, weight_32), (3, 4, 1), (2, 4, 1)]
        args = (edges, adjacency(edges, 5), {0: 1, 1: 0, 3: 4, 4: 3},
                [0] * 5, {inner: inner_dual, outer: 1},
                {0: inner, 1: inner, 2: inner, 3: outer, 4: outer,
                 inner: outer, outer: None})
        if ok:
            assert _verify_optimum(*args) == [0, 4]
        else:
            with pytest.raises(InvariantViolation, match="negative slack -2"):
                _verify_optimum(*args)

    @pytest.mark.parametrize("weight, ok", [(1, True), (2, False)])
    def test_a_zero_dual_blossom_inside_a_positive_one_adds_nothing(self, weight, ok):
        # the triangle 0-1-2 keeps dual 0 inside a blossom of dual 1 with 3
        # and 4, so every edge gets the outer dual alone: enough for weight 1
        inner, outer = _Blossom(), _Blossom()
        inner.childs, inner.edges = [0, 1, 2], [(2, 0), (0, 1), (1, 2)]
        outer.childs, outer.edges = [inner, 3, 4], [(2, 3), (3, 4), (4, 2)]
        edges = [(0, 1, weight), (1, 2, 1), (0, 2, 1), (3, 2, 1), (3, 4, 1), (2, 4, 1)]
        args = (edges, adjacency(edges, 5), {0: 1, 1: 0, 3: 4, 4: 3},
                [0] * 5, {inner: 0, outer: 1},
                {0: inner, 1: inner, 2: inner, 3: outer, 4: outer,
                 inner: outer, outer: None})
        if ok:
            assert _verify_optimum(*args) == [0, 4]
        else:
            with pytest.raises(InvariantViolation, match="negative slack -2"):
                _verify_optimum(*args)

    def test_parent_lookups_stay_linear_under_deep_nesting(self):
        # a K6 perfect matching inside 1,000 nested zero-dual blossoms (the
        # innermost holds all six vertices): checking every edge against the
        # blossoms it lies in must not walk the whole nest once per edge
        class CountingDict(dict):
            lookups = 0

            def __getitem__(self, key):
                CountingDict.lookups += 1
                return super().__getitem__(key)
        k6 = [(u, v, 1) for u in range(6) for v in range(u + 1, 6)]
        nest = [_Blossom() for _ in range(1000)]
        parent = CountingDict({v: nest[0] for v in range(6)})
        parent.update(zip(nest, [*nest[1:], None]))
        ids = _verify_optimum(k6, adjacency(k6, 6), {0: 1, 1: 0, 2: 3, 3: 2, 4: 5, 5: 4},
                              [1] * 6, dict.fromkeys(nest, 0), parent)
        assert ids == [0, 9, 14]
        assert CountingDict.lookups <= 3 * (6 + len(k6) + len(nest))

    def test_runs_on_every_solve(self, monkeypatch):
        def refuse(*args):
            raise InvariantViolation("checked")
        monkeypatch.setattr(matching, "_verify_optimum", refuse)
        for solve in (max_weight_matching, max_cardinality_matching):
            with pytest.raises(InvariantViolation, match="checked"):
                solve(graph(4, *PATH))

    def test_survives_python_O(self):
        code = "\n".join([
            "from barpack.errors import InvariantViolation",
            "from barpack.matching import _verify_optimum",
            "try:",
            "    _verify_optimum(((0, 1, 1), (1, 2, 1), (2, 3, 1)),",
            "                    [{1: 1}, {0: 1, 2: 1}, {1: 1, 3: 1}, {2: 1}], {1: 2, 2: 1},",
            "                    [1] * 4, {}, dict.fromkeys(range(4)))",
            "except InvariantViolation:",
            "    print('raised')",
        ])
        env = {**os.environ, "PYTHONPATH": str(Path(barpack.__file__).resolve().parents[1])}
        run = subprocess.run([sys.executable, "-O", "-c", code], env=env,
                             capture_output=True, text=True, timeout=60)
        assert run.stdout.strip() == "raised", run.stderr


class TestBruteForce:
    def test_empty_graph(self):
        m = brute_force_matching(graph(3), "weight")
        assert m.cardinality() == 0

    def test_single_edge(self):
        g = graph(2, (0, 1, 2))
        assert matching_weight(g, brute_force_matching(g, "weight")) == 2

    def test_c5_cardinality(self):
        g = graph(5, (0, 1, 1), (1, 2, 1), (2, 3, 1), (3, 4, 1), (4, 0, 1))
        assert brute_force_matching(g, "cardinality").cardinality() == 2

    def test_guard(self):
        edges = tuple((0, i, 1) for i in range(1, 26))
        with pytest.raises(TooLarge):
            brute_force_matching(Graph(26, edges), "weight")

    def test_unknown_objective(self):
        with pytest.raises(ValueError):
            brute_force_matching(graph(2, (0, 1, 1)), "length")


# van Rantwijk's mwmatching test graphs (also in networkx's test suite),
# with their vertex numbers: vertex 0 is isolated. Each forces a particular
# blossom operation: relabelling an S-blossom as T, expanding it mid-stage
# (delta 4), nested augmentation through inner blossoms.
CLASSIC_GRAPHS = {
    "s_blossom": (
        [(1, 2, 8), (1, 3, 9), (2, 3, 10), (3, 4, 7)], {(1, 2), (3, 4)}),
    "s_blossom_augment": (
        [(1, 2, 8), (1, 3, 9), (2, 3, 10), (3, 4, 7), (1, 6, 5), (4, 5, 6)],
        {(1, 6), (2, 3), (4, 5)}),
    "s_t_blossom": (
        [(1, 2, 9), (1, 3, 8), (2, 3, 10), (1, 4, 5), (4, 5, 4), (1, 6, 3)],
        {(1, 6), (2, 3), (4, 5)}),
    "s_t_blossom_reweighted": (
        [(1, 2, 9), (1, 3, 8), (2, 3, 10), (1, 4, 5), (4, 5, 3), (1, 6, 4)],
        {(1, 6), (2, 3), (4, 5)}),
    "s_t_blossom_moved": (
        [(1, 2, 9), (1, 3, 8), (2, 3, 10), (1, 4, 5), (4, 5, 3), (3, 6, 4)],
        {(1, 2), (3, 6), (4, 5)}),
    "nested_s_blossom": (
        [(1, 2, 9), (1, 3, 9), (2, 3, 10), (2, 4, 8), (3, 5, 8), (4, 5, 10),
         (5, 6, 6)],
        {(1, 3), (2, 4), (5, 6)}),
    "nested_s_blossom_relabel": (
        [(1, 2, 10), (1, 7, 10), (2, 3, 12), (3, 4, 20), (3, 5, 20), (4, 5, 25),
         (5, 6, 10), (6, 7, 10), (7, 8, 8)],
        {(1, 2), (3, 4), (5, 6), (7, 8)}),
    "nested_s_blossom_expand": (
        [(1, 2, 8), (1, 3, 8), (2, 3, 10), (2, 4, 12), (3, 5, 12), (4, 5, 14),
         (4, 6, 12), (5, 7, 12), (6, 7, 14), (7, 8, 12)],
        {(1, 2), (3, 5), (4, 6), (7, 8)}),
    "s_blossom_relabel_expand": (
        [(1, 2, 23), (1, 5, 22), (1, 6, 15), (2, 3, 25), (3, 4, 22), (4, 5, 25),
         (4, 8, 14), (5, 7, 13)],
        {(1, 6), (2, 3), (4, 8), (5, 7)}),
    "nested_s_blossom_relabel_expand": (
        [(1, 2, 19), (1, 3, 20), (1, 8, 8), (2, 3, 25), (2, 4, 18), (3, 5, 18),
         (4, 5, 13), (4, 7, 7), (5, 6, 7)],
        {(1, 8), (2, 3), (4, 7), (5, 6)}),
    "nasty_blossom1": (
        [(1, 2, 45), (1, 5, 45), (2, 3, 50), (3, 4, 45), (4, 5, 50), (1, 6, 30),
         (3, 9, 35), (4, 8, 35), (5, 7, 26), (9, 10, 5)],
        {(1, 6), (2, 3), (4, 8), (5, 7), (9, 10)}),
    "nasty_blossom2": (
        [(1, 2, 45), (1, 5, 45), (2, 3, 50), (3, 4, 45), (4, 5, 50), (1, 6, 30),
         (3, 9, 35), (4, 8, 26), (5, 7, 40), (9, 10, 5)],
        {(1, 6), (2, 3), (4, 8), (5, 7), (9, 10)}),
    "nasty_blossom_least_slack": (
        [(1, 2, 45), (1, 5, 45), (2, 3, 50), (3, 4, 45), (4, 5, 50), (1, 6, 30),
         (3, 9, 35), (4, 8, 28), (5, 7, 26), (9, 10, 5)],
        {(1, 6), (2, 3), (4, 8), (5, 7), (9, 10)}),
    "nasty_blossom_augmenting": (
        [(1, 2, 45), (1, 7, 45), (2, 3, 50), (3, 4, 45), (4, 5, 95), (4, 6, 94),
         (5, 6, 94), (6, 7, 50), (1, 8, 30), (3, 11, 35), (5, 9, 36), (7, 10, 26),
         (11, 12, 5)],
        {(1, 8), (2, 3), (4, 6), (5, 9), (7, 10), (11, 12)}),
    "nasty_blossom_expand_recursively": (
        [(1, 2, 40), (1, 3, 40), (2, 3, 60), (2, 4, 55), (3, 5, 55), (4, 5, 50),
         (1, 8, 15), (5, 7, 30), (7, 6, 10), (8, 10, 10), (4, 9, 30)],
        {(1, 2), (3, 5), (4, 9), (6, 7), (8, 10)}),
}


class TestClassicGraphs:
    @pytest.mark.parametrize("name", list(CLASSIC_GRAPHS))
    def test_expected_matching(self, name):
        edges, expected = CLASSIC_GRAPHS[name]
        g = Graph(1 + max(max(u, v) for u, v, _ in edges), tuple(edges))
        m = max_weight_matching(g)
        assert {tuple(sorted(p)) for p in matching_pairs(g, m)} == expected
        mc = max_cardinality_matching(g)
        assert is_valid_matching(g, mc)
        assert mc.cardinality() == brute_force_matching(g, "cardinality").cardinality()

    def test_every_solver_line_runs(self):
        # the classic graphs plus the empty graph reach every line of the
        # solver and its closures, the rare delta-4 and blossom-walk ones too,
        # and the stage start's branch for a free vertex inside a blossom
        codes, stack = set(), [matching._blossom_matching.__code__]
        while stack:
            code = stack.pop()
            codes.add(code)
            stack.extend(c for c in code.co_consts if isinstance(c, type(code)))
        lines = {(code, line) for code in codes for _, line in dis.findlinestarts(code)
                 if line is not None and line != code.co_firstlineno}
        ran = set()

        def trace(frame, event, arg):
            if frame.f_code not in codes:
                return None
            ran.add((frame.f_code, frame.f_lineno))
            return trace
        previous = sys.gettrace()
        sys.settrace(trace)
        try:
            for edges, _ in [*CLASSIC_GRAPHS.values(), ([], None)]:
                g = Graph(1 + max((max(u, v) for u, v, _ in edges), default=0), tuple(edges))
                max_weight_matching(g)
                max_cardinality_matching(g)
        finally:
            sys.settrace(previous)
        missed = sorted((code.co_name, line) for code, line in lines - ran)
        assert not missed, f"solver lines never run: {missed}"


class TestGraphValidation:
    def test_self_loop(self):
        with pytest.raises(ValueError):
            max_weight_matching(graph(2, (0, 0, 1)))

    def test_duplicate_edge(self):
        with pytest.raises(ValueError):
            max_weight_matching(graph(2, (0, 1, 1), (1, 0, 2)))

    def test_negative_weight(self):
        with pytest.raises(ValueError):
            max_weight_matching(graph(2, (0, 1, -1)))

    @pytest.mark.parametrize("solve", [validate_graph, max_weight_matching,
                                       max_cardinality_matching, brute_force_matching])
    @pytest.mark.parametrize("n, edges, message", [
        (3, ((0, 1, 1), (2, 2, 1)), "self-loop at vertex 2"),
        (3, ((0, 1, 1), (1, 3, 1)), r"edge \(1, 3\) out of vertex range"),
        (3, ((0, 1, 1), (1, 2, 1.5)), "weight 1.5 must be a non-negative integer"),
        (3, ((0, 2, 1), (1, 2, 1), (2, 0, 1)), r"duplicate edge \(0, 2\)"),
        (3, ((0, 1, 1), (1, 0, 1)), r"duplicate edge \(0, 1\)"),
        (3, ((0.5, 1, 1),), r"edge \(0.5, 1\) has a non-integer vertex id"),
        (3, ((True, 2, 1),), r"edge \(True, 2\) has a non-integer vertex id"),
        (3, ((0, 1, True),), "weight True must be a non-negative integer"),
        (2.0, ((0, 1, 1),), "vertex count 2.0 must be a non-negative integer"),
        (-1, (), "vertex count -1 must be a non-negative integer"),
        (True, (), "vertex count True must be a non-negative integer"),
    ])
    def test_every_entry_point_checks_every_edge(self, solve, n, edges, message):
        # the cardinality solver ignores weights but still rejects bad ones
        with pytest.raises(ValueError, match=message):
            solve(Graph(n, edges))


def random_graph(rng, max_vertices=10, weights=(1, 2)):
    n = rng.randint(0, max_vertices)
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    rng.shuffle(pairs)
    m = rng.randint(0, min(len(pairs), 24))
    return Graph(n, tuple((u, v, rng.choice(weights)) for u, v in pairs[:m]))


class TestOracleEquivalence:
    # weights 1-100 reach delta 4 and the mid-stage blossom walk, which
    # the union graph's weights {1, 2} rarely do; uniform weights take the
    # cardinality solver's path
    @pytest.mark.parametrize("weights", [(1, 2), (1, 2, 3), (3,), range(1, 101)],
                             ids=["1-2", "1-3", "3", "1-100"])
    def test_small_sweep(self, weights):
        # the full 500-graph run lives in the acceptance suite
        rng = random.Random(99)
        for _ in range(120):
            g = random_graph(rng, weights=weights)
            mw = max_weight_matching(g)
            mc = max_cardinality_matching(g)
            assert is_valid_matching(g, mw)
            assert is_valid_matching(g, mc)
            assert matching_weight(g, mw) == matching_weight(
                g, brute_force_matching(g, "weight"))
            assert mc.cardinality() == brute_force_matching(
                g, "cardinality").cardinality()
            if len(weights) == 1:
                # the same solve up to the scale of the duals
                assert mw == mc

    def test_unit_weights_agree_across_solvers(self):
        # with one weight on every edge, whatever its value, the weighted
        # solver must pick the edges the cardinality solver picks
        rng = random.Random(7)
        for _ in range(400):
            n, density, w = rng.randint(0, 30), rng.random(), rng.choice((1, 2, 7))
            edges = [(u, v, w) if rng.random() < 0.5 else (v, u, w)
                     for u in range(n) for v in range(u + 1, n) if rng.random() < density]
            rng.shuffle(edges)
            g = Graph(n, tuple(edges))
            assert max_cardinality_matching(g).edge_indices == \
                max_weight_matching(g).edge_indices

    def test_monotone_under_edge_addition(self):
        rng = random.Random(5)
        for _ in range(40):
            n = rng.randint(2, 9)
            pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
            rng.shuffle(pairs)
            kept = pairs[:rng.randint(1, min(len(pairs), 12))]
            edges = [(u, v, rng.randint(1, 3)) for u, v in kept]
            g_small = Graph(n, tuple(edges[:-1]))
            g_full = Graph(n, tuple(edges))
            assert matching_weight(g_full, max_weight_matching(g_full)) >= \
                matching_weight(g_small, max_weight_matching(g_small))

