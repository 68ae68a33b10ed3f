"""Matching engine: examples, structural validity, oracle equivalence."""

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


class TestMaxWeight:
    def test_middle_edge_wins(self):
        g = graph(4, (0, 1, 1), (1, 2, 3), (2, 3, 1))
        m = max_weight_matching(g)
        assert matching_weight(g, m) == 3
        assert set(matching_pairs(g, m)) == {(1, 2)}

    def test_outer_edges_win(self):
        g = graph(4, (0, 1, 2), (1, 2, 3), (2, 3, 2))
        m = max_weight_matching(g)
        assert matching_weight(g, m) == 4
        assert set(matching_pairs(g, m)) == {(0, 1), (2, 3)}

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
UNNESTED = dict.fromkeys(range(4))
PERFECT = {0: 1, 1: 0, 2: 3, 3: 2}


def triangle_blossom(edges):
    """Triangle 0-1-2 inside one blossom of dual 1, with 0-1 matched."""
    b = _Blossom()
    b.childs, b.edges = [0, 1, 2], edges
    return ([(0, 1, 1), (1, 2, 1), (0, 2, 1)], {0: 1, 1: 0},
            dict.fromkeys(range(3), 0), {b: 1}, {0: b, 1: b, 2: b, b: None})


class TestVerifyOptimum:
    def test_accepts_an_optimum(self):
        _verify_optimum(PATH, PERFECT, dict.fromkeys(range(4), 1), {}, UNNESTED)
        _verify_optimum(*triangle_blossom([(2, 0), (0, 1), (1, 2)]))

    @pytest.mark.parametrize("mate, duals, message", [
        ({1: 2, 2: 1}, (1, 1, 1, 1), "free vertex 0"),  # not a maximum matching
        (PERFECT, (0, 0, 0, 0), "negative slack"),
        (PERFECT, (-1, 3, 1, 1), "negative dual"),
        ({0: 1, 2: 3, 3: 2}, (1, 1, 1, 1), "one-sided"),
        ({0: 1, 1: 0, 2: 3, 3: 2}, (2, 1, 1, 1), "not tight"),
    ])
    def test_rejects_a_non_optimum(self, mate, duals, message):
        with pytest.raises(InvariantViolation, match=message):
            _verify_optimum(PATH, mate, dict(enumerate(duals)), {}, UNNESTED)

    def test_rejects_a_blossom_that_is_not_full(self):
        with pytest.raises(InvariantViolation, match="blossom"):
            _verify_optimum(*triangle_blossom([(0, 1), (1, 2), (2, 0)]))

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
            "    _verify_optimum(((0, 1, 1), (1, 2, 1), (2, 3, 1)), {1: 2, 2: 1},",
            "                    dict.fromkeys(range(4), 1), {}, dict.fromkeys(range(4)))",
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


def random_graph(rng, max_vertices=10, weights=(1, 2)):
    n = rng.randint(0, max_vertices)
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    rng.shuffle(pairs)
    m = rng.randint(0, min(len(pairs), 24))
    return Graph(n, tuple((u, v, rng.choice(weights)) for u, v in pairs[:m]))


class TestOracleEquivalence:
    def test_small_sweep(self):
        # the full 500-graph run lives in the acceptance suite
        rng = random.Random(99)
        for _ in range(120):
            g = random_graph(rng)
            mw = max_weight_matching(g)
            mc = max_cardinality_matching(g)
            assert is_valid_matching(g, mw)
            assert is_valid_matching(g, mc)
            assert matching_weight(g, mw) == matching_weight(
                g, brute_force_matching(g, "weight"))
            assert mc.cardinality() == brute_force_matching(
                g, "cardinality").cardinality()

    def test_unit_weights_agree_across_solvers(self):
        rng = random.Random(7)
        for _ in range(60):
            g = random_graph(rng, weights=(1,))
            assert matching_weight(g, max_weight_matching(g)) == \
                max_cardinality_matching(g).cardinality()

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
