"""Instance generators: determinism, family predicates, the tight family."""

import hashlib

import pytest

from barpack.errors import KTooSmall
from barpack.generators import (
    FAMILIES,
    GenSpec,
    gen_big,
    gen_big_nonincreasing,
    gen_general,
    gen_tight_family,
    generate,
    tight_family_forced_pairs,
)
from barpack.model import instance_to_json
from barpack.unions import build_graph, chart_from_bars

# The first 8 hex digits of the sha256 of each instance_to_json text, per
# family over (size, seed, denominator) in loop order: a small and a large
# size, seeds 0 and 1, D = 10**6 and 20 (100 for the tight family, which
# ignores the seed). They pin every draw in its RNG call order.
GENERATOR_DIGESTS = {
    "big-nonincreasing": "9591c41f 98fd186a a5e72d4d 2c9cede0 108bc756 d5a303b5 8ff18844 d383216d",
    "big": "e9bcc3a0 2146ce36 c4f41e92 fb48916c 7f52e450 0c0360d2 5aa89b0c 08187668",
    "general": "805c04d9 9485bf81 3bb5ba83 81dd1b99 79ac56f2 1b02839a b5700e32 d4d92d21",
    "tight": "c0e5979b 1915e0e2 c0e5979b 1915e0e2 8fdaeae9 4c3401a6 8fdaeae9 4c3401a6",
}


class TestDeterminism:
    @pytest.mark.parametrize("family", FAMILIES)
    def test_instance_bytes_are_pinned(self, family):
        tight = family == "tight"
        digests = []
        for size in (1, 50) if tight else (3, 500):
            for seed in (0, 1):
                for denominator in (10 ** 6, 100 if tight else 20):
                    text = instance_to_json(FAMILIES[family](size, seed, denominator))
                    digests.append(hashlib.sha256(text.encode()).hexdigest()[:8])
        assert digests == GENERATOR_DIGESTS[family].split()

    @pytest.mark.parametrize("family,size", [
        ("big-nonincreasing", 6), ("big", 6), ("general", 6), ("tight", 2),
    ])
    def test_same_spec_same_bytes(self, family, size):
        spec = GenSpec(family, size, seed=11, denominator=1000)
        assert instance_to_json(generate(spec)) == instance_to_json(generate(spec))

    def test_different_seeds_differ(self):
        a = gen_big(8, 1)
        b = gen_big(8, 2)
        assert a != b

    def test_unknown_family(self):
        with pytest.raises(ValueError):
            generate(GenSpec("small", 3))


class TestFamilyPredicates:
    def test_big_nonincreasing(self):
        for seed in range(10):
            inst = gen_big_nonincreasing(9, seed)
            assert inst.n == 9
            for c in inst.charts:
                assert 2 * c.a > inst.denominator
                assert c.a >= c.b >= 1

    def test_big(self):
        for seed in range(10):
            inst = gen_big(9, seed)
            assert inst.all_big()
            for c in inst.charts:
                assert 1 <= c.a <= inst.denominator
                assert 1 <= c.b <= inst.denominator

    def test_general_in_range(self):
        inst = gen_general(50, 3)
        for c in inst.charts:
            assert 1 <= c.a <= inst.denominator
            assert 1 <= c.b <= inst.denominator

    def test_zero_charts_rejected(self):
        for gen in (gen_big_nonincreasing, gen_big, gen_general):
            with pytest.raises(ValueError):
                gen(0, 1)

    @pytest.mark.parametrize("family", ["big-nonincreasing", "big", "general", "tight"])
    @pytest.mark.parametrize("denominator", [0, -100, True, False, 2.5, "7", None])
    def test_denominator_must_be_a_positive_integer(self, family, denominator):
        # unchecked, 0 gives zero heights, -100 negative ones, and the random
        # families fail inside randrange
        with pytest.raises(ValueError, match="denominator must be a positive integer"):
            generate(GenSpec(family, 1, seed=3, denominator=denominator))

    def test_big_orientation_split(self):
        # among charts with exactly one bar above 1/2, the big side should
        # be the first bar about half the time
        inst = gen_big(1000, 17)
        half = inst.denominator
        a_big = sum(1 for c in inst.charts
                    if 2 * c.a > half and 2 * c.b <= half)
        b_big = sum(1 for c in inst.charts
                    if 2 * c.b > half and 2 * c.a <= half)
        share = a_big / (a_big + b_big)
        assert 0.45 <= share <= 0.55


class TestTightFamily:
    def test_k1_heights(self):
        inst = gen_tight_family(1, 100)
        assert [(c.a, c.b) for c in inst.charts] == [(70, 30), (70, 30),
                                                     (35, 65), (35, 65)]

    def test_k_too_small(self):
        with pytest.raises(KTooSmall):
            gen_tight_family(0, 100)

    def test_denominator_must_divide(self):
        with pytest.raises(ValueError):
            gen_tight_family(1, 30)

    @pytest.mark.parametrize("k", [1, 2, 3])
    def test_union_pattern(self, k):
        # greens chain, reds chain, green-before-red; no 2-unions anywhere
        inst = gen_tight_family(k, 100)
        graph = build_graph([chart_from_bars(c) for c in inst.charts],
                            inst.denominator)
        greens = set(range(2 * k))
        assert all(t == 1 for _, _, t in graph.edges)
        for left, right, _ in graph.edges:
            if (left in greens) != (right in greens):
                # red before green is never feasible
                assert left in greens
        expected = {(u, v) for u in greens for v in range(2 * k, 4 * k)}
        expected |= {(u, v) for u in greens for v in greens if u < v}
        reds = set(range(2 * k, 4 * k))
        expected |= {(u, v) for u in reds for v in reds if u < v}
        assert {(min(u, v), max(u, v)) for u, v, _ in graph.edges} == expected

    def test_forced_pairs_shape(self):
        inst = gen_tight_family(2, 100)
        assert tight_family_forced_pairs(inst) == [(0, 4), (1, 5), (2, 6), (3, 7)]

    def test_every_chart_big(self):
        assert gen_tight_family(3, 100).all_big()
