"""Packers: iterated-matching loops, forced first round, first fit, layout."""

import hashlib
import os
import random
import subprocess
import sys
from pathlib import Path

import pytest

import barpack
from barpack import matching, packers
from barpack.errors import InvariantViolation, NotAMatching, NotMaxWeight, ProvenanceGap
from barpack.exact import solve_exact
from barpack.generators import (
    GenSpec,
    gen_big,
    gen_big_nonincreasing,
    gen_tight_family,
    generate,
    tight_family_forced_pairs,
)
from barpack.matching import max_cardinality_matching, max_weight_matching
from barpack.model import BarChart, is_feasible, length, occupancy, validate_instance
from barpack.packers import (
    pack_first_fit,
    pack_forced_first_matching,
    pack_matching,
    pack_result_to_json,
    pack_weighted_matching,
    realize,
)
from barpack.unions import chart_from_bars, merge
from test_matching import random_graph


def check_run(inst, result, matching_based=True):
    """Invariants every packer result must satisfy."""
    assert is_feasible(inst, result.packing)
    assert length(inst, result.packing) == result.length
    cells = occupancy(inst, result.packing)
    occupied = sum(1 for c in cells if c > 0)
    assert all(c > 0 for c in cells[:occupied])  # compact
    if matching_based:
        assert result.length == 2 * inst.n - result.trace.total_savings()
        count = result.trace.initial_charts
        for stats in result.trace.rounds:
            assert stats.savings >= stats.cardinality >= 1
            count -= stats.cardinality
        assert count == result.trace.final_charts
        assert len(result.trace.rounds) <= inst.n - 1 if inst.n > 1 else True


class TestPackMatching:
    def test_single_chart(self):
        inst = validate_instance([(0.5, 0.5)], 10)
        result = pack_matching(inst)
        assert result.length == 2
        assert result.trace.rounds == ()
        check_run(inst, result)

    def test_two_union_realized_from_cardinality_matching(self):
        inst = validate_instance([(0.4, 0.6), (0.6, 0.4)], 10)
        result = pack_matching(inst)
        assert len(result.trace.rounds) == 1
        stats = result.trace.rounds[0]
        assert stats.cardinality == 1
        assert stats.savings == 2  # matched on cardinality, merged at t=2
        assert result.length == 2
        check_run(inst, result)

    def test_ratio_on_sample_big_nonincreasing(self):
        for seed in range(12):
            inst = gen_big_nonincreasing(8, seed)
            result = pack_matching(inst)
            check_run(inst, result)
            opt = solve_exact(inst)
            assert opt.proven
            assert 2 * result.length <= 3 * opt.opt_length
            m1 = result.trace.rounds[0].cardinality if result.trace.rounds else 0
            assert result.length <= 2 * inst.n - m1


class TestPackWeighted:
    def test_two_union(self):
        inst = validate_instance([(0.4, 0.6), (0.6, 0.4)], 10)
        result = pack_weighted_matching(inst)
        assert result.trace.rounds[0].weight == 2
        assert result.length == 2
        check_run(inst, result)

    def test_tight_family_stays_within_guarantee(self):
        inst = gen_tight_family(1, 100)
        result = pack_weighted_matching(inst)
        check_run(inst, result)
        assert 5 <= result.length <= 6  # OPT=5; any max-weight run is <= 3/2 OPT

    def test_round_one_bound_on_big(self):
        for seed in range(12):
            inst = gen_big(8, seed)
            result = pack_weighted_matching(inst)
            check_run(inst, result)
            w1 = result.trace.rounds[0].savings if result.trace.rounds else 0
            assert result.length <= 2 * inst.n - w1

    def test_trace_shape_for_chain_of_nine(self):
        # eight chainable charts plus one isolated: rounds shrink 4, 2, 1
        heights = [(0.6, 0.4)] * 8 + [(0.7, 0.7)]
        inst = validate_instance(heights, 10)
        result = pack_matching(inst)
        assert [r.cardinality for r in result.trace.rounds] == [4, 2, 1]
        assert result.length == 2 * 9 - (4 + 2 + 1)  # 11
        check_run(inst, result)


class TestForcedFirstMatching:
    def test_tight_k1_adversarial(self):
        inst = gen_tight_family(1, 100)
        result = pack_forced_first_matching(inst, tight_family_forced_pairs(inst))
        assert result.length == 6
        assert len(result.trace.rounds) == 1  # merged charts admit no further union
        check_run(inst, result)

    def test_tight_k2_adversarial_vs_opt(self):
        inst = gen_tight_family(2, 100)
        result = pack_forced_first_matching(inst, tight_family_forced_pairs(inst))
        assert result.length == 12
        opt = solve_exact(inst)
        assert opt.proven and opt.opt_length == 9
        check_run(inst, result)

    def test_not_max_weight(self):
        inst = gen_tight_family(1, 100)
        with pytest.raises(NotMaxWeight):
            pack_forced_first_matching(inst, [(0, 1)])  # weight 1 < optimum 2

    def test_not_a_matching_on_reused_vertex(self):
        inst = gen_tight_family(1, 100)
        with pytest.raises(NotAMatching):
            pack_forced_first_matching(inst, [(0, 2), (0, 3)])

    def test_not_a_matching_on_missing_edge(self):
        inst = validate_instance([(0.8, 0.7), (0.6, 0.9)], 10)
        with pytest.raises(NotAMatching):
            pack_forced_first_matching(inst, [(0, 1)])

    @pytest.mark.parametrize("pairs", [[(0, 5)], [(3, 3)], [(0, 0)]])
    def test_single_chart_checks_the_pairing(self, pairs):
        # one chart leaves no round to run, but a pairing still names charts
        inst = validate_instance([(0.5, 0.5)], 10)
        with pytest.raises(NotAMatching):
            pack_forced_first_matching(inst, pairs)
        assert pack_forced_first_matching(inst, []).length == 2

    def test_forced_equals_free_when_unique(self):
        inst = validate_instance([(0.4, 0.6), (0.6, 0.4)], 10)
        forced = pack_forced_first_matching(inst, [(0, 1)])
        assert forced.length == pack_weighted_matching(inst).length == 2


class TestFirstFit:
    def test_single_chart(self):
        inst = validate_instance([(0.5, 0.5)], 10)
        result = pack_first_fit(inst)
        assert result.length == 2
        assert result.trace.rounds == ()
        check_run(inst, result, matching_based=False)

    def test_no_overlap_possible(self):
        inst = validate_instance([(0.6, 0.6), (0.6, 0.6)], 10)
        result = pack_first_fit(inst)
        assert result.packing.starts == (1, 3)
        assert result.length == 4

    def test_overlapping_pair(self):
        inst = validate_instance([(0.7, 0.3), (0.35, 0.65)], 100)
        result = pack_first_fit(inst)
        assert result.packing.starts == (1, 2)
        assert result.length == 3

    def test_order_argument(self):
        inst = validate_instance([(0.35, 0.65), (0.7, 0.3)], 100)
        swapped = pack_first_fit(inst, order=[1, 0])
        assert swapped.packing.starts == (2, 1)
        with pytest.raises(ValueError):
            pack_first_fit(inst, order=[0, 0])


class TestRealize:
    def test_three_cell_chart(self):
        chart = merge(chart_from_bars(BarChart(0, 70, 30)),
                      chart_from_bars(BarChart(1, 35, 65)), 1, 100)
        packing = realize([chart])
        assert packing.starts == (1, 2)  # occupies cells 1-3

    def test_two_charts_side_by_side(self):
        charts = [chart_from_bars(BarChart(0, 50, 50)),
                  chart_from_bars(BarChart(1, 50, 50))]
        packing = realize(charts)
        assert packing.starts == (1, 3)

    def test_lengths_three_and_two(self):
        three = merge(chart_from_bars(BarChart(0, 70, 30)),
                      chart_from_bars(BarChart(1, 35, 65)), 1, 100)
        two = chart_from_bars(BarChart(2, 50, 50))
        inst = validate_instance([(0.7, 0.3), (0.35, 0.65), (0.5, 0.5)], 100)
        packing = realize([three, two])
        assert length(inst, packing) == 5

    def test_layout_order_follows_first_provenance_id(self):
        a = chart_from_bars(BarChart(1, 50, 50))
        b = chart_from_bars(BarChart(0, 50, 50))
        packing = realize([a, b])
        assert packing.starts == (1, 3)  # id 0 laid first despite list order

    def test_provenance_gap(self):
        with pytest.raises(ProvenanceGap):
            realize([chart_from_bars(BarChart(1, 50, 50))])
        with pytest.raises(ProvenanceGap):
            realize([chart_from_bars(BarChart(0, 50, 50)),
                     chart_from_bars(BarChart(0, 50, 50))])


class TestResultJson:
    def test_shape(self):
        inst = validate_instance([(0.4, 0.6), (0.6, 0.4)], 10)
        text = pack_result_to_json(pack_weighted_matching(inst))
        assert text == '{"length":2,"starts":[1,1],"trace":[{"m":1,"w":2,"s":2}]}'


# pack_result_to_json bytes of (pack_matching, pack_weighted_matching),
# recorded before the union graph became a flat edge list; for the tight
# family the size is k and the seed is unused.
GOLDEN_RESULTS = {
    ("big-nonincreasing", 16, 0): (
        '{"length":21,"starts":[1,20,12,6,9,11,3,4,10,14,8,17,15,5,13,19],'
        '"trace":[{"m":7,"w":7,"s":7},{"m":3,"w":3,"s":3},{"m":1,"w":1,"s":1}]}',
        '{"length":21,"starts":[1,20,12,6,9,11,3,4,10,14,8,17,15,5,13,19],'
        '"trace":[{"m":7,"w":7,"s":7},{"m":3,"w":3,"s":3},{"m":1,"w":1,"s":1}]}'),
    ("big-nonincreasing", 16, 1): (
        '{"length":23,"starts":[6,1,4,10,9,16,13,12,2,7,5,15,19,22,18,21],'
        '"trace":[{"m":8,"w":8,"s":8},{"m":1,"w":1,"s":1}]}',
        '{"length":23,"starts":[6,1,4,10,9,16,13,12,2,7,5,15,19,22,18,21],'
        '"trace":[{"m":8,"w":8,"s":8},{"m":1,"w":1,"s":1}]}'),
    ("big-nonincreasing", 16, 2): (
        '{"length":24,"starts":[1,17,23,3,6,8,9,12,18,16,15,20,13,22,4,10],'
        '"trace":[{"m":6,"w":6,"s":6},{"m":2,"w":2,"s":2}]}',
        '{"length":24,"starts":[1,17,23,3,6,8,9,12,18,16,15,20,13,22,4,10],'
        '"trace":[{"m":6,"w":6,"s":6},{"m":2,"w":2,"s":2}]}'),
    ("big", 16, 0): (
        '{"length":26,"starts":[1,18,4,25,6,9,11,13,22,15,2,17,19,7,21,24],'
        '"trace":[{"m":5,"w":5,"s":5},{"m":1,"w":1,"s":1}]}',
        '{"length":27,"starts":[1,4,6,26,8,11,13,2,4,15,17,19,21,23,25,9],'
        '"trace":[{"m":4,"w":5,"s":5}]}'),
    ("big", 16, 1): (
        '{"length":25,"starts":[21,1,4,24,12,7,9,11,2,14,5,18,17,20,15,23],'
        '"trace":[{"m":7,"w":7,"s":7}]}',
        '{"length":24,"starts":[1,4,7,2,8,10,23,12,5,15,13,17,19,22,20,17],'
        '"trace":[{"m":7,"w":8,"s":8}]}'),
    ("big", 16, 2): (
        '{"length":24,"starts":[1,4,7,10,2,5,13,8,20,16,17,19,22,11,23,14],'
        '"trace":[{"m":8,"w":8,"s":8}]}',
        '{"length":24,"starts":[1,3,5,7,10,12,15,17,8,10,19,21,23,13,5,3],'
        '"trace":[{"m":5,"w":8,"s":8}]}'),
    ("general", 16, 0): (
        '{"length":21,"starts":[1,20,4,17,6,10,12,16,8,15,7,17,19,13,4,2],'
        '"trace":[{"m":7,"w":7,"s":9},{"m":2,"w":2,"s":2}]}',
        '{"length":21,"starts":[1,20,4,6,2,8,10,14,15,13,6,17,19,11,4,17],'
        '"trace":[{"m":7,"w":10,"s":10},{"m":1,"w":1,"s":1}]}'),
    ("general", 16, 1): (
        '{"length":21,"starts":[20,1,4,13,17,9,6,12,12,7,16,10,14,2,5,19],'
        '"trace":[{"m":8,"w":8,"s":9},{"m":2,"w":2,"s":2}]}',
        '{"length":20,"starts":[1,4,3,6,8,10,1,12,14,19,14,6,16,12,10,18],'
        '"trace":[{"m":7,"w":12,"s":12}]}'),
    ("general", 16, 2): (
        '{"length":22,"starts":[2,1,12,11,16,4,7,21,5,19,10,15,8,18,13,20],'
        '"trace":[{"m":8,"w":8,"s":8},{"m":2,"w":2,"s":2}]}',
        '{"length":22,"starts":[2,1,4,21,6,8,11,14,9,11,6,13,16,4,18,20],'
        '"trace":[{"m":7,"w":10,"s":10}]}'),
    ("tight", 1, 0): (
        '{"length":6,"starts":[1,4,5,2],"trace":[{"m":2,"w":2,"s":2}]}',
        '{"length":6,"starts":[1,4,5,2],"trace":[{"m":2,"w":2,"s":2}]}'),
    ("tight", 2, 1): (
        '{"length":12,"starts":[1,4,7,10,11,8,5,2],"trace":[{"m":4,"w":4,"s":4}]}',
        '{"length":12,"starts":[1,4,7,10,11,8,5,2],"trace":[{"m":4,"w":4,"s":4}]}'),
    ("tight", 3, 2): (
        '{"length":18,"starts":[1,4,7,10,13,16,17,14,11,8,5,2],"trace":[{"m":6,"w":6,"s":6}]}',
        '{"length":18,"starts":[1,4,7,10,13,16,17,14,11,8,5,2],"trace":[{"m":6,"w":6,"s":6}]}'),
}


class TestGoldenResults:
    @pytest.mark.parametrize("case", sorted(GOLDEN_RESULTS), ids=str)
    def test_result_bytes_unchanged(self, case):
        inst = generate(GenSpec(*case))
        m_json, mw_json = GOLDEN_RESULTS[case]
        assert pack_result_to_json(pack_matching(inst)) == m_json
        assert pack_result_to_json(pack_weighted_matching(inst)) == mw_json


def corpus():
    """The pinned differential corpus, in a fixed order: three random
    families at n = 10, 40, 150 with seeds 0-9, then the tight family
    with k = 1-5."""
    for family in ("big", "general", "big-nonincreasing"):
        for n in (10, 40, 150):
            for seed in range(10):
                yield (family, n, seed), generate(GenSpec(family, n, seed))
    for k in range(1, 6):
        yield ("tight", k, 0), gen_tight_family(k)


# The first 8 hex digits of the sha256 of each pack_result_to_json text
# over the corpus, pack_matching then pack_weighted_matching per instance.
# A matcher that returns another maximum matching changes these; update
# them only with the number of changed results and lengths on record.
CORPUS_DIGESTS = (
    "6d9303ee 49841f67 a39b6b4b a39b6b4b 5f999383 f1dbb3b4 c492bfcb c492bfcb "
    "669d5afb b95034f3 ac30d029 ac30d029 56417fb1 56417fb1 bc669582 b6ec0b93 "
    "6b9c2b77 1482bc59 2e21840a 2e21840a f2cd041b 39d9a20b 75e6c82c a886822c "
    "3f729a36 8423970b fbd724a3 41cef500 60700218 dbe90e46 cee05ca2 7d8e675d "
    "1506cc55 09cb321e c94f7aad d032c322 25fec03d 7fbbcb86 9688739f d044bbbc "
    "9bd378b1 d887cca2 3f1e9dbb 9e4849b3 37d895ed 82e62944 2a784d2d 77519603 "
    "2c2cb301 f4b8c9ec 91caf773 c2463cc4 a1722843 b61ae6db d6cdf13d 66bc9732 "
    "fb96a9e1 a3e06bdb 88319196 18a34f9e 2d49aa75 1ebfe574 08a32811 78241c05 "
    "826ed553 9e878e8a 3c0f2b72 09ecf04f 49739597 74023459 150fa78f 1775656d "
    "6f841396 21de6c31 1e4fbc68 de695b65 77709537 13905533 1627bbdd 5d52c36f "
    "36863a80 525f3ee5 e3ecbc20 b3f1608b 7e8afeb4 2315e781 957cde7d 2970d2b6 "
    "47df4311 96a75cd6 52843699 1f3ca581 3b40c3f5 357c1442 64015435 21a9c22e "
    "c829f5a5 ab3454f5 47a421af e51180ef b6cc9cce 9dcd9185 bd67dcf4 546b6c94 "
    "ce0058b5 883600a9 b933c060 2ca79365 c653e23a 5e68ab10 a845cac6 5faf455c "
    "4872a31f 75e317ef 9f6ce0e8 11d39f36 09e49519 0e0feb45 fd8c8362 e101aa02 "
    "b1c95aff b1c95aff 28cb1e54 28cb1e54 8a38bc75 8a38bc75 c0abbd15 c0abbd15 "
    "c5b1416c c5b1416c 4a2785fc 4a2785fc fba9166d fba9166d c796050f c796050f "
    "8232ec1b 8232ec1b 62a0e5fa 62a0e5fa 7b0b2896 7b0b2896 74b2b72c 74b2b72c "
    "e72c00b2 e72c00b2 c6bb4ad8 c6bb4ad8 d46f3e2d d46f3e2d dfd1d1b3 dfd1d1b3 "
    "f804eb03 f804eb03 bd76fbf4 bd76fbf4 1e442d7c 1e442d7c 17bafd32 17bafd32 "
    "ffa6df8c ffa6df8c 212edcac 212edcac ad36da93 ad36da93 d101842a d101842a "
    "ed091d5a ed091d5a f4b29afa f4b29afa 8465a0b0 8465a0b0 fc03fadf fc03fadf "
    "be439fc1 be439fc1 c09d0c61 c09d0c61 127d181c 127d181c 4b98bec9 4b98bec9 "
    "f1401e5a f1401e5a 48391dfd 48391dfd 01ba5ddc 01ba5ddc"
).split()


class TestCorpus:
    def test_digests_unchanged(self):
        expected = iter(CORPUS_DIGESTS)
        count = 0
        for label, inst in corpus():
            for packer in (pack_matching, pack_weighted_matching):
                text = pack_result_to_json(packer(inst))
                digest = hashlib.sha256(text.encode()).hexdigest()[:8]
                assert digest == next(expected, None), \
                    f"first changed result: {packer.__name__} on {label}: {text}"
                count += 1
        assert count == len(CORPUS_DIGESTS)

    def test_union_graphs_solve_alike_under_unit_and_weighted_code(self, monkeypatch):
        # a pack_weighted_matching graph whose edges all save the same number
        # of cells must get the edges the cardinality solver picks
        graphs = []

        def record(g):
            graphs.append(g)
            return max_weight_matching(g)
        monkeypatch.setattr(packers, "max_weight_matching", record)
        for _, inst in corpus():
            pack_weighted_matching(inst)
        uniform = [g for g in graphs if len({w for _, _, w in g.edges}) == 1]
        assert (len(graphs), len(uniform)) == (139, 84)
        for g in uniform:
            assert max_cardinality_matching(g).edge_indices == \
                max_weight_matching(g).edge_indices

    def test_edge_ids_are_pinned(self, monkeypatch):
        # the edge ids both solvers pick on the corpus's weighted union graphs
        # and on 2,100 small random graphs; a solver change that returns
        # another optimum anywhere changes the digest
        graphs = []

        def record(g):
            graphs.append(g)
            return max_weight_matching(g)
        monkeypatch.setattr(packers, "max_weight_matching", record)
        for _, inst in corpus():
            pack_weighted_matching(inst)
        assert len(graphs) == 139
        rng = random.Random(2024)
        for weights in (range(1, 101), (1, 2), range(1, 6)):
            graphs += [random_graph(rng, 16, weights) for _ in range(700)]
        digest = hashlib.sha256()
        for g in graphs:
            for solve in (max_weight_matching, max_cardinality_matching):
                digest.update(repr(sorted(solve(g).edge_indices)).encode())
        assert digest.hexdigest()[:16] == "89b0c622ce6f50dc"

    def test_verified_ids_are_the_mate_filter_ids(self, monkeypatch):
        # _verify_optimum collects the matched edge ids in its slackness
        # pass; on every corpus graph they must be the ids that a filter for
        # mate.get(u) == v over the edges picks
        verify, checked = matching._verify_optimum, []

        def compare(edges, adj, mate, *duals):
            ids = verify(edges, adj, mate, *duals)
            assert ids == [i for i, (u, v, _) in enumerate(edges) if mate.get(u) == v]
            checked.append(ids)
            return ids
        monkeypatch.setattr(matching, "_verify_optimum", compare)
        for _, inst in corpus():
            pack_matching(inst)
            pack_weighted_matching(inst)
        # one verified solve per unit and per weighted graph
        assert len(checked) == 167 + 139


class TestInvariantChecks:
    def test_telescoping_length_checked_without_assert(self, monkeypatch):
        real_length = packers.length
        monkeypatch.setattr(packers, "length", lambda inst, p: real_length(inst, p) + 1)
        inst = validate_instance([(0.4, 0.6), (0.6, 0.4)], 10)
        for packer in (pack_matching, pack_weighted_matching):
            with pytest.raises(InvariantViolation, match="2n - savings"):
                packer(inst)

    def test_check_survives_python_O(self):
        code = "\n".join([
            "import barpack.packers as p",
            "from barpack.errors import InvariantViolation",
            "from barpack.model import validate_instance",
            "real = p.length",
            "p.length = lambda inst, packing: real(inst, packing) + 1",
            "try:",
            "    p.pack_matching(validate_instance([(0.4, 0.6), (0.6, 0.4)], 10))",
            "except InvariantViolation:",
            "    print('raised')",
        ])
        src = str(Path(barpack.__file__).resolve().parents[1])
        env = {**os.environ, "PYTHONPATH": src}
        run = subprocess.run([sys.executable, "-O", "-c", code], env=env,
                             capture_output=True, text=True, timeout=60)
        assert run.stdout.strip() == "raised", run.stderr
