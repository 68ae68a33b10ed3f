"""Exact solver, lower bounds, disassembly, and the boolean-model export."""

import gc
import random

import pytest

from barpack import exact
from barpack.errors import InfeasiblePacking, JmaxTooSmall, NotBigInstance
from barpack.exact import (
    DEFAULT_NODE_BUDGET,
    ExactResult,
    disassemble,
    export_blp,
    lower_bound,
    solve_exact,
)
from barpack.generators import (
    gen_big,
    gen_big_nonincreasing,
    gen_general,
    gen_tight_family,
)
from barpack.model import (
    BarChart,
    Instance,
    Packing,
    compact,
    is_feasible,
    length,
    validate_instance,
)
from barpack.packers import pack_first_fit, pack_matching, pack_weighted_matching


def naive_opt(inst):
    """Fully independent optimum: try every start assignment up to 2n."""
    n = inst.n
    best = 2 * n
    starts = [0] * n

    def rec(i):
        nonlocal best
        if i == n:
            p = Packing(tuple(starts))
            if is_feasible(inst, p):
                best = min(best, length(inst, p))
            return
        for s in range(1, 2 * n):
            starts[i] = s
            rec(i + 1)

    rec(0)
    return best


def dfs_reference(inst, budget=DEFAULT_NODE_BUDGET):
    """The depth-first search over start cells that solve_exact used before
    its left-to-right search, kept verbatim as a differential reference."""
    seed = pack_weighted_matching(inst)
    best_len = seed.length
    best_packing = seed.packing
    # early exit only on the elementary mass bound, so optimality claims
    # about big instances are established by search, not assumed
    area_lb = max(-(-inst.total_mass() // inst.denominator), 2)
    if best_len == area_lb:
        return ExactResult(best_len, best_packing, 0, True)

    denom = inst.denominator
    n = inst.n
    # heavier charts first: their big bars block cells early
    order = sorted(range(n), key=lambda i: (-max(inst.charts[i].a, inst.charts[i].b),
                                            -(inst.charts[i].a + inst.charts[i].b),
                                            inst.charts[i].a, inst.charts[i].b, i))
    heights = [(inst.charts[i].a, inst.charts[i].b) for i in order]
    # symmetry: identical charts take non-decreasing start cells
    prev_same = [-1] * n
    last_at = {}
    for pos, (a, b) in enumerate(heights):
        if (a, b) in last_at:
            prev_same[pos] = last_at[(a, b)]
        last_at[(a, b)] = pos

    # a cell loaded above 1/2 cannot take any further bar above 1/2
    def is_tall(load):
        return 2 * load > denom

    rem_tall = [0] * (n + 1)
    for pos in range(n - 1, -1, -1):
        a, b = heights[pos]
        rem_tall[pos] = rem_tall[pos + 1] + (1 if is_tall(a) else 0) + (1 if is_tall(b) else 0)

    max_cell = best_len + 1
    loads = [0] * (max_cell + 2)
    starts = [0] * n
    nodes = 0
    out_of_budget = False
    ones = 0  # charts currently starting at cell 1

    def search(pos, occ, tall_cells):
        nonlocal best_len, best_packing, nodes, out_of_budget, ones
        if pos == n:
            if ones == 0:
                return  # a shifted copy; its compacted twin is found elsewhere
            best_len = occ
            by_id = [0] * n
            for p, cid in enumerate(order):
                by_id[cid] = starts[p]
            best_packing = Packing(tuple(by_id))
            return
        if out_of_budget:
            return
        a, b = heights[pos]
        lo = 1 if prev_same[pos] < 0 else starts[prev_same[pos]]
        hi = best_len - 1
        if pos == n - 1 and ones == 0:
            hi = min(hi, 1)
        s = lo
        while s <= hi:
            la, lb2 = loads[s], loads[s + 1]
            if la + a <= denom and lb2 + b <= denom:
                new_occ = occ + (1 if la == 0 else 0) + (1 if lb2 == 0 else 0)
                new_tall = tall_cells
                if is_tall(la + a) and not is_tall(la):
                    new_tall += 1
                if is_tall(lb2 + b) and not is_tall(lb2):
                    new_tall += 1
                if max(new_occ, new_tall + rem_tall[pos + 1]) < best_len:
                    nodes += 1
                    if nodes > budget:
                        out_of_budget = True
                        return
                    loads[s] = la + a
                    loads[s + 1] = lb2 + b
                    starts[pos] = s
                    if s == 1:
                        ones += 1
                    search(pos + 1, new_occ, new_tall)
                    if s == 1:
                        ones -= 1
                    loads[s] = la
                    loads[s + 1] = lb2
                    hi = best_len - 1
            s += 1

    search(0, 0, 0)
    return ExactResult(best_len, compact(inst, best_packing), nodes,
                       not out_of_budget)


def differential_sweep():
    """Seeded instances on which solve_exact must agree with dfs_reference:
    the three random families at n <= 7, small denominators (many equal
    charts) and the tight family."""
    cases = []
    for gen in (gen_big, gen_general, gen_big_nonincreasing):
        for n in range(1, 8):
            for seed in range(12 if n < 7 else 6):
                cases.append(gen(n, seed))
    for gen in (gen_big, gen_general):
        for denominator in (4, 6, 10):
            for n in range(2, 8):
                for seed in range(4):
                    cases.append(gen(n, 100 + seed, denominator))
    cases.extend(gen_tight_family(k, 100) for k in (1, 2, 3))
    return cases


class TestLowerBound:
    def test_big_count_dominates(self):
        inst = validate_instance([(0.6, 0.24)] * 5, 100)  # mass 4.2, all big
        assert lower_bound(inst) == 5

    def test_area_bound(self):
        inst = validate_instance([(0.5, 0.23)] * 10, 100)  # mass 7.3, none big
        assert lower_bound(inst) == 8

    def test_single_chart_floor(self):
        inst = validate_instance([(0.1, 0.1)], 10)
        assert lower_bound(inst) == 2


class TestSolveExact:
    def test_single_chart(self):
        res = solve_exact(validate_instance([(0.3, 0.4)], 10))
        assert res.opt_length == 2 and res.proven

    def test_two_union_pair(self):
        res = solve_exact(validate_instance([(0.4, 0.6), (0.6, 0.4)], 10))
        assert res.opt_length == 2 and res.proven

    def test_tight_family_k1(self):
        res = solve_exact(gen_tight_family(1, 100))
        assert res.opt_length == 5 and res.proven
        assert length(gen_tight_family(1, 100), res.packing) == 5

    def test_matches_naive_enumeration(self):
        rng = random.Random(31)
        for _ in range(25):
            n = rng.randint(1, 4)
            denom = rng.choice([10, 100])
            inst = Instance(tuple(BarChart(i, rng.randint(1, denom),
                                           rng.randint(1, denom))
                                  for i in range(n)), denom)
            res = solve_exact(inst)
            assert res.proven
            assert res.opt_length == naive_opt(inst), inst

    def test_witness_is_feasible_and_compact(self):
        for seed in range(8):
            inst = gen_big(6, seed)
            res = solve_exact(inst)
            assert is_feasible(inst, res.packing)
            assert length(inst, res.packing) == res.opt_length

    def test_never_below_lower_bound_or_above_heuristics(self):
        for seed in range(10):
            inst = gen_big(7, seed)
            res = solve_exact(inst)
            assert res.proven
            assert res.opt_length >= lower_bound(inst)
            for packer in (pack_matching, pack_weighted_matching, pack_first_fit):
                assert res.opt_length <= packer(inst).length

    def test_budget_exhaustion_is_soft(self):
        inst = gen_tight_family(2, 100)  # heuristic sits above the optimum
        full = solve_exact(inst)
        starved = solve_exact(inst, budget=1)
        assert not starved.proven
        assert starved.opt_length >= full.opt_length  # still a valid upper bound
        assert is_feasible(inst, starved.packing)

    def test_property_one_bound(self):
        # n charts occupying Y cells never repack below Y - (n - 1)
        rng = random.Random(44)
        for _ in range(15):
            n = rng.randint(2, 6)
            inst = gen_big(n, rng.randint(0, 10 ** 6))
            result = pack_first_fit(inst, order=rng.sample(range(n), n))
            y = result.length
            res = solve_exact(inst)
            assert res.proven
            assert res.opt_length >= y - (n - 1)

    def test_matches_the_start_cell_dfs(self):
        for inst in differential_sweep():
            res, ref = solve_exact(inst), dfs_reference(inst)
            assert (res.opt_length, res.proven) == (ref.opt_length, ref.proven), inst
            assert length(inst, res.packing) == res.opt_length

    def test_memo_only_accelerates(self, monkeypatch):
        # with no memo entries the search cuts less, never differently
        monkeypatch.setattr(exact, "MEMO_CAP", 0)
        for inst in differential_sweep():
            res = solve_exact(inst)
            assert res.proven
            assert res.opt_length == dfs_reference(inst).opt_length, inst

    @pytest.mark.parametrize("charts, denominator, opt", [
        ([(1, 2), (1, 2), (2, 2)], 4, 3),
        ([(3, 2), (1, 2), (1, 2)], 4, 3),
        ([(1, 3), (2, 4), (6, 7)], 10, 3),
        ([(1, 2), (4, 4), (1, 2), (3, 2)], 4, 5),
    ])
    def test_open_cell_stays_open_while_an_a_bar_fits(self, charts, denominator, opt):
        # e.g. (2, 2) then (1, 2) one cell later loads that cell to 3/4:
        # no b bar fits there any more, but the other (1, 2) still starts
        # on it, so the cell must not be closed
        inst = Instance(tuple(BarChart(i, a, b) for i, (a, b) in enumerate(charts)),
                        denominator)
        res = solve_exact(inst)
        assert res.proven
        assert res.opt_length == naive_opt(inst) == opt

    def test_leaves_no_reference_cycles(self):
        # the recursive search and its memo must be freed on return, not
        # whenever the cyclic collector next runs
        inst = gen_tight_family(2, 100)
        gc.collect()
        gc.disable()
        try:
            res = solve_exact(inst)
            assert gc.collect() == 0
        finally:
            gc.enable()
        assert res.proven and res.nodes_explored > 0

    @pytest.mark.parametrize("gen, seed, opt, nodes", [
        (gen_big_nonincreasing, 0, 16, 6025),
        (gen_big_nonincreasing, 2, 17, 4911),
        (gen_general, 0, 14, 1850),
    ])
    def test_node_count_is_pinned(self, gen, seed, opt, nodes):
        # a weaker bound or memo still proves the optimum, only with more
        # nodes; a change to the search updates these counts on purpose
        res = solve_exact(gen(12, seed))
        assert (res.opt_length, res.proven, res.nodes_explored) == (opt, True, nodes)

    def test_proves_big_nonincreasing_n12(self):
        for seed in range(10):
            res = solve_exact(gen_big_nonincreasing(12, seed), budget=2_000_000)
            assert res.proven, seed
            assert res.opt_length >= 12


def rounds_cardinalities(rounds):
    return [r.cardinality for r in rounds]


class TestDisassemble:
    def test_chain_of_three(self):
        inst = validate_instance([(0.6, 0.4)] * 3, 10)
        rounds = disassemble(inst, Packing((1, 2, 3)))
        assert rounds_cardinalities(rounds) == [1, 1]
        first = rounds[0]
        assert first.pairs == (((0,), (1,), 1),)  # chart 2 left alone

    def test_disjoint_charts(self):
        inst = validate_instance([(0.6, 0.6)] * 3, 10)
        assert disassemble(inst, Packing((1, 3, 5))) == ()

    def test_tight_family_optimal_chain(self):
        inst = gen_tight_family(1, 100)
        rounds = disassemble(inst, Packing((1, 2, 3, 4)))
        assert rounds_cardinalities(rounds) == [2, 1]
        total = sum(r.weight for r in rounds)
        assert 2 * inst.n - total == 5

    def test_rejects_non_big(self):
        inst = validate_instance([(0.5, 0.5)], 10)
        with pytest.raises(NotBigInstance):
            disassemble(inst, Packing((1,)))

    def test_rejects_infeasible(self):
        inst = validate_instance([(0.7, 0.3), (0.35, 0.65)], 100)
        with pytest.raises(InfeasiblePacking):
            disassemble(inst, Packing((1, 1)))

    def test_telescoping_on_random_big_packings(self):
        rng = random.Random(9)
        for _ in range(40):
            n = rng.randint(1, 8)
            inst = gen_big(n, rng.randint(0, 10 ** 6))
            result = pack_first_fit(inst, order=rng.sample(range(n), n))
            rounds = disassemble(inst, result.packing)
            assert 2 * n - sum(r.weight for r in rounds) == result.length

    def test_first_matching_dominates_rest(self):
        # disassembled optimum: later rounds never outnumber the first,
        # and the first never beats the algorithm's first matching
        checked = 0
        for seed in range(15):
            inst = gen_big_nonincreasing(7, seed)
            res = solve_exact(inst)
            assert res.proven
            rounds = disassemble(inst, res.packing)
            m1_star = rounds[0].cardinality if rounds else 0
            rest = sum(r.cardinality for r in rounds[1:])
            run = pack_matching(inst)
            m1 = run.trace.rounds[0].cardinality if run.trace.rounds else 0
            assert rest <= m1_star <= m1
            checked += 1
        assert checked == 15


class TestExportBlp:
    def test_single_chart_model(self):
        inst = validate_instance([(0.7, 0.3)], 10)
        text = export_blp(inst, 2)
        assert text == (
            "\\ two-bar chart strip packing, boolean model\n"
            "\\ charts: 1  cells: 2  denominator: 10\n"
            "Minimize\n"
            " obj: y_1 + y_2\n"
            "Subject To\n"
            " assign_1: x_1_1 = 1\n"
            " cap_1: 0.7 x_1_1 - 1 y_1 <= 0\n"
            " cap_2: 0.3 x_1_1 - 1 y_2 <= 0\n"
            "Binary\n"
            " x_1_1 y_1 y_2\n"
            "End\n"
        )

    def test_jmax_too_small(self):
        inst = validate_instance([(0.7, 0.3)], 10)
        with pytest.raises(JmaxTooSmall):
            export_blp(inst, 1)

    def test_row_and_variable_counts(self):
        inst = gen_tight_family(1, 100)
        jmax = 8
        text = export_blp(inst, jmax)
        assert text.count("assign_") == inst.n
        assert text.count("cap_") == jmax
        for i in range(1, inst.n + 1):
            for j in range(1, jmax):
                assert f"x_{i}_{j}" in text
        assert f"x_1_{jmax}" not in text

    def test_non_decimal_denominator_uses_integer_rows(self):
        inst = Instance((BarChart(0, 1, 2),), 3)
        text = export_blp(inst, 2)
        assert " cap_1: 1 x_1_1 - 3 y_1 <= 0" in text
        assert " cap_2: 2 x_1_1 - 3 y_2 <= 0" in text

    def test_exact_decimals_for_default_denominator(self):
        inst = validate_instance([(0.123456, 0.3)], 1_000_000)
        text = export_blp(inst, 2)
        assert "0.123456 x_1_1" in text
        assert "0.300000 x_1_1" in text
