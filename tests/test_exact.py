"""Exact solver, lower bounds, disassembly, and the boolean-model export."""

import gc
import hashlib
import random
from fractions import Fraction

import pytest

from barpack import exact
from barpack.errors import BarpackError, InfeasiblePacking, JmaxTooSmall, NotBigInstance
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
    occupancy,
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


def lp_rows(text):
    """(name, coefficient by variable, sense, right side) of each row of
    an LP text; coefficients are Fractions, so decimals parse too."""
    rows = []
    body = text.split("Subject To\n")[1].split("Binary\n")[0]
    for line in body.splitlines():
        name, expr = line.strip().split(": ")
        *tokens, sense, rhs = expr.split()
        coeffs, sign, coeff = {}, 1, Fraction(1)
        for tok in tokens:
            if tok in "+-":
                sign = -1 if tok == "-" else 1
            elif tok[0].isdigit():
                coeff = Fraction(tok)
            else:
                coeffs[tok] = coeffs.get(tok, 0) + sign * coeff
                sign, coeff = 1, Fraction(1)
        rows.append((name, coeffs, sense, Fraction(rhs)))
    return rows


def pinned_search_cases():
    """(label, instance, budget) for the search pin: the differential sweep
    at the default budget; big-nonincreasing n=12 seeds 0-9 at a budget
    that proves them all and at one that runs out; big-nonincreasing n=10
    seeds 0-19 at 10,000 nodes, where A is closed in every state; and
    general n=10 seeds 0-19, where A is mostly open."""
    for i, inst in enumerate(differential_sweep()):
        yield f"differential_sweep()[{i}]", inst, DEFAULT_NODE_BUDGET
    for budget in (2_000_000, 300):
        for seed in range(10):
            yield (f"gen_big_nonincreasing(12, {seed}) at budget {budget}",
                   gen_big_nonincreasing(12, seed), budget)
    for seed in range(20):
        yield (f"gen_big_nonincreasing(10, {seed}) at budget 10000",
               gen_big_nonincreasing(10, seed), 10_000)
    for seed in range(20):
        yield f"gen_general(10, {seed})", gen_general(10, seed), DEFAULT_NODE_BUDGET


# sha256(repr((opt_length, nodes_explored, proven, starts)))[:8] per case
SEARCH_DIGESTS = (
    "1817fc1d 1817fc1d 1817fc1d 1817fc1d 1817fc1d 1817fc1d 1817fc1d 1817fc1d "
    "1817fc1d 1817fc1d 1817fc1d 1817fc1d d5821e22 abeacd4c bcde22cb c972d1de "
    "abeacd4c d5821e22 c972d1de c972d1de a00900fc d5821e22 d5821e22 c972d1de "
    "33cc7721 95dcea44 b7cb8849 8a285932 e5665b8b b525b888 b525b888 8a285932 "
    "d8ca4c7f feed4d79 d8602068 8a285932 f56eaca5 580c9365 b12c01f3 4dcc12d1 "
    "9274db47 5c92049d 85e18aa7 eee7f2f7 595c700b 852476d8 801c69d4 eee7f2f7 "
    "d554c338 14a3a499 1cdabcec 20304f56 0d67742f 6c89660b 22e4ca0e bdd9a423 "
    "da53e5b0 a4e81fd1 2ca27a27 26818889 52b184e3 d9e39df8 1ae29fd1 87aa53c3 "
    "6f4e33d2 c19939ad 353a4ed6 ab9ef6b8 fb7a54f8 ab9ef6b8 943051ed 84589626 "
    "49031006 b95dfd20 94d40f8f a0697f3a 5b60b6ff ba42b1fa 1817fc1d 1817fc1d "
    "1817fc1d 1817fc1d 1817fc1d 1817fc1d 1817fc1d 1817fc1d 1817fc1d 1817fc1d "
    "1817fc1d 1817fc1d c972d1de abeacd4c abeacd4c a00900fc c5acfa3e 1823ee69 "
    "abeacd4c d3602097 a00900fc a00900fc c5acfa3e bcde22cb d6525e8d 539d803a "
    "87a0059a a4412993 15c7c479 c3f5140d b331bca3 0d58c792 9dd502dc 3925d24d "
    "a9275955 34b1e317 1fa607da 516885ca 0af67ec9 42a59bf6 00c04ce4 b41fcaba "
    "0af67ec9 b456f37c 0b647a59 49de3a52 e53a0135 822c01df c0ab3e26 82bb98d7 "
    "7a447f1a f96abb04 d146cc06 7909c7ac 99cadb69 b1fa4def 27441942 ea117f60 "
    "ee7b92ac 9af7521c d7a78a78 d3babf9e 16d51e44 06e9631e 625c9814 882fbb9d "
    "720f2607 8b7be62a 30de4909 a76bec12 1ef2f68a e817163b b6c794b9 1cf3d700 "
    "5f4b8c03 a03ea68a e8052f84 61fe285d 1817fc1d 1817fc1d 1817fc1d 1817fc1d "
    "1817fc1d 1817fc1d 1817fc1d 1817fc1d 1817fc1d 1817fc1d 1817fc1d 1817fc1d "
    "1823ee69 c5acfa3e 1823ee69 abeacd4c d5821e22 1823ee69 1823ee69 d5821e22 "
    "abeacd4c 1823ee69 d5821e22 c972d1de d8602068 1ee155bc 9f58e3b5 b331bca3 "
    "d8e53311 c3f5140d 9f58e3b5 d6525e8d 01689650 601e8874 d6525e8d 106199a7 "
    "83b9ad2f e5e84988 b530cd70 4750272c 1fa607da b41fcaba 7181a87d 5dbbfa53 "
    "81d80da5 a3d860f6 11717675 9042e808 7cb973dc a86227b8 5610d963 9069916e "
    "5dddd58a 7909c7ac 168c9cff 0fdb2810 3562d661 27bfcb51 135edf16 6930374f "
    "71940bd7 0c6bdae3 5e7591be 52ac0ee5 f49a58c3 882fbb9d 7847733c 392d6f22 "
    "990a7f6e 69da4df9 36955543 c81c635a 900ac021 aff577d7 efe29045 a2dbb72c "
    "19273151 155382dc c972d1de bcde22cb c972d1de c972d1de 106199a7 34b1e317 "
    "b525b888 cd630c48 71736ab9 8f2284ec c2d2af56 3fbbaaa4 79625ba0 40bdea72 "
    "58678915 08d1a681 3e50ee07 9159fece 7e366297 b7258ab3 c21f5320 2430d9b4 "
    "f8814a16 7f1b3d91 c972d1de d5821e22 c972d1de 1823ee69 34b1e317 b7cb8849 "
    "106199a7 609cb3a1 44a6ccf0 7ffe94cb a4183654 852476d8 02e3a871 b6a9fb04 "
    "5acae4be 6fce7907 d404f973 369447d9 b2805fb2 ae3b05ee 08e51619 0c9c6d1e "
    "95fe08d1 92ba4e2b c972d1de d5821e22 c972d1de abeacd4c 8a285932 b7cb8849 "
    "1a720d95 3be253b5 6211a45a d9a59367 8f2284ec 29886ff6 b5ea20cd cb59368e "
    "8c4355ad cc041e6b e661eac1 e854a455 63eebcc8 82f23b8e 4c054869 cbb7e7fb "
    "4b48c7d9 6dc21807 abeacd4c abeacd4c abeacd4c c5acfa3e 1c02b560 601e8874 "
    "86a811a0 7d91d768 fbd9896c ced15f4f 283a7ede 5083c65a 85f126e7 787462b7 "
    "5fed6bb5 372cb95d d1789e98 6d261dd6 d7790303 18b9dcab 2f9e4b73 af5b4348 "
    "13136f6c 85c52eec a00900fc 1823ee69 abeacd4c c972d1de 2630d6a6 d6525e8d "
    "2bc7e28c 6d62d61f 375f9d2b 5dbbfa53 d265b74f b41fcaba 59a691ba a306406a "
    "bc020db2 100b9c54 c54f78d8 69567b63 55699055 e027e21f d233a213 44521c56 "
    "f74412e7 bae22991 abeacd4c 1823ee69 abeacd4c d5821e22 601e8874 7e984187 "
    "1c02b560 d6525e8d ced15f4f c38f1547 610733bc d0f3aa21 e7ebe62a 29684cfb "
    "7e23d2dd b872b474 23e1a6b2 1c22e49a a2b8fea9 a7ae7e13 efcef665 00c65141 "
    "6680d238 3021a809 3a9a5387 64a63c37 6568ae6f 7d335015 8f569e98 0d5762c0 "
    "89abadf4 db42b04c 748977f5 63c78ed0 1bd9faaf bc7751e1 57ef626a 96a602dc "
    "8f569e98 6b610c4a 0b0b3c3a db42b04c 61648125 9a07a1f0 1bd9faaf 02e40abb "
    "05855347 8460130a 15b8b452 7052f0d6 dd149cd8 088c9355 8a6f176e 37f2bc75 "
    "482488cd ae2f5c08 e6a2cfa7 89f0c6c7 6d652774 8674fe9e 8eda5d18 94732081 "
    "dbcb6ecb 1955ced9 93de0eaf c1f242e1 131db103 8d2f6ff8 3bca7cb4 d84fa67d "
    "ed3438e0 1e81e735 9cc3833d e6f0540a 0f55f6e6 899685b6 7fcee747 1688c35d "
    "aad2db6b 425bdbbb 1c7d96c6 47b7bfa7 ded58ee1 e5051e67 4c7d449b 7b27f9e2 "
    "dd2cccbb"
).split()


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

    @pytest.mark.parametrize("cap, digest", [(2, "02199631"), (50, "05b3776c")])
    def test_memo_cap_is_pinned(self, cap, digest, monkeypatch):
        # a cap the search reaches: nodes 1..cap store an entry, later ones
        # do not; storing one entry more or fewer changes the node counts
        monkeypatch.setattr(exact, "MEMO_CAP", cap)
        results = []
        for seed in range(4):
            for inst in (gen_big_nonincreasing(10, seed), gen_general(9, seed)):
                res = solve_exact(inst)
                results.append((res.opt_length, res.nodes_explored, res.proven))
        assert hashlib.sha256(repr(results).encode()).hexdigest()[:8] == digest, results

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

    @pytest.mark.parametrize("charts, denominator, opt, nodes", [
        # A (d = 0): (5, 2) then (3, 4) one cell later load that cell to
        # 2 + 3 = 5 = D - min a, where the other (3, 4) still starts; with
        # (5, 3) the load is 6, one unit above, and no a bar fits
        ([(3, 4), (3, 4), (5, 2)], 8, 3, 4),
        ([(3, 4), (3, 4), (5, 3)], 8, 4, 4),
        # A: (7, 5) alone loads its cell to D - min a = 9 - 2
        ([(2, 2), (2, 4), (7, 5), (8, 2)], 9, 4, 4),
        ([(2, 2), (2, 4), (8, 5), (8, 2)], 9, 5, 12),
        # B (d = 1): (5, 5) loads the next cell to D - min a = 8 - 3, where
        # (3, 6) still starts; at 6 that cell still takes a b bar (min b 2),
        # but no a bar
        ([(3, 6), (5, 5), (7, 2)], 8, 4, 3),
        ([(3, 6), (5, 6), (7, 2)], 8, 5, 4),
        # B: D - min a = 9 - 4, and a b bar fits up to 7
        ([(4, 5), (7, 5), (8, 2)], 9, 4, 3),
        ([(4, 5), (7, 6), (8, 2)], 9, 5, 4),
    ])
    def test_open_load_at_the_lightest_a_bar_boundary(self, charts, denominator, opt,
                                                       nodes):
        inst = Instance(tuple(BarChart(i, a, b) for i, (a, b) in enumerate(charts)),
                        denominator)
        res = solve_exact(inst)
        assert (res.opt_length, res.proven, res.nodes_explored) == (opt, True, nodes)
        assert res.opt_length == naive_opt(inst)

    def test_leaves_no_reference_cycles(self):
        # the search's generators and its memo must be freed on return, not
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

    def test_mass_tight_seed_is_proven_at_the_root(self):
        # no chart fits the root's open loads and every d = 2 child fails the
        # mass cut, so a seed at the mass bound is proven with no node
        count = 0
        for gen in (gen_general, gen_big, gen_big_nonincreasing):
            for n in range(2, 7):
                for seed in range(50):
                    inst = gen(n, seed)
                    heuristic = pack_weighted_matching(inst)
                    mass_bound = max(-(-inst.total_mass() // inst.denominator), 2)
                    if heuristic.length != mass_bound:
                        continue
                    count += 1
                    assert solve_exact(inst) == ExactResult(
                        heuristic.length, heuristic.packing, 0, True), (gen, n, seed)
        assert count == 164

    def test_search_is_pinned(self):
        # every state the search visits shows in nodes_explored, and the
        # witness shows the order; a change to the search that is meant to
        # visit the same states must keep every digest
        expected = iter(SEARCH_DIGESTS)
        count = 0
        for label, inst, budget in pinned_search_cases():
            res = solve_exact(inst, budget=budget)
            text = repr((res.opt_length, res.nodes_explored, res.proven,
                         res.packing.starts))
            digest = hashlib.sha256(text.encode()).hexdigest()[:8]
            assert digest == next(expected, None), \
                f"first changed result: {label}: {text}"
            count += 1
        assert count == len(SEARCH_DIGESTS) == 441

    @pytest.mark.parametrize("budget", [-1, True, False, 2.5, "5", None])
    def test_budget_must_be_a_plain_int(self, budget, monkeypatch):
        # refused before the seed solve, never halfway through the search
        monkeypatch.setattr(exact, "pack_weighted_matching", None)
        with pytest.raises(ValueError, match="budget must be an int >= 0"):
            solve_exact(gen_big_nonincreasing(10, 0), budget=budget)

    def test_zero_budget_returns_the_unproven_seed(self):
        inst = gen_big_nonincreasing(10, 0)
        res = solve_exact(inst, budget=0)
        assert (res.opt_length, res.nodes_explored, res.proven) == (
            pack_weighted_matching(inst).length, 0, False)

    def test_budget_caps_the_nodes_explored(self):
        # the node that would pass the budget is not explored, so not counted
        res = solve_exact(gen_big_nonincreasing(12, 0), budget=300)
        assert (res.nodes_explored, res.proven) == (300, False)
        assert solve_exact(gen_big_nonincreasing(6, 0), budget=5).nodes_explored <= 5

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
            " cap_1: 7 x_1_1 - 10 y_1 <= 0\n"
            " cap_2: 3 x_1_1 - 10 y_2 <= 0\n"
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

    @pytest.mark.parametrize("chart, denominator, rows", [
        ((1, 2), 3, ("1 x_1_1 - 3 y_1", "2 x_1_1 - 3 y_2")),
        ((1, 1), 1, ("1 x_1_1 - 1 y_1", "1 x_1_1 - 1 y_2")),
        ((123456, 300000), 1_000_000,
         ("123456 x_1_1 - 1000000 y_1", "300000 x_1_1 - 1000000 y_2")),
    ], ids=["D=3", "D=1", "D=10^6"])
    def test_capacity_rows_are_integer_numerators(self, chart, denominator, rows):
        text = export_blp(Instance((BarChart(0, *chart),), denominator), 2)
        assert f" cap_1: {rows[0]} <= 0\n" in text
        assert f" cap_2: {rows[1]} <= 0\n" in text

    def test_jmax_above_2n_is_refused(self):
        inst = gen_big(3, 0)
        assert export_blp(inst, 6).count("cap_") == 6
        with pytest.raises(BarpackError, match="2n = 6"):
            export_blp(inst, 7)

    def test_model_holds_the_oracle_witness(self):
        for inst in differential_sweep():
            res = solve_exact(inst)
            rows = lp_rows(export_blp(inst, res.opt_length))
            value = {f"x_{i}_{s}": 1 for i, s in enumerate(res.packing.starts, 1)}
            ys = [int(load > 0) for load in occupancy(inst, res.packing)]
            value.update((f"y_{j}", y) for j, y in enumerate(ys, 1))
            assert sum(ys) == res.opt_length
            for name, coeffs, sense, rhs in rows:
                assert all(c.denominator == 1 for c in coeffs.values()), name
                lhs = sum(c * value.get(var, 0) for var, c in coeffs.items())
                assert lhs == rhs if sense == "=" else lhs <= rhs, (inst, name)

    def test_one_unit_overload_breaks_its_row_by_one(self):
        inst = Instance((BarChart(0, 500_001, 1), BarChart(1, 500_000, 1)), 1_000_000)
        value = {"x_1_1": 1, "x_2_1": 1, "y_1": 1, "y_2": 1}
        rows = {name: (coeffs, rhs) for name, coeffs, _, rhs in lp_rows(export_blp(inst, 2))}
        coeffs, rhs = rows["cap_1"]
        assert sum(c * value.get(var, 0) for var, c in coeffs.items()) - rhs == 1
