"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines; the sweeps are shared through module-scoped fixtures so the whole
suite stays fast.
"""

import json
import random
import time
from dataclasses import dataclass
from fractions import Fraction

import pytest

from barpack.exact import disassemble, solve_exact
from barpack.generators import (
    GenSpec,
    gen_big,
    gen_big_nonincreasing,
    gen_general,
    gen_tight_family,
    generate,
    tight_family_forced_pairs,
)
from barpack.matching import (
    Graph,
    matching_weight,
    max_cardinality_matching,
    max_weight_matching,
)
from barpack.model import (
    instance_from_json,
    instance_to_json,
    is_feasible,
    length,
    packing_from_json,
    packing_to_json,
)
from barpack.packers import (
    pack_forced_first_matching,
    pack_matching,
    pack_result_to_json,
    pack_weighted_matching,
)
from reference import brute_force_matching, is_valid_matching

SWEEP_SIZE = 200


@dataclass
class SweepCase:
    inst: object
    run: object
    oracle: object  # the proven ExactResult

    @property
    def opt(self):
        return self.oracle.opt_length


@dataclass
class Sweep:
    cases: list
    elapsed: float


@pytest.fixture(scope="module")
def noninc_sweep():
    """Big non-increasing instances solved by the cardinality packer + oracle."""
    t0 = time.monotonic()
    cases = []
    for seed in range(SWEEP_SIZE):
        inst = gen_big_nonincreasing(12, seed)
        run = pack_matching(inst)
        res = solve_exact(inst)
        assert res.proven
        cases.append(SweepCase(inst, run, res))
    return Sweep(cases, time.monotonic() - t0)


@pytest.fixture(scope="module")
def big_sweep():
    """Big instances solved by the weighted packer + oracle."""
    t0 = time.monotonic()
    cases = []
    for seed in range(SWEEP_SIZE):
        inst = gen_big(12, seed)
        run = pack_weighted_matching(inst)
        res = solve_exact(inst)
        assert res.proven
        cases.append(SweepCase(inst, run, res))
    return Sweep(cases, time.monotonic() - t0)


def test_criterion_01_tight_family_ratios():
    t0 = time.monotonic()
    reported = []
    for k in (1, 2):
        inst = gen_tight_family(k, 100)
        res = solve_exact(inst)
        assert res.proven and res.opt_length == 4 * k + 1
        forced = pack_forced_first_matching(inst, tight_family_forced_pairs(inst))
        assert forced.length == 6 * k
        reported.append(f"{forced.length / res.opt_length:.3f}")
    assert reported == ["1.200", "1.333"]
    elapsed = time.monotonic() - t0
    assert elapsed < 60
    print(f"\nPASS criterion 1: tight family k=1,2 -> OPT 5,9; forced 6,12; "
          f"ratios {reported[0]}, {reported[1]} ({elapsed:.1f}s)")


def test_criterion_02_cardinality_packer_guarantee(noninc_sweep):
    assert len(noninc_sweep.cases) >= 200
    worst = 0.0
    for case in noninc_sweep.cases:
        # the bound is for big non-increasing charts; criterion 4 checks big
        assert all(chart.is_nonincreasing() for chart in case.inst.charts)
        assert 2 * case.run.length <= 3 * case.opt
        rounds = case.run.trace.rounds
        m1 = rounds[0].cardinality if rounds else 0
        assert case.run.length <= 2 * case.inst.n - m1
        worst = max(worst, case.run.length / case.opt)
    assert noninc_sweep.elapsed < 600
    print(f"\nPASS criterion 2: {len(noninc_sweep.cases)} big non-increasing "
          f"instances, max L/OPT {worst:.3f} <= 1.5, L <= 2n - m1 "
          f"({noninc_sweep.elapsed:.1f}s)")


def test_criterion_03_weighted_packer_guarantee(big_sweep):
    assert len(big_sweep.cases) >= 200
    worst = 0.0
    for case in big_sweep.cases:
        assert 2 * case.run.length <= 3 * case.opt
        rounds = case.run.trace.rounds
        w1 = rounds[0].savings if rounds else 0
        n = case.inst.n
        ratio = Fraction(case.run.length, case.opt)
        x = Fraction(w1, n)
        assert ratio <= 1 + 1 / (3 - 2 * x)
        assert ratio <= 2 - x
        worst = max(worst, float(ratio))
    print(f"\nPASS criterion 3: {len(big_sweep.cases)} big instances, "
          f"max L/OPT {worst:.3f} <= 1.5 and within the two-sided envelope "
          f"({big_sweep.elapsed:.1f}s)")


def test_criterion_04_big_optimum_at_least_n(noninc_sweep, big_sweep):
    checked = 0
    for case in noninc_sweep.cases + big_sweep.cases:
        assert case.inst.all_big()
        assert case.opt >= case.inst.n
        checked += 1
    print(f"\nPASS criterion 4: OPT >= n on all {checked} exactly solved "
          f"big instances")


def test_criterion_05_savings_identity_every_run(noninc_sweep, big_sweep):
    runs = [(c.inst, c.run) for c in noninc_sweep.cases + big_sweep.cases]
    for k in (1, 2):
        inst = gen_tight_family(k, 100)
        runs.append((inst, pack_forced_first_matching(
            inst, tight_family_forced_pairs(inst))))
        runs.append((inst, pack_weighted_matching(inst)))
    for seed in range(20):  # general instances exercise 2-union rounds
        inst = gen_general(7, seed)
        runs.append((inst, pack_matching(inst)))
        runs.append((inst, pack_weighted_matching(inst)))
    for inst, run in runs:
        assert run.length == 2 * inst.n - run.trace.total_savings()
        assert run.length == length(inst, run.packing)
        count = run.trace.initial_charts
        for stats in run.trace.rounds:
            count -= stats.cardinality
        assert count == run.trace.final_charts
    print(f"\nPASS criterion 5: L = 2n - sum(savings) and per-round chart "
          f"counts on {len(runs)} matching-packer runs")


def test_criterion_06_matching_oracle_equivalence():
    t0 = time.monotonic()
    rng = random.Random(20240607)
    graphs = 0
    while graphs < 500:
        n = rng.randint(0, 10)
        pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
        rng.shuffle(pairs)
        m = rng.randint(0, min(len(pairs), 24))
        g = Graph(n, tuple((u, v, rng.randint(1, 2)) for u, v in pairs[:m]))
        mw = max_weight_matching(g)
        mc = max_cardinality_matching(g)
        assert is_valid_matching(g, mw) and is_valid_matching(g, mc)
        assert matching_weight(g, mw) == matching_weight(
            g, brute_force_matching(g, "weight"))
        assert mc.cardinality() == brute_force_matching(
            g, "cardinality").cardinality()
        graphs += 1
    elapsed = time.monotonic() - t0
    assert elapsed < 120
    print(f"\nPASS criterion 6: both solvers equal brute force on "
          f"{graphs} random graphs ({elapsed:.1f}s)")


def test_criterion_07_no_late_two_unions(noninc_sweep, big_sweep):
    rounds_checked = 0
    for case in big_sweep.cases:
        for stats in case.run.trace.rounds[1:]:
            assert stats.max_union <= 1
            rounds_checked += 1
    for k in (1, 2):
        inst = gen_tight_family(k, 100)
        run = pack_forced_first_matching(inst, tight_family_forced_pairs(inst))
        for stats in run.trace.rounds[1:]:
            assert stats.max_union <= 1
            rounds_checked += 1
    for case in noninc_sweep.cases:  # no 2-unions in any round here
        for stats in case.run.trace.rounds:
            assert stats.max_union <= 1
            rounds_checked += 1
    print(f"\nPASS criterion 7: no 2-union edges after round one "
          f"({rounds_checked} rounds inspected)")


def test_criterion_08_disassembly_inequality(noninc_sweep):
    checked = 0
    for case in noninc_sweep.cases[:60]:
        rounds = disassemble(case.inst, case.oracle.packing)
        m1_star = rounds[0].cardinality if rounds else 0
        rest = sum(r.cardinality for r in rounds[1:])
        run_rounds = case.run.trace.rounds
        m1 = run_rounds[0].cardinality if run_rounds else 0
        assert rest <= m1_star <= m1
        checked += 1
    assert checked >= 50
    print(f"\nPASS criterion 8: disassembled optima satisfy "
          f"m2*+...+mq* <= m1* <= m1 on {checked} instances")


def test_criterion_09_scale_smoke():
    t0 = time.monotonic()
    inst = gen_big(200, 424242)
    run = pack_weighted_matching(inst)
    elapsed = time.monotonic() - t0
    assert elapsed < 60
    assert is_feasible(inst, run.packing)
    assert run.length == length(inst, run.packing)
    assert run.length == 2 * inst.n - run.trace.total_savings()
    for stats in run.trace.rounds[1:]:
        assert stats.max_union <= 1
    print(f"\nPASS criterion 9: n=200 weighted run L={run.length} "
          f"in {elapsed:.1f}s with all invariants")


def test_criterion_10_serialization_round_trips():
    rng = random.Random(1010)
    count = 0
    for _ in range(100):
        family = rng.choice(["big-nonincreasing", "big", "general", "tight"])
        size = rng.randint(1, 3) if family == "tight" else rng.randint(1, 10)
        spec = GenSpec(family, size, seed=rng.randint(0, 10 ** 9),
                       denominator=rng.choice([100, 1000, 1_000_000]))
        inst = generate(spec)
        text = instance_to_json(inst)
        assert instance_to_json(instance_from_json(text)) == text
        assert instance_from_json(text) == inst

        run = pack_weighted_matching(inst)
        result_text = pack_result_to_json(run)
        payload = json.loads(result_text)
        assert json.dumps(payload, separators=(",", ":")) == result_text

        packing_text = packing_to_json(run.packing)
        assert packing_to_json(packing_from_json(packing_text)) == packing_text
        count += 1
    print(f"\nPASS criterion 10: {count} instances and results round-trip "
          f"byte-stably")
