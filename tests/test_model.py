"""Core model: exact heights, occupancy, feasibility, length, compaction."""

import random
from decimal import Decimal
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from barpack.errors import (
    EmptyInstance,
    HeightOutOfRange,
    InfeasiblePacking,
    MalformedJson,
    NonRepresentable,
    UnassignedChart,
)
from barpack.model import (
    BarChart,
    Instance,
    Packing,
    checked_occupancy,
    compact,
    height_numerator,
    is_feasible,
    length,
    occupancy,
    validate_instance,
)


def pk(*starts):
    return Packing(tuple(starts))


class TestValidateInstance:
    def test_direct_representation(self):
        inst = validate_instance([(0.7, 0.3)], 10)
        assert inst.charts == (BarChart(0, 7, 3),)
        assert inst.denominator == 10

    def test_zero_height_rejected(self):
        with pytest.raises(HeightOutOfRange):
            validate_instance([(0.0, 0.5)], 10)

    def test_upper_boundary_allowed(self):
        inst = validate_instance([(1.0, 1.0)], 2)
        assert inst.charts == (BarChart(0, 2, 2),)

    def test_above_one_rejected(self):
        with pytest.raises(HeightOutOfRange):
            validate_instance([(1.1, 0.5)], 10)

    def test_off_grid_rejected(self):
        with pytest.raises(NonRepresentable):
            validate_instance([(0.25, 0.5)], 10)

    def test_fraction_input_is_exact(self):
        inst = validate_instance([(Fraction(1, 4), Fraction(3, 4))], 8)
        assert inst.charts == (BarChart(0, 2, 6),)
        with pytest.raises(NonRepresentable):
            validate_instance([(Fraction(1, 3), Fraction(1, 2))], 10)

    def test_empty_rejected(self):
        with pytest.raises(EmptyInstance):
            validate_instance([], 10)

    @pytest.mark.parametrize("denominator", [0, -100, True, False, 2.5, "7", None])
    def test_bad_denominator(self, denominator):
        # unchecked, True built an Instance whose JSON its own parser rejects,
        # 2.5 raised AttributeError and "7" and None raised TypeError
        with pytest.raises(ValueError, match="denominator must be a positive integer"):
            validate_instance([(1, 1)], denominator)

    def test_ids_in_input_order(self):
        inst = validate_instance([(0.1, 0.2), (0.3, 0.4)], 10)
        assert [c.id for c in inst.charts] == [0, 1]

    @pytest.mark.parametrize("item", [5, None, 3.5, (0.5,), (0.5, 0.5, 0.5)], ids=repr)
    def test_non_pair_rejected(self, item):
        # unchecked, a number raised TypeError and a short or long tuple a
        # bare unpacking ValueError
        with pytest.raises(MalformedJson, match=r"chart 1 is .*, not an \(a, b\) pair"):
            validate_instance([(0.5, 0.5), item], 10)
        if not isinstance(item, tuple):
            # as the whole list, a number or None raised TypeError from list(raw)
            kind = type(item).__name__
            with pytest.raises(MalformedJson, match=rf"^charts must be \(a, b\) pairs, not {kind}$"):
                validate_instance(item, 10)


class TestHeightNumerator:
    def test_float_snaps_to_grid(self):
        # 0.7 is not exactly representable in binary but must land on 7/10
        assert height_numerator(0.7, 10) == 7
        assert height_numerator(0.1 + 0.2, 10) == 3

    def test_string_input(self):
        assert height_numerator("0.25", 100) == 25

    @pytest.mark.parametrize("value", [
        True, False, float("nan"), float("inf"), float("-inf"), 1e308, None, "abc",
        "nan", "inf", [0.5], "1/0"], ids=repr)
    def test_unreadable_heights_are_not_representable(self, value):
        with pytest.raises(NonRepresentable):
            height_numerator(value, 10)
        with pytest.raises(NonRepresentable):
            validate_instance([(0.5, value)], 10)

    @pytest.mark.parametrize("value, error", [
        ("1e10000000", HeightOutOfRange), ("1e999999999", HeightOutOfRange),
        ("-1e999999999", HeightOutOfRange), ("1e99999999999999999999", HeightOutOfRange),
        ("0e-999999999", HeightOutOfRange), (Decimal("1e999999999"), HeightOutOfRange),
        ("1e-999999999", NonRepresentable), (Decimal("-1e-999999999"), NonRepresentable),
        ("1/3e999999999", NonRepresentable), ("1e 999999999", NonRepresentable),
    ], ids=repr)
    def test_a_huge_exponent_is_refused_without_building_its_power(self, value, error):
        # Fraction alone builds 10 ** e first: 13 s for e = 10 ** 7, and
        # e = 999999999 does not finish; the class is the one a small e gives
        with pytest.raises(error):
            height_numerator(value, 10)

    def test_exponent_strings_read_as_fraction_reads_them(self):
        def reference(value, denominator):
            exact = Fraction(value) * denominator
            if exact.denominator != 1:
                return NonRepresentable
            return exact.numerator if 1 <= exact.numerator <= denominator \
                else HeightOutOfRange

        mantissas = ["1", "0", "-1", "7", "25", "0.5", "12.5", "0.000125",
                     "123456789", "-0.75", "0.0", ".5", "3_0"]
        for denominator in (1, 3, 8, 10, 1000, 10 ** 6):
            for m in mantissas:
                for e in range(-40, 41):
                    for value in (f"{m}e{e}", f"{m}E+{e}" if e >= 0 else f" {m}E{e} ",
                                  Decimal(f"{m}e{e}")):
                        expected = reference(value, denominator)
                        try:
                            got = height_numerator(value, denominator)
                        except (NonRepresentable, HeightOutOfRange) as exc:
                            got = type(exc)
                        assert got == expected, (value, denominator)


class TestOccupancy:
    def test_single_chart(self):
        inst = validate_instance([(0.7, 0.3)], 10)
        assert occupancy(inst, pk(1)) == (7, 3)

    def test_cellwise_sum(self):
        inst = validate_instance([(0.7, 0.3), (0.35, 0.65)], 100)
        assert occupancy(inst, pk(1, 2)) == (70, 65, 65)

    def test_overloaded_cell_still_summed(self):
        inst = validate_instance([(0.7, 0.3), (0.35, 0.65)], 100)
        assert occupancy(inst, pk(1, 1)) == (105, 95)

    def test_unassigned(self):
        inst = validate_instance([(0.7, 0.3), (0.35, 0.65)], 100)
        with pytest.raises(UnassignedChart):
            occupancy(inst, pk(1))
        with pytest.raises(UnassignedChart):
            occupancy(inst, pk(1, 0))
        # a start is a plain int, as in packing_from_json: True is not cell 1
        with pytest.raises(UnassignedChart, match="chart 0 has invalid start cell True"):
            length(inst, pk(True, 3))
        # a start may lie at most 4n cells out
        assert sum(occupancy(inst, pk(1, 8))) == inst.total_mass()
        with pytest.raises(UnassignedChart, match="chart 1 start cell 9 is beyond cell 8"):
            occupancy(inst, pk(1, 9))

    def test_mass_conservation(self):
        inst = validate_instance([(0.7, 0.3), (0.35, 0.65), (0.2, 0.1)], 100)
        for starts in [(1, 2, 3), (1, 1, 4), (2, 5, 9)]:
            assert sum(occupancy(inst, pk(*starts))) == inst.total_mass()


class TestFeasibilityAndLength:
    def test_feasible(self):
        inst = validate_instance([(0.7, 0.3), (0.35, 0.65)], 100)
        assert is_feasible(inst, pk(1, 2))

    def test_infeasible(self):
        inst = validate_instance([(0.7, 0.3), (0.35, 0.65)], 100)
        assert not is_feasible(inst, pk(1, 1))

    def test_boundary_equality_is_feasible(self):
        inst = validate_instance([(0.4, 0.6), (0.6, 0.4)], 10)
        assert is_feasible(inst, pk(1, 1))  # cells load exactly 1.0

    def test_length_single_chart(self):
        inst = validate_instance([(0.7, 0.3)], 10)
        assert length(inst, pk(1)) == 2

    def test_length_full_overlap(self):
        inst = validate_instance([(0.4, 0.6), (0.6, 0.4)], 10)
        assert length(inst, pk(1, 1)) == 2

    def test_length_counts_only_occupied(self):
        inst = validate_instance([(0.4, 0.6), (0.6, 0.4)], 10)
        assert length(inst, pk(1, 4)) == 4

    def test_length_rejects_infeasible(self):
        inst = validate_instance([(0.7, 0.3), (0.35, 0.65)], 100)
        with pytest.raises(InfeasiblePacking):
            length(inst, pk(1, 1))

    def test_checked_occupancy(self):
        inst = validate_instance([(0.4, 0.6), (0.6, 0.4)], 10)
        assert checked_occupancy(inst, pk(1, 1)) == occupancy(inst, pk(1, 1)) == (10, 10)
        with pytest.raises(InfeasiblePacking):
            checked_occupancy(inst, pk(1, 2))


class TestCompact:
    def test_single_chart_moves_to_front(self):
        inst = validate_instance([(0.5, 0.5)], 10)
        assert compact(inst, pk(3)) == pk(1)
        assert length(inst, compact(inst, pk(3))) == 2

    def test_already_compact_unchanged(self):
        inst = validate_instance([(0.7, 0.3), (0.35, 0.65)], 100)
        assert compact(inst, pk(1, 2)) == pk(1, 2)

    def test_single_gap(self):
        inst = validate_instance([(0.5, 0.5), (0.5, 0.5)], 10)
        assert compact(inst, pk(1, 4)) == pk(1, 3)

    def test_rejects_infeasible(self):
        bad = validate_instance([(0.7, 0.3), (0.5, 0.65)], 100)
        with pytest.raises(InfeasiblePacking):
            compact(bad, pk(1, 1))


def _random_feasible_cases(count=1000, seed=20240601):
    """Deterministic stream of (instance, feasible packing) pairs."""
    rng = random.Random(seed)
    produced = 0
    while produced < count:
        n = rng.randint(1, 8)
        denom = rng.choice([4, 10, 100, 1000])
        charts = tuple(BarChart(i, rng.randint(1, denom), rng.randint(1, denom))
                       for i in range(n))
        inst = Instance(charts, denom)
        starts = tuple(rng.randint(1, 2 * n + 2) for _ in range(n))
        packing = Packing(starts)
        if not is_feasible(inst, packing):
            # fall back to a fully disjoint layout with random gaps
            cursor = rng.randint(1, 3)
            spaced = []
            for _ in range(n):
                spaced.append(cursor)
                cursor += 2 + rng.randint(0, 2)
            packing = Packing(tuple(spaced))
            assert is_feasible(inst, packing)
        produced += 1
        yield inst, packing


class TestCompactProperties:
    def test_thousand_random_feasible_packings(self):
        for inst, packing in _random_feasible_cases(1000):
            before = length(inst, packing)
            squeezed = compact(inst, packing)
            assert is_feasible(inst, squeezed)
            assert length(inst, squeezed) == before  # collapsing gaps keeps length
            assert all(a <= b for a, b in zip(squeezed.starts, packing.starts))
            assert compact(inst, squeezed) == squeezed  # idempotent
            cells = occupancy(inst, squeezed)
            occupied = sum(1 for c in cells if c > 0)
            assert all(c > 0 for c in cells[:occupied])  # gap-free prefix
            assert sum(cells) == inst.total_mass()


@st.composite
def instance_and_packing(draw):
    denom = draw(st.sampled_from([1, 2, 3, 7, 10, 60, 1000]))
    n = draw(st.integers(1, 6))
    charts = tuple(BarChart(i,
                            draw(st.integers(1, denom)),
                            draw(st.integers(1, denom)))
                   for i in range(n))
    starts = tuple(draw(st.integers(1, 2 * n)) for _ in range(n))
    return Instance(charts, denom), Packing(starts)


class TestExactness:
    @settings(max_examples=200, deadline=None)
    @given(instance_and_packing())
    def test_fixed_point_matches_rationals(self, case):
        inst, packing = case
        got = is_feasible(inst, packing)
        loads = {}
        for chart, s in zip(inst.charts, packing.starts):
            loads[s] = loads.get(s, Fraction(0)) + Fraction(chart.a, inst.denominator)
            loads[s + 1] = loads.get(s + 1, Fraction(0)) + Fraction(chart.b, inst.denominator)
        want = all(v <= 1 for v in loads.values())
        assert got == want

    @settings(max_examples=200, deadline=None)
    @given(instance_and_packing())
    def test_occupancy_mass_conservation(self, case):
        inst, packing = case
        assert sum(occupancy(inst, packing)) == inst.total_mass()
