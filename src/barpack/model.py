"""Exact fixed-point model of two-bar chart instances and strip packings.

Every bar height is stored as an integer numerator over a denominator D
shared by the whole instance, so feasibility decisions (cell load <= 1,
"bar above 1/2") are exact integer comparisons. Floating point never
enters a decision; floats are only accepted at the input boundary, where
they are snapped to the 1/D grid or rejected.
"""

from __future__ import annotations

import json
import math
import re
from dataclasses import dataclass
from decimal import Decimal
from fractions import Fraction

from .errors import (
    EmptyInstance,
    HeightOutOfRange,
    InfeasiblePacking,
    MalformedJson,
    NonRepresentable,
    UnassignedChart,
)

DEFAULT_DENOMINATOR = 1_000_000

# Floats usually originate from decimal literals like 0.7; they may sit a
# few ulps off the grid point. Anything farther off than this is rejected.
_FLOAT_SNAP_TOL = 1e-6


def height_numerator(value, denominator: int) -> int:
    """Convert a height given as int, Fraction, str or float to its exact
    numerator over ``denominator``.

    Raises NonRepresentable when the value is not an integer multiple of
    1/denominator (bools, NaN, infinities, "1/0", "1e-999999999" and
    non-numbers included), and HeightOutOfRange when it falls outside
    (0, 1] ("0e-999999999" and "1e999999999" included).
    """
    if isinstance(value, bool):
        raise NonRepresentable(f"{value!r} is a bool, not a height")
    if isinstance(value, float):
        scaled = value * denominator
        # NaN, infinities and floats too large to scale lie on no grid
        numer = round(scaled) if math.isfinite(scaled) else None
        if numer is None or abs(scaled - numer) > _FLOAT_SNAP_TOL * max(1.0, abs(scaled)):
            raise NonRepresentable(f"{value!r} is not a multiple of 1/{denominator}")
    else:
        text = str(value) if isinstance(value, (str, Decimal)) else ""
        form = re.fullmatch(r"(.*)[eE]([-+]?[\d_]+)\s*", text, re.S)
        try:
            number = value
            # Fraction would build 10 ** e; past len(text) + D's bits, e alone
            # decides: above 1 or zero (stand-in 0), else off the grid (1/2D)
            if form and abs(e := int(form[2])) > len(text) + denominator.bit_length():
                number = Fraction(1, 2 * denominator) if Fraction(form[1] + "e0") and e < 0 else 0
            exact = Fraction(number) * denominator
        except (TypeError, ValueError, OverflowError, ZeroDivisionError):  # None, "nan", "1/0"
            raise NonRepresentable(f"{value!r} is not a number") from None
        if exact.denominator != 1:
            raise NonRepresentable(f"{value!r} is not a multiple of 1/{denominator}")
        numer = exact.numerator
    if not 1 <= numer <= denominator:
        raise HeightOutOfRange(
            f"height {value!r} outside (0, 1] over denominator {denominator}")
    return numer


@dataclass(frozen=True)
class BarChart:
    """A two-bar chart: unit-width bars of height a then b (numerators)."""

    id: int
    a: int
    b: int

    def is_big(self, denominator: int) -> bool:
        # strictly above 1/2; exactly 1/2 is not big
        return 2 * max(self.a, self.b) > denominator

    def is_nonincreasing(self) -> bool:
        return self.a >= self.b


@dataclass(frozen=True)
class Instance:
    """An ordered set of two-bar charts with ids 0..n-1 over one denominator."""

    charts: tuple[BarChart, ...]
    denominator: int = DEFAULT_DENOMINATOR

    @property
    def n(self) -> int:
        return len(self.charts)

    def all_big(self) -> bool:
        return all(c.is_big(self.denominator) for c in self.charts)

    def total_mass(self) -> int:
        """Sum of all bar heights, as a numerator over the denominator."""
        return sum(c.a + c.b for c in self.charts)


@dataclass(frozen=True)
class Packing:
    """Start cell per chart id; starts[i] is the cell of chart i's first bar."""

    starts: tuple[int, ...]


def check_denominator(denominator: int) -> None:
    """Reject a denominator that is not a plain int of at least 1 (bools too)."""
    if type(denominator) is not int or denominator < 1:
        raise ValueError("denominator must be a positive integer")


def validate_instance(raw, denominator: int = DEFAULT_DENOMINATOR) -> Instance:
    """Build an Instance from (a, b) height pairs, assigning ids in order.

    Heights may be ints, Fractions, strings or floats; each must be an
    integer multiple of 1/denominator inside (0, 1].
    """
    check_denominator(denominator)
    try:
        raw = list(raw)
    except TypeError:
        raise MalformedJson(f"charts must be (a, b) pairs, not {type(raw).__name__}") from None
    if not raw:
        raise EmptyInstance("instance needs at least one chart")
    charts = []
    for i, pair in enumerate(raw):
        try:
            a, b = pair
        except (TypeError, ValueError):
            raise MalformedJson(f"chart {i} is {pair!r}, not an (a, b) pair") from None
        charts.append(BarChart(i,
                               height_numerator(a, denominator),
                               height_numerator(b, denominator)))
    return Instance(tuple(charts), denominator)


def _check_assignment(inst: Instance, packing: Packing) -> None:
    if len(packing.starts) != inst.n:
        raise UnassignedChart(
            f"packing assigns {len(packing.starts)} charts, instance has {inst.n}")
    for i, s in enumerate(packing.starts):
        if type(s) is not int or s < 1:
            raise UnassignedChart(f"chart {i} has invalid start cell {s!r}")
        if s > 4 * inst.n:
            raise UnassignedChart(f"chart {i} start cell {s} is beyond cell {4 * inst.n}")


def occupancy(inst: Instance, packing: Packing) -> tuple[int, ...]:
    """Per-cell load numerators from cell 1 to the last occupied cell.

    Cell j collects the first bar of every chart starting at j plus the
    second bar of every chart starting at j-1. A start cell above 4n raises
    UnassignedChart, so the cells stay O(n): gaps may total at most 2n
    cells, as many as the bars.
    """
    _check_assignment(inst, packing)
    last = max(packing.starts) + 1
    cells = [0] * last
    for chart, s in zip(inst.charts, packing.starts):
        cells[s - 1] += chart.a
        cells[s] += chart.b
    return tuple(cells)


def checked_occupancy(inst: Instance, packing: Packing) -> tuple[int, ...]:
    """occupancy(), raising InfeasiblePacking when a cell is overloaded."""
    cells = occupancy(inst, packing)
    if max(cells) > inst.denominator:
        raise InfeasiblePacking("a cell's bars sum above the strip height")
    return cells


def is_feasible(inst: Instance, packing: Packing) -> bool:
    """True iff every cell's load is at most the strip height (exactly)."""
    return all(load <= inst.denominator for load in occupancy(inst, packing))


def length(inst: Instance, packing: Packing) -> int:
    """Number of cells containing at least one bar."""
    return sum(1 for load in checked_occupancy(inst, packing) if load > 0)


def compact(inst: Instance, packing: Packing) -> Packing:
    """Shift charts left until no cell below the last occupied one is empty.

    Every start can only decrease and the length never grows. Safe because
    no chart spans an empty cell: collapsing the empty cells in one pass
    preserves which bars share a cell.
    """
    cells = checked_occupancy(inst, packing)
    empties_below = [0] * (len(cells) + 1)
    running = 0
    for j, load in enumerate(cells, start=1):
        empties_below[j] = running
        if load == 0:
            running += 1
    return Packing(tuple(s - empties_below[s] for s in packing.starts))


# ---------------------------------------------------------------------------
# Canonical JSON formats. Key order and separators are fixed so that
# serialize -> parse -> serialize is byte-stable.

def instance_to_json(inst: Instance) -> str:
    payload = {
        "version": 1,
        "denominator": inst.denominator,
        "charts": [[c.a, c.b] for c in inst.charts],
    }
    return json.dumps(payload, separators=(",", ":"))


def _json_object(text: str, what: str) -> dict:
    try:
        payload = json.loads(text)
    except RecursionError:
        raise MalformedJson(f"{what} JSON is nested too deeply") from None
    if not isinstance(payload, dict):
        raise MalformedJson(f"{what} JSON must be an object, "
                            f"not {type(payload).__name__}")
    return payload


def instance_from_json(text: str) -> Instance:
    payload = _json_object(text, "instance")
    version = payload.get("version")
    if type(version) is not int or version != 1:
        raise MalformedJson(f"unsupported instance version {version!r}")
    denominator = payload.get("denominator")
    try:
        check_denominator(denominator)
    except ValueError as err:
        raise MalformedJson(str(err)) from None
    raw = payload.get("charts")
    if not isinstance(raw, list):
        raise MalformedJson("charts must be a list of [a, b] pairs")
    if not raw:
        raise EmptyInstance("instance needs at least one chart")
    charts = []
    for i, pair in enumerate(raw):
        if not isinstance(pair, list) or len(pair) != 2:
            raise MalformedJson(f"chart {i} is {pair!r}, not an [a, b] pair")
        a, b = pair
        for numer in (a, b):
            if type(numer) is not int:
                raise NonRepresentable(f"chart {i} height {numer!r} is not an integer numerator")
            if not 1 <= numer <= denominator:
                raise HeightOutOfRange(f"chart {i} numerator {numer} outside [1, {denominator}]")
        charts.append(BarChart(i, a, b))
    return Instance(tuple(charts), denominator)


def packing_to_json(packing: Packing) -> str:
    return json.dumps({"starts": list(packing.starts)}, separators=(",", ":"))


def packing_from_json(text: str) -> Packing:
    starts = _json_object(text, "packing").get("starts")
    if not isinstance(starts, list):
        raise MalformedJson("packing needs a list of start cells")
    if not all(type(s) is int and s >= 1 for s in starts):
        raise UnassignedChart("starts must all be integers >= 1")
    return Packing(tuple(starts))
