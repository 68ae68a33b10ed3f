"""Exact minimum-length packing for small instances, plus lower bounds,
a Boolean-program exporter, and disassembly of packings into matchings.

The solver is a depth-first search over start cells seeded with the
weighted-matching heuristic. It is meant for desk-scale verification
(n up to ~8); everything it prunes on is exact integer arithmetic.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import JmaxTooSmall, NotBigInstance
from .model import Instance, Packing, checked_occupancy, compact
from .packers import pack_weighted_matching

DEFAULT_NODE_BUDGET = 10 ** 8


@dataclass(frozen=True)
class ExactResult:
    opt_length: int
    packing: Packing
    nodes_explored: int
    proven: bool


def lower_bound(inst: Instance) -> int:
    """max(ceil of total bar mass, n when every chart is big, 2)."""
    mass = inst.total_mass()
    area = -(-mass // inst.denominator)
    big = inst.n if inst.all_big() else 0
    return max(area, big, 2)


def solve_exact(inst: Instance, budget: int = DEFAULT_NODE_BUDGET) -> ExactResult:
    """Minimum packing length with a witness.

    Starts from the weighted-matching heuristic and searches start-cell
    assignments below the incumbent, pruning on per-cell feasibility and
    on exact length bounds. proven is False when the node budget ran out,
    in which case opt_length is only an upper bound.
    """
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


# ---------------------------------------------------------------------------
# Disassembly of a feasible packing of big charts into rounds of matchings
# whose savings telescope to 2n - L.

@dataclass(frozen=True)
class DisassemblyRound:
    """One round: (left ids, right ids, cells saved) per matched pair."""

    pairs: tuple[tuple[tuple[int, ...], tuple[int, ...], int], ...]

    @property
    def cardinality(self) -> int:
        return len(self.pairs)

    @property
    def weight(self) -> int:
        return sum(saved for _, _, saved in self.pairs)


def disassemble(inst: Instance, packing: Packing) -> tuple[DisassemblyRound, ...]:
    """Split a feasible packing of big charts into chained unions, then pair
    consecutive pieces left-to-right round by round.

    Each union (maximal run of charts linked by shared cells) is paired
    independently; an odd piece is carried to the next round. The rounds'
    saved cells sum to 2n - L.
    """
    if not inst.all_big():
        raise NotBigInstance("disassembly is only defined for big charts")
    checked_occupancy(inst, packing)

    by_start = sorted(range(inst.n), key=lambda i: (packing.starts[i], i))
    components = []
    current = []
    reach = -1
    for cid in by_start:
        s = packing.starts[cid]
        if current and s > reach:
            components.append(current)
            current = []
        current.append((s, s + 1, (cid,)))
        reach = max(reach, s + 1)
    if current:
        components.append(current)

    rounds = []
    while any(len(comp) > 1 for comp in components):
        pairs = []
        next_components = []
        for comp in components:
            merged = []
            j = 0
            while j + 1 < len(comp):
                lo1, hi1, ids1 = comp[j]
                lo2, hi2, ids2 = comp[j + 1]
                lo, hi = min(lo1, lo2), max(hi1, hi2)
                saved = (hi1 - lo1 + 1) + (hi2 - lo2 + 1) - (hi - lo + 1)
                pairs.append((ids1, ids2, saved))
                merged.append((lo, hi, ids1 + ids2))
                j += 2
            if j < len(comp):
                merged.append(comp[j])
            next_components.append(merged)
        rounds.append(DisassemblyRound(tuple(pairs)))
        components = next_components
    return tuple(rounds)


# ---------------------------------------------------------------------------
# Boolean linear program export (CPLEX LP text format).

def _decimal_digits(denominator: int) -> int | None:
    """Smallest k with denominator dividing 10^k, or None."""
    for k in range(19):
        if (10 ** k) % denominator == 0:
            return k
    return None


def _coeff(numer: int, denominator: int, digits: int) -> str:
    if digits == 0:
        return str(numer // denominator)
    whole, frac = divmod(numer, denominator)
    return f"{whole}.{frac * 10 ** digits // denominator:0{digits}d}"


def export_blp(inst: Instance, jmax: int) -> str:
    """Text model minimizing occupied cells: binary x_i_j places chart i's
    first bar in cell j (j < jmax), binary y_j marks cell j occupied.

    Coefficients are exact decimals when the denominator divides a power
    of ten; otherwise each capacity row is scaled by the denominator so
    all coefficients are exact integers.
    """
    if jmax < 2:
        raise JmaxTooSmall("need at least two cells")
    denom = inst.denominator
    digits = _decimal_digits(denom)
    lines = []
    lines.append("\\ two-bar chart strip packing, boolean model")
    lines.append(f"\\ charts: {inst.n}  cells: {jmax}  denominator: {denom}")
    lines.append("Minimize")
    lines.append(" obj: " + " + ".join(f"y_{j}" for j in range(1, jmax + 1)))
    lines.append("Subject To")
    for i in range(1, inst.n + 1):
        terms = " + ".join(f"x_{i}_{j}" for j in range(1, jmax))
        lines.append(f" assign_{i}: {terms} = 1")
    for j in range(1, jmax + 1):
        terms = []
        for i, chart in enumerate(inst.charts, start=1):
            if j < jmax:
                coeff = _coeff(chart.a, denom, digits) if digits is not None else str(chart.a)
                terms.append(f"{coeff} x_{i}_{j}")
            if j >= 2:
                coeff = _coeff(chart.b, denom, digits) if digits is not None else str(chart.b)
                terms.append(f"{coeff} x_{i}_{j - 1}")
        strip = "1" if digits is not None else str(denom)
        lines.append(f" cap_{j}: " + " + ".join(terms) + f" - {strip} y_{j} <= 0")
    lines.append("Binary")
    names = []
    for i in range(1, inst.n + 1):
        names.extend(f"x_{i}_{j}" for j in range(1, jmax))
    names.extend(f"y_{j}" for j in range(1, jmax + 1))
    lines.append(" " + " ".join(names))
    lines.append("End")
    return "\n".join(lines) + "\n"
