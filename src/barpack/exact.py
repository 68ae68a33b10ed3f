"""Exact minimum-length packing for small instances, plus lower bounds,
a Boolean-program exporter, and disassembly of packings into matchings.

The solver is a branch-and-bound that places charts left to right in
start order, seeded with the weighted-matching heuristic, and cuts states
that an explored state dominates. It is meant for desk-scale verification:
it proves big instances at n = 12 in well under a second, and everything
it prunes on is exact integer arithmetic.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import JmaxTooSmall, NotBigInstance
from .model import Instance, Packing, checked_occupancy, compact
from .packers import pack_weighted_matching

DEFAULT_NODE_BUDGET = 10 ** 8
# Dominance-memo entries kept per solve. An entry took 76-81 bytes in
# measured searches (n = 12-20) and takes ~230 when every multiset has
# its own, so the memo stays near 80 MB and below ~230 MB. Past the cap
# the search only cuts less.
MEMO_CAP = 1_000_000


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

    Starts from the weighted-matching heuristic and searches below the
    incumbent. proven is False when the node budget ran out, in which case
    opt_length is only an upper bound.

    Moves. The charts are placed in non-decreasing start order, so only
    the last start cell p and the cell p + 1 are open; every cell left of
    p is closed. The next chart starts at p (d = 0, no new cell), at p + 1
    (d = 1, one new cell) or at p + 2 (d = 2, two new cells). The first
    chart costs 2: the search starts with both open loads at D, where no
    bar fits.

    Completeness. Sorting any feasible packing by start cell gives such a
    sequence, except for gaps of d >= 3. A gap leaves an empty cell, which
    compaction removes without changing which bars share a cell, so the
    packing without it is reached with d = 2 at the same number of
    occupied cells. Every cell up to the last start + 1 is occupied, so
    the cost of a full sequence is its length.

    Bound. A state is cut when cost + max(0, tall bars left - open cells
    at most 1/2, ceil((mass left - free room in the open cells) / D))
    reaches the incumbent: each bar above 1/2 needs a cell of its own,
    and the mass left needs room.

    Dominance. A state is the multiset of placed charts (charts with
    equal heights are one type, so their order does not matter), the cost
    so far, and the open loads A and B. A state is cut when a state
    already explored with the same multiset has cost, A and B all <= its
    own: every continuation of the one is a continuation of the other, at
    no greater cost. Before the lookup, an open load that no chart's bar
    can still join is set to D (A when A + min a > D; B when both
    B + min a > D and B + min b > D). That changes no move and lets more
    states meet. The memo stays valid while the incumbent improves,
    because the bound only tightens; it stops growing at MEMO_CAP
    entries, past which the search only cuts less.

    nodes_explored counts the states that pass the bound and the memo;
    the budget caps it.
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
    # one type per distinct (a, b), heavier first: big bars block cells early
    ids_of = {}
    for i, c in enumerate(inst.charts):
        ids_of.setdefault((c.a, c.b), []).append(i)
    types = sorted(ids_of, key=lambda ab: (-max(ab), -(ab[0] + ab[1]), ab))
    left = [len(ids_of[ab]) for ab in types]
    tall = [(2 * a > denom) + (2 * b > denom) for a, b in types]
    # the placed multiset as one mixed-radix int over the types
    radix = []
    full = 0
    for count in left:
        radix.append(full + 1)
        full += count * (full + 1)
    min_a = min(a for a, _ in types)
    min_b = min(b for _, b in types)
    memo = {}
    memo_size = 0
    moves = []
    best_moves = None
    nodes = 0
    out_of_budget = False

    def search(key, cost, load_a, load_b, tall_left, mass_left):
        nonlocal best_len, best_moves, nodes, out_of_budget, memo_size
        if key == full:
            best_len = cost
            best_moves = tuple(moves)
            return
        for d in (0, 1, 2):
            for t, (a, b) in enumerate(types):
                if not left[t]:
                    continue
                if d == 0:
                    if load_a + a > denom or load_b + b > denom:
                        continue
                    new_a, new_b = load_a + a, load_b + b
                elif d == 1:
                    if load_b + a > denom:
                        continue
                    new_a, new_b = load_b + a, b
                else:
                    new_a, new_b = a, b
                new_cost = cost + d
                if new_a + min_a > denom:
                    new_a = denom
                if new_b + min_a > denom and new_b + min_b > denom:
                    new_b = denom
                new_tall = tall_left - tall[t]
                new_mass = mass_left - a - b
                small = (2 * new_a <= denom) + (2 * new_b <= denom)
                spill = -((2 * denom - new_a - new_b - new_mass) // denom)
                if new_cost + max(0, new_tall - small, spill) >= best_len:
                    continue
                new_key = key + radix[t]
                seen = memo.get(new_key)
                if seen is not None:
                    dominated = False
                    for i in range(0, len(seen), 3):
                        if (seen[i] <= new_cost and seen[i + 1] <= new_a
                                and seen[i + 2] <= new_b):
                            dominated = True
                            break
                    if dominated:
                        continue
                nodes += 1
                if nodes > budget:
                    out_of_budget = True
                    return
                if memo_size < MEMO_CAP:
                    memo_size += 1
                    if seen is None:
                        memo[new_key] = [new_cost, new_a, new_b]
                    else:
                        seen += (new_cost, new_a, new_b)
                left[t] -= 1
                moves.append((t, d))
                search(new_key, new_cost, new_a, new_b, new_tall, new_mass)
                moves.pop()
                left[t] += 1
                if out_of_budget:
                    return

    search(0, 0, denom, denom, sum(c * h for c, h in zip(left, tall)),
           inst.total_mass())
    del search  # it reaches itself through its closure cell
    if best_moves is not None:
        next_id = [iter(ids_of[ab]) for ab in types]
        starts = [0] * inst.n
        cell = -1
        for t, d in best_moves:
            cell += d
            starts[next(next_id[t])] = cell
        best_packing = Packing(tuple(starts))
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
