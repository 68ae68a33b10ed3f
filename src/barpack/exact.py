"""Exact minimum-length packing for small instances, plus lower bounds,
a Boolean-program exporter, and disassembly of packings into matchings.

The solver is a branch-and-bound that places charts left to right in
start order, seeded with the weighted-matching heuristic, and cuts states
that an explored state dominates. It is meant for desk-scale verification:
on a 2-core x86-64 VM (Python 3.11) it proves big-nonincreasing seeds 0-9
at n = 12 in a median of 0.02 s and at n = 14 in 0.11 s, and everything
it prunes on is exact integer arithmetic.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import chain, compress

from .errors import BarpackError, JmaxTooSmall, NotBigInstance
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
    incumbent. nodes_explored counts the states that pass the bound and
    the memo; budget, an int >= 0, caps it. proven is False when the
    budget ran out, in which case opt_length is only an upper bound.

    Moves. Charts are placed in non-decreasing start order, so only the
    last start cell p and p + 1 are open; cells left of p are closed. The
    next chart starts at p (d = 0, no new cell), p + 1 (d = 1, one new
    cell) or p + 2 (d = 2, two new cells). The first chart costs 2: both
    open loads start at D, where no bar fits.

    Completeness. Sorting a feasible packing by start cell gives such a
    sequence, except for gaps of d >= 3. Compaction removes the empty cell
    such a gap leaves without changing which bars share a cell, so d = 2
    reaches that packing with as many occupied cells. Each cell up to the
    last start + 1 is occupied, so a full sequence's cost is its length.

    Bound. With room = incumbent - cost, a state is cut when room <= 0,
    when tall bars left - open cells at most 1/2 >= room (each bar above
    1/2 needs a cell of its own), or when mass left + both open loads >
    (room + 1) * D (the mass left needs room). room <= 0 at a gap d ends
    the node, since wider gaps cost more; room is read again after each
    child, because the incumbent can drop there. A pass is skipped whole
    when one test shows that every row in it would fail, so the same
    states are visited: d = 0 when A > D - min a, d = 1 when B > D - min a
    (no a bar fits), d = 2 when tall bars left - max over rows of (tall
    bars + open cells at most 1/2) >= room. So a seed of length
    max(ceil(mass / D), 2) is proven with no node: at the root no bar
    fits the open loads D, and a d = 2 child leaves room 0 or, with the
    whole mass still to hold, fails the mass test.

    Type table. One row per type, built once, holds a, b, a + b, its tall
    bars, its multiset digit and its d = 2 child's closed loads: that
    child reads its whole state from the row, and a d = 1 child its B.
    A pass walks only the rows with charts left.

    Dominance. A state is the multiset of placed charts (charts with equal
    heights are one type, so their order does not matter), the cost so
    far, and the open loads A and B. It is cut when an explored state with
    the same multiset has cost, A and B all <= its own: every continuation
    of the one is a continuation of the other, at no greater cost. Before
    the lookup, an open load that no bar can still join is set to D (A
    when A + min a > D; B when B + min a > D and B + min b > D); that
    changes no move and lets more states meet. The memo stays valid while
    the incumbent improves, because the bound only tightens; past
    MEMO_CAP entries it stops growing and the search only cuts less.
    """
    if type(budget) is not int or budget < 0:
        raise ValueError(f"budget must be an int >= 0, got {budget!r}")
    seed = pack_weighted_matching(inst)
    best_len = seed.length
    best_packing = seed.packing
    denom = inst.denominator
    # one type per distinct (a, b), heavier first: big bars block cells early
    ids_of = {}
    for i, c in enumerate(inst.charts):
        ids_of.setdefault((c.a, c.b), []).append(i)
    types = sorted(ids_of, key=lambda ab: (-max(ab), -(ab[0] + ab[1]), ab))
    left = [len(ids_of[ab]) for ab in types]
    half = denom // 2
    # an open load that no bar can still join reads as D (see Dominance)
    close_a = denom - min(a for a, _ in types)
    close_b = max(close_a, denom - min(b for _, b in types))
    # the type table; the digits make the placed multiset one mixed-radix int
    rows = []
    full = 0
    for t, (a, b) in enumerate(types):
        a2 = denom if a > close_a else a
        b2 = denom if b > close_b else b
        rows.append((t, a, b, (a > half) + (b > half), a + b, a2, b2,
                     (a2 <= half) + (b2 <= half), full + 1))
        full += left[t] * (full + 1)
    tall2 = max(row[3] + row[7] for row in rows)  # see Bound
    memo = {}
    moves = []
    best_moves = None
    nodes = 0

    def expand(key, cost, load_a, load_b, tall_left, mass_left):
        # yields each child's state, which the loop below expands before resuming it
        nonlocal best_len, best_moves, nodes
        if key == full:
            best_len = cost
            best_moves = tuple(moves)
            return
        for d in (0, 1, 2):
            new_cost = cost + d
            room = best_len - new_cost
            if room <= 0:
                return
            if d == 2:
                if tall_left - tall2 >= room:
                    continue
            elif (load_b if d else load_a) > close_a:
                continue
            for t, a, b, tall_t, ab, a2, b2, small2, r in compress(rows, left):
                if d == 2:
                    new_a, new_b, small = a2, b2, small2
                else:
                    if d:
                        new_a, new_b = load_b + a, b2
                    else:
                        new_a, new_b = load_a + a, load_b + b
                    if new_a > denom or new_b > denom:
                        continue
                    new_a = denom if new_a > close_a else new_a
                    new_b = denom if new_b > close_b else new_b
                    small = (new_a <= half) + (new_b <= half)
                # the bound (see Bound)
                if tall_left - tall_t - small >= room:
                    continue
                if mass_left - ab + new_a + new_b > (room + 1) * denom:
                    continue
                new_key = key + r
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
                    return
                if nodes <= MEMO_CAP:  # one entry per node up to the cap
                    if seen is None:
                        memo[new_key] = [new_cost, new_a, new_b]
                    else:
                        seen += (new_cost, new_a, new_b)
                left[t] -= 1
                moves.append((t, d))
                yield (new_key, new_cost, new_a, new_b, tall_left - tall_t,
                       mass_left - ab)
                moves.pop()
                left[t] += 1
                if nodes > budget or best_len <= new_cost:
                    return
                room = best_len - new_cost

    stack = [expand(0, 0, denom, denom,
                    sum(c * row[3] for c, row in zip(left, rows)), inst.total_mass())]
    while stack:
        for child in stack[-1]:
            stack.append(expand(*child))
            break
        else:
            stack.pop()
    if best_moves is not None:
        next_id = [iter(ids_of[ab]) for ab in types]
        starts = [0] * inst.n
        cell = -1
        for t, d in best_moves:
            cell += d
            starts[next(next_id[t])] = cell
        best_packing = Packing(tuple(starts))
    return ExactResult(best_len, compact(inst, best_packing), min(nodes, budget),
                       nodes <= budget)


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

def export_blp(inst: Instance, jmax: int) -> str:
    """Text model minimizing occupied cells: binary x_i_j places chart i's
    first bar in cell j (j < jmax), binary y_j marks cell j occupied. No
    packing needs more than the disjoint layout's 2n cells.

    One encoding for every D: a capacity row holds integer numerators,
    a x + ... - D y <= 0, so the model is exact and a one-unit overload
    breaks its row by 1, not by 1/D (10^-6 at the default D, the size of
    common MILP solvers' feasibility tolerances).
    """
    if jmax < 2:
        raise JmaxTooSmall("need at least two cells")
    if jmax > 2 * inst.n:
        raise BarpackError(f"jmax {jmax} is above 2n = {2 * inst.n}")
    denom = inst.denominator
    xs = [[f"x_{i}_{j}" for j in range(1, jmax)] for i in range(1, inst.n + 1)]
    ys = [f"y_{j}" for j in range(1, jmax + 1)]
    lines = ["\\ two-bar chart strip packing, boolean model",
             f"\\ charts: {inst.n}  cells: {jmax}  denominator: {denom}",
             "Minimize", " obj: " + " + ".join(ys), "Subject To"]
    lines += [f" assign_{i}: {' + '.join(row)} = 1" for i, row in enumerate(xs, 1)]
    for j in range(1, jmax + 1):
        terms = []
        for i, chart in enumerate(inst.charts, start=1):
            if j < jmax:
                terms.append(f"{chart.a} x_{i}_{j}")
            if j >= 2:
                terms.append(f"{chart.b} x_{i}_{j - 1}")
        lines.append(f" cap_{j}: " + " + ".join(terms) + f" - {denom} y_{j} <= 0")
    lines += ["Binary", " " + " ".join(chain(*xs, ys)), "End"]
    return "\n".join(lines) + "\n"
