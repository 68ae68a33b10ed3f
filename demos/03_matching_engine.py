"""Walkthrough: exact matchings in general graphs.

The packers need maximum matchings on graphs that are nowhere near
bipartite, so the engine implements the blossom method: odd cycles are
shrunk into single pseudo-vertices while the search for augmenting paths
runs. The tests check the engine against a brute-force enumerator of
every matching (tests/reference.py), on random graphs in
tests/test_matching.py and on 500 more in the acceptance suite.
"""

from barpack import (
    Graph,
    matching_pairs,
    matching_weight,
    max_cardinality_matching,
    max_weight_matching,
)

# An odd cycle: no greedy pairing gets more than two edges out of C5.
c5 = Graph(5, ((0, 1, 1), (1, 2, 1), (2, 3, 1), (3, 4, 1), (4, 0, 1)))
m = max_cardinality_matching(c5)
print("C5 maximum matching:", matching_pairs(c5, m), "cardinality", m.cardinality())

# Weight and cardinality disagree: one heavy edge can beat two light ones.
path = Graph(4, ((0, 1, 1), (1, 2, 3), (2, 3, 1)))
print("\npath weights 1-3-1:")
print("  max cardinality:", matching_pairs(path, max_cardinality_matching(path)))
print("  max weight:     ", matching_pairs(path, max_weight_matching(path)),
      "weight", matching_weight(path, max_weight_matching(path)))
