"""Walkthrough: unions between charts and the union graph.

Two charts can be overlapped suffix-to-prefix by one or two cells when the
shared cells stay within the strip height. Overlapping by t cells saves
exactly t cells of packing length; the union graph records the best
feasible overlap for every pair.
"""

from barpack import (
    BarChart,
    best_union,
    build_graph,
    chart_from_bars,
    graph_to_edge_list,
    merge,
)

D = 100
x = chart_from_bars(BarChart(0, 70, 30))
y = chart_from_bars(BarChart(1, 35, 65))
z = chart_from_bars(BarChart(2, 40, 60))
w = chart_from_bars(BarChart(3, 60, 40))

print("x =", x.cells, " y =", y.cells, " z =", z.cells, " w =", w.cells)

# x's trailing 0.30 plus y's leading 0.35 fits in one shared cell.
print("\nbest_union(x, y):", best_union(x, y, D), "(x goes left, 1 shared cell)")
xy = merge(x, y, 1, D)
print("merge(x, y, 1):", xy.cells, "provenance:", xy.provenance)

# z and w overlap completely: both shared cells load to exactly 1.0.
print("\nbest_union(z, w):", best_union(z, w, D), "(2 shared cells)")
zw = merge(z, w, 2, D)
print("merge(z, w, 2):", zw.cells, "provenance:", zw.provenance)

# Merged charts keep merging only while their boundary cells leave room:
# xy ends in 0.65 and z starts at 0.40, so nothing fits either way.
print("\nbest_union(xy, z):", best_union(xy, z, D))

# The union graph is a matching Graph whose edges are (left, right, t):
# chart left goes first, the pair shares t cells, and t is the edge's
# weight, the cells the union saves. The blossom matcher reads the edges as
# they are; the cardinality matcher counts each one as 1.
graph = build_graph([x, y, z, w], D)
print(f"\nunion graph on 4 charts: {len(graph.edges)} edges")
print(graph_to_edge_list(graph), end="")
print("(weight 2 marks a full two-cell overlap)")
for left, right, t in graph.edges:
    print(f"edge {left}-{right}: chart {left} goes left, {t} shared cell(s)")
