"""Spans recorded from the benchmark's own files, and the per-layer
metrics derived from them.

barpack.packers and barpack.exact import their collaborators by name
(`from .unions import build_graph`), so a timing wrapper has to replace
the name in the calling module: replacing barpack.unions.build_graph
would not catch the call. `traced()` swaps the names listed in PATCHES
for wrappers and restores them on exit; src/ is left as it is.
"""

from __future__ import annotations

import contextlib
from time import perf_counter

import barpack.exact
import barpack.packers
from barpack.matching import matching_weight

# (module, attribute, span name)
PATCHES = (
    (barpack.packers, "build_graph", "unions.build_graph"),
    (barpack.packers, "merge", "unions.merge"),
    (barpack.packers, "max_weight_matching", "matching.max_weight_matching"),
    (barpack.packers, "max_cardinality_matching", "matching.max_cardinality_matching"),
    (barpack.packers, "compact", "model.compact"),
    (barpack.packers, "length", "model.length"),
    (barpack.exact, "pack_weighted_matching", "exact.seed"),
    (barpack.exact, "compact", "model.compact"),
)


def _note(name, args, result) -> dict:
    """Counts taken at the span boundary, after its end time is read."""
    if name == "unions.build_graph":
        k = len(args[0])
        return {"pairs": k * (k - 1) // 2, "edges": len(result.edges)}
    if name.startswith("matching."):
        return {"edges": len(args[0].edges), "matched": len(result.edge_indices),
                "weight": matching_weight(args[0], result)}
    if name == "exact.solve_exact":
        return {"nodes": result.nodes_explored, "proven": result.proven}
    return {}


class Tracer:
    """Spans kept in memory as [name, start, end, parent index, counts]."""

    def __init__(self):
        self.spans = []
        self._stack = []

    def wrap(self, name, fn):
        spans, stack = self.spans, self._stack

        def span(*args, **kwargs):
            idx = len(spans)
            spans.append([name, perf_counter(), 0.0, stack[-1] if stack else -1, {}])
            stack.append(idx)
            try:
                result = fn(*args, **kwargs)
            finally:
                spans[idx][2] = perf_counter()
                stack.pop()
            spans[idx][4] = _note(name, args, result)
            return result

        return span

    @contextlib.contextmanager
    def traced(self):
        saved = [(mod, attr, getattr(mod, attr)) for mod, attr, _ in PATCHES]
        try:
            for (mod, attr, name), (_, _, fn) in zip(PATCHES, saved):
                setattr(mod, attr, self.wrap(name, fn))
            yield self
        finally:
            for mod, attr, fn in saved:
                setattr(mod, attr, fn)


def layer_metrics(spans, calls: int) -> dict:
    """Per-layer metrics per workload call, from the spans of `calls` calls."""
    dur, self_s, n, tot = {}, {}, {}, {}
    child = [0.0] * len(spans)
    for name, start, end, parent, _ in spans:
        if parent >= 0:
            child[parent] += end - start
    for i, (name, start, end, parent, note) in enumerate(spans):
        dur[name] = dur.get(name, 0.0) + end - start
        self_s[name] = self_s.get(name, 0.0) + end - start - child[i]
        n[name] = n.get(name, 0) + 1
        for key, value in note.items():
            tot[(name, key)] = tot.get((name, key), 0) + value

    def per_call(x):
        return x / calls

    def ratio(a, b):
        return a / b if b else 0.0

    matchers = ("matching.max_weight_matching", "matching.max_cardinality_matching")
    match_s = sum(dur.get(m, 0.0) for m in matchers)
    match = {k: sum(tot.get((m, k), 0) for m in matchers)
             for k in ("edges", "matched", "weight")}
    edges = tot.get(("unions.build_graph", "edges"), 0)
    pairs = tot.get(("unions.build_graph", "pairs"), 0)
    exact_calls = n.get("exact.solve_exact", 0)
    nodes = tot.get(("exact.solve_exact", "nodes"), 0)
    proven = tot.get(("exact.solve_exact", "proven"), 0)
    search_s = self_s.get("exact.solve_exact", 0.0)
    mass_exits = sum(1 for name, _, _, _, note in spans
                     if name == "exact.solve_exact" and note.get("proven")
                     and note["nodes"] == 0)
    packer_self = sum(v for k, v in self_s.items()
                      if k.startswith("packers.") or k == "exact.seed")
    return {
        "unions.build_s": per_call(dur.get("unions.build_graph", 0.0)),
        "unions.build_calls": per_call(n.get("unions.build_graph", 0)),
        "unions.pairs_tested": per_call(pairs),
        "unions.edges": per_call(edges),
        "unions.edge_yield": ratio(edges, pairs),
        "unions.edges_used_frac": ratio(match["matched"], edges),
        "unions.empty_builds": per_call(sum(
            1 for name, _, _, _, note in spans
            if name == "unions.build_graph" and note.get("edges") == 0)),
        "unions.merge_s": per_call(dur.get("unions.merge", 0.0)),
        "unions.merges": per_call(n.get("unions.merge", 0)),
        "matching.solve_s": per_call(match_s),
        "matching.calls": per_call(sum(n.get(m, 0) for m in matchers)),
        "matching.edges_in": per_call(match["edges"]),
        "matching.matched": per_call(match["matched"]),
        "matching.weight": per_call(match["weight"]),
        "matching.edges_per_s": ratio(match["edges"], match_s),
        "model.compact_s": per_call(dur.get("model.compact", 0.0)),
        "model.length_s": per_call(dur.get("model.length", 0.0)),
        "packers.self_s": per_call(packer_self),
        "exact.solve_s": per_call(dur.get("exact.solve_exact", 0.0)),
        "exact.seed_s": per_call(dur.get("exact.seed", 0.0)),
        "exact.search_s": per_call(search_s),
        "exact.nodes": per_call(nodes),
        "exact.nodes_per_s": ratio(nodes, search_s),
        "exact.budget_hits": per_call(exact_calls - proven),
        "exact.mass_exits": per_call(mass_exits),
        "exact.proven_frac": ratio(proven, exact_calls),
    }
