"""The benchmark's workloads: which instances each one generates and what
one closed-loop call does with an instance.

Each workload owns a fixed set of instances derived from the run seed.
A run packs every instance of the set at least once (so the fingerprint
and the quality figures cover the same work on every run), then keeps
cycling through the set until the measuring time is used up.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, replace

import barpack


@dataclass(frozen=True)
class Workload:
    name: str
    family: str        # barpack.GenSpec family
    n: int             # charts per instance
    count: int         # instances per run
    algos: tuple       # packers run on every instance, in order
    budget: int = 0    # solve_exact node budget; 0 means exact does not run


# Why these sizes: one pack_weighted_matching(gen_big(800)) call takes
# 13-19 s on a 2-core machine, so a 40 s run would hold two calls. n=300
# (mw) and n=500 (m) fit 15-35 calls over 16 and 8 instances per run. The oracle's
# node budget is 10,000, not the 2,000,000 of the ROADMAP table: at 2M one
# capped instance costs ~5 s, a run sees ~15 instances, and the number of
# capped ones decides instances_per_s. At 10,000 nodes a run covers 400
# instances and a smarter search still shows in exact.proven_frac.
WORKLOADS = {
    "mw-big": Workload("mw-big", "big", 300, 16, ("mw",)),
    "m-general": Workload("m-general", "general", 500, 8, ("m",)),
    "oracle": Workload("oracle", "big-nonincreasing", 10, 400, ("m", "mw"),
                       budget=10_000),
}

# Tiny sizes for --smoke: every layer still runs, in well under a second.
SMOKE = {
    "mw-big": {"n": 30, "count": 2},
    "m-general": {"n": 30, "count": 2},
    "oracle": {"n": 7, "count": 6, "budget": 2_000},
}

PACKERS = {"m": "pack_matching", "mw": "pack_weighted_matching"}


def get(name: str, smoke: bool) -> Workload:
    wl = WORKLOADS[name]
    return replace(wl, **SMOKE[name]) if smoke else wl


def instance_seeds(wl: Workload, seed: int) -> list[int]:
    rng = random.Random(f"{wl.name}/{seed}")
    return [rng.getrandbits(32) for _ in range(wl.count)]


def make_instances(wl: Workload, seeds) -> list:
    return [barpack.generate(barpack.GenSpec(wl.family, wl.n, s)) for s in seeds]


def entry_points(wl: Workload) -> dict:
    """The library functions one call enters, by span name."""
    funcs = {f"packers.{PACKERS[a]}": getattr(barpack, PACKERS[a]) for a in wl.algos}
    if wl.budget:
        funcs["exact.solve_exact"] = barpack.solve_exact
    return funcs


def run_call(wl: Workload, funcs: dict, inst):
    """One closed-loop call: the exact solve (if any), then each packer.
    Returns (exact result or None, ((algo, PackResult), ...))."""
    exact = funcs["exact.solve_exact"](inst, budget=wl.budget) if wl.budget else None
    packs = tuple((a, funcs[f"packers.{PACKERS[a]}"](inst)) for a in wl.algos)
    return exact, packs
