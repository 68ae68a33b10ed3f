"""Seeded instance generators for tests and experiments.

All sampling happens on the 1/D grid so downstream arithmetic stays exact,
and every generator is deterministic for a given (family, size, seed, D).
The CLI indexes FAMILIES directly; GenSpec and generate are kept for the
benchmark, which builds its instances through them.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from .errors import KTooSmall, NotAMatching
from .model import DEFAULT_DENOMINATOR, BarChart, Instance, check_denominator


@dataclass(frozen=True)
class GenSpec:
    """A reproducible recipe for one instance.

    family is a key of FAMILIES; size means n for the random families
    and k for the tight family.
    """

    family: str
    size: int
    seed: int = 0
    denominator: int = DEFAULT_DENOMINATOR


def generate(spec: GenSpec) -> Instance:
    if spec.family not in FAMILIES:
        raise ValueError(f"unknown family {spec.family!r}")
    return FAMILIES[spec.family](spec.size, spec.seed, spec.denominator)


def _random_family(n: int, seed: int, denominator: int, draw) -> Instance:
    """n charts, chart i with the heights draw(rng, denominator) returns,
    all drawn from one generator seeded with seed, after checking n and D."""
    if n < 1:
        raise ValueError("need at least one chart")
    check_denominator(denominator)
    rng = random.Random(seed)
    return Instance(tuple(BarChart(i, *draw(rng, denominator)) for i in range(n)),
                    denominator)


def gen_big_nonincreasing(n: int, seed: int = 0,
                          denominator: int = DEFAULT_DENOMINATOR) -> Instance:
    """Charts with a drawn uniformly from (1/2, 1] and b from (0, a]."""
    def draw(rng, d):
        a = rng.randint(d // 2 + 1, d)
        return a, rng.randint(1, a)
    return _random_family(n, seed, denominator, draw)


def gen_big(n: int, seed: int = 0,
            denominator: int = DEFAULT_DENOMINATOR) -> Instance:
    """Charts with one designated bar above 1/2; which side is big is a
    coin flip, the other bar is uniform over (0, 1]."""
    def draw(rng, d):
        big = rng.randint(d // 2 + 1, d)
        other = rng.randint(1, d)
        return (big, other) if rng.randint(0, 1) == 1 else (other, big)
    return _random_family(n, seed, denominator, draw)


def gen_general(n: int, seed: int = 0,
                denominator: int = DEFAULT_DENOMINATOR) -> Instance:
    """Both bars uniform over (0, 1] on the grid."""
    return _random_family(n, seed, denominator,
                          lambda rng, d: (rng.randint(1, d), rng.randint(1, d)))


def gen_tight_family(k: int, denominator: int = DEFAULT_DENOMINATOR) -> Instance:
    """The worst-case family: 2k "green" charts (0.70, 0.30) followed by
    2k "red" charts (0.35, 0.65).

    The heights are engineered so the only feasible unions are
    green-before-green, red-before-red and green-before-red, all saving a
    single cell: the single chain of all greens then all reds has length
    4k+1 (optimal), while pairing every green with a red leaves 2k charts
    (0.70, 0.65, 0.65) that admit no further union, for length 6k.
    """
    if k < 1:
        raise KTooSmall("tight family needs k >= 1")
    check_denominator(denominator)
    if denominator % 100 != 0:
        raise ValueError("tight family heights need a denominator divisible by 100")
    unit = denominator // 100
    green = (70 * unit, 30 * unit)
    red = (35 * unit, 65 * unit)
    charts = []
    for i in range(2 * k):
        charts.append(BarChart(i, *green))
    for i in range(2 * k, 4 * k):
        charts.append(BarChart(i, *red))
    return Instance(tuple(charts), denominator)


# every family by name, as (size, seed, denominator) -> Instance; the CLI
# offers these names in this order
FAMILIES = {
    "big-nonincreasing": gen_big_nonincreasing,
    "big": gen_big,
    "general": gen_general,
    "tight": lambda k, seed, denominator: gen_tight_family(k, denominator),
}


def tight_family_forced_pairs(inst: Instance) -> list[tuple[int, int]]:
    """The adversarial all-green-red pairing for a tight-family instance:
    green i is paired with red i + n/2."""
    if inst.n % 2 != 0:
        raise NotAMatching(f"the g-r pairing needs an even chart count, not {inst.n}")
    half = inst.n // 2
    return [(i, i + half) for i in range(half)]
