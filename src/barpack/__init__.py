"""barpack: packing two-bar charts into a unit-height strip.

A two-bar chart is a pair of unit-width bars with heights in (0, 1] that
stay horizontally adjacent. Packing assigns each chart a start cell so no
cell's bar heights exceed 1; the goal is to minimize the number of
occupied cells. The package provides exact fixed-point instance modeling,
two iterated-matching heuristics with a 3/2 guarantee on "big" charts, a
blossom matching engine, an exact branch-and-bound oracle, seeded
generators, and a CLI/experiment harness.
"""

from . import errors
from .exact import (
    DEFAULT_NODE_BUDGET,
    DisassemblyRound,
    ExactResult,
    disassemble,
    export_blp,
    lower_bound,
    solve_exact,
)
from .generators import (
    GenSpec,
    gen_big,
    gen_big_nonincreasing,
    gen_general,
    gen_tight_family,
    generate,
    tight_family_forced_pairs,
)
from .matching import (
    Graph,
    Matching,
    matching_pairs,
    matching_weight,
    max_cardinality_matching,
    max_weight_matching,
)
from .model import (
    DEFAULT_DENOMINATOR,
    BarChart,
    Instance,
    Packing,
    checked_occupancy,
    compact,
    height_numerator,
    instance_from_json,
    instance_to_json,
    is_feasible,
    length,
    occupancy,
    packing_from_json,
    packing_to_json,
    validate_instance,
)
from .packers import (
    PackResult,
    RoundStats,
    RunTrace,
    pack_first_fit,
    pack_forced_first_matching,
    pack_matching,
    pack_result_to_json,
    pack_weighted_matching,
    realize,
)
from .render import render_svg
from .report import (
    ReportRow,
    max_ratio_by_algo,
    ratio_bound_capacity,
    ratio_bound_dual,
    row_for_run,
    rows_to_csv,
)
from .unions import (
    Chart,
    build_graph,
    chart_from_bars,
    merge,
    union_feasible,
)

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]
