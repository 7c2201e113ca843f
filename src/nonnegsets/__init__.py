"""Exact counting of nonnegative subset sums and the machinery behind the caps.

Modules
-------
setcore   subsets, families, binomials, the two bound formulas
nonneg    constrained rational sequences, enumeration, randomized sweeps
hallflow  blocked bi-regular graphs, weighted Hall via transportation flow
matching  disjointness graphs, deterministic matchings, per-pair counting
ekrshift  pushing-up compression and the exact maximum-family oracle
cli       command-line front end (``nonnegsets``)
"""

from .setcore import (
    FileFormatError,
    SetFamily,
    Subset,
    binomial,
    bound_gap,
    bound_main,
    bound_refined,
    family_is_intersecting,
)
from .nonneg import (
    NonnegReport,
    NumberSequence,
    SamplingError,
    StructureReport,
    TheoremVerdict,
    classify_nonneg_structure,
    constraint_holds,
    enumerate_nonneg,
    extremal_construction,
    verify_theorem1,
    verify_theorem2,
)
from .hallflow import (
    PartitionedBipartiteGraph,
    ReducedGraph,
    TransportationPlan,
    TransportResult,
    reduce,
    reduced_hall_condition,
    solve_transportation,
    validate_biregular,
    weighted_hall_decide,
)
from .matching import (
    DisjointnessGraphSpec,
    GiGraphSpec,
    Matching,
    build_disjointness_graph,
    count_cap_per_pair,
    find_perfect_matching,
    near_perfect_matching_gi,
    verify_corollary_hall_blocks,
)
from .ekrshift import (
    BoundedFamily,
    OracleResult,
    has_property,
    max_family_oracle,
    push_up,
    theorem1_via_ekr,
    to_upset,
    upset_is_intersecting,
)

__version__ = "0.1.0"
