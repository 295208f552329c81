"""Core data model and centralized algorithms.

Everything in this package is independent of the distributed machinery:
the uncertain tuple model, dominance with preferences and subspaces,
possible-world semantics, the closed-form probability arithmetic of
Eqs. 3–12, conventional and probabilistic skyline algorithms, and the
cardinality/cost model of Eqs. 6–8.
"""

from .cardinality import (
    expected_feedback_tuples,
    expected_local_skyline_tuples,
    expected_skyline_cardinality,
    feedback_overhead_ratio,
)
from .dominance import Direction, Preference, dominates, dominates_values
from .possible_worlds import (
    conventional_skyline,
    enumerate_worlds,
    skyline_probabilities_exhaustive,
    skyline_probabilities_monte_carlo,
    world_probability,
)
from .prob_skyline import (
    ProbabilisticSkyline,
    SkylineMember,
    all_skyline_probabilities,
    prob_skyline_brute_force,
    prob_skyline_sfs,
)
from .probability import (
    combine_site_factors,
    corollary2_bound,
    feedback_pruning_bound,
    foreign_skyline_probability,
    global_skyline_probability,
    non_occurrence_product,
    observation2_bound,
    skyline_probability,
)
from .statistics import (
    ProbabilityProfile,
    dimension_correlations,
    dominance_profile,
    layer_of_qualified,
    probability_profile,
    skyline_layers,
)
from .skyline import block_nested_loop, divide_and_conquer, skyline, sort_filter_skyline
from .tuples import UncertainTuple, make_tuples, tuples_from_arrays, validate_database

__all__ = [
    "UncertainTuple",
    "make_tuples",
    "tuples_from_arrays",
    "validate_database",
    "Direction",
    "Preference",
    "dominates",
    "dominates_values",
    "world_probability",
    "enumerate_worlds",
    "conventional_skyline",
    "skyline_probabilities_exhaustive",
    "skyline_probabilities_monte_carlo",
    "non_occurrence_product",
    "skyline_probability",
    "foreign_skyline_probability",
    "global_skyline_probability",
    "combine_site_factors",
    "feedback_pruning_bound",
    "observation2_bound",
    "corollary2_bound",
    "skyline",
    "block_nested_loop",
    "sort_filter_skyline",
    "divide_and_conquer",
    "SkylineMember",
    "ProbabilisticSkyline",
    "prob_skyline_brute_force",
    "prob_skyline_sfs",
    "all_skyline_probabilities",
    "expected_skyline_cardinality",
    "ProbabilityProfile",
    "probability_profile",
    "dimension_correlations",
    "skyline_layers",
    "layer_of_qualified",
    "dominance_profile",
    "expected_feedback_tuples",
    "expected_local_skyline_tuples",
    "feedback_overhead_ratio",
]
