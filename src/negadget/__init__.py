"""Exact verification of approximate Nash equilibria, the 3SAT -> free
game -> bimatrix gadget reduction, and constrained equilibrium search.
"""

from .games import (
    BimatrixGame,
    MixedProfile,
    RegretReport,
    affine_rescale,
    is_eps_ne,
    is_eps_wsne,
    regret_report,
    tv_distance,
)
from .provers import (
    ProverStrategy,
    TwoProverGame,
    game_value,
    induced_two_prover,
    prover_payoff,
    uniformity_gap,
)
from .sat import (
    Cnf3Formula,
    build_clause_variable_free_game,
    incidence_graph,
    max_sat_fraction,
    parse_dimacs,
    partition_bipartite,
    reduce_to_free_game,
)
from .gadget import (
    GadgetGame,
    ReductionParams,
    build_hardness_game,
    completeness_certificate,
    derive_params,
    extend_gdoubleprime,
    extend_gprime,
    half_subsets,
    rescale_game,
)
from .search import (
    DecisionInstance,
    SearchOutcome,
    decide,
    k_uniform_strategies,
    lmm_best_welfare,
)

__version__ = "0.1.0"

__all__ = [
    "BimatrixGame",
    "MixedProfile",
    "RegretReport",
    "affine_rescale",
    "is_eps_ne",
    "is_eps_wsne",
    "regret_report",
    "tv_distance",
    "ProverStrategy",
    "TwoProverGame",
    "game_value",
    "induced_two_prover",
    "prover_payoff",
    "uniformity_gap",
    "Cnf3Formula",
    "build_clause_variable_free_game",
    "incidence_graph",
    "max_sat_fraction",
    "parse_dimacs",
    "partition_bipartite",
    "reduce_to_free_game",
    "GadgetGame",
    "ReductionParams",
    "build_hardness_game",
    "completeness_certificate",
    "derive_params",
    "extend_gdoubleprime",
    "extend_gprime",
    "half_subsets",
    "rescale_game",
    "DecisionInstance",
    "SearchOutcome",
    "decide",
    "k_uniform_strategies",
    "lmm_best_welfare",
]
