"""Completely positive matrices over the min-plus (tropical) semiring.

Exact rational arithmetic throughout: membership tests, zero-diagonal
normalization, pattern graphs and clique covers, constructive rank-one
decompositions, clique-cover rank bounds, and exact CP-rank search at
desk scale.
"""

from .core import (
    INF,
    Decomposition,
    SymTropMatrix,
    TropScalar,
    TropVector,
    is_exact_decomposition,
    rank_one_product,
    reconstruct,
    trop_add,
    trop_matrix_sum,
    trop_mul,
    verify_decomposition,
)
from .analysis import (
    NormalizationRecord,
    NotCompletelyPositiveError,
    cp_rank_is_one,
    extract_rank_one_factor,
    is_completely_positive,
    is_normalized,
    lift_decomposition,
    normalize,
    support,
)
from .graphs import (
    CliqueCover,
    EdgeCliqueCover,
    PatternGraph,
    cover_bound,
    cp_rank_upper_bound,
    diameter,
    diameter_witness_matrix,
    distance,
    edge_clique_cover_number,
    induced_subgraph,
    join_vertex,
    maximal_cliques,
    min_clique_cover_size,
    min_cover_bound,
    ordered_cover_bound,
    pattern_graph,
)
from .decompose import (
    BlockPlan,
    clique_block,
    construct_decomposition,
    construct_decomposition_detailed,
    cross_block,
    decompose_cp,
    empty_pattern_01_decomposition,
    make_block_plan,
    singleton_link_block,
    singleton_tail_block,
)
from .rank import (
    FactorConstraintSystem,
    RankCertificate,
    RankSearchOutcome,
    cp_rank_exact,
    cp_rank_leq,
    fooling_set_bound,
    rank_lower_bound,
    solve_factor_system,
    zero_one_rank,
)
from .formats import (
    ParseError,
    parse_graph,
    parse_matrix,
    parse_vector,
    render_graph,
    render_matrix,
    render_vector,
)
from .generators import generate_instance, random_cp_matrix

__all__ = [name for name in dir() if not name.startswith("_")]

__version__ = "0.1.0"
