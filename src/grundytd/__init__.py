"""Exact solvers and checkers for total dominating sequences.

A sequence of vertices is legal when every entry dominates a vertex that
nothing earlier dominated; the longest such sequence that ends up totally
dominating the graph defines the central invariant here, with closed,
game, and matching-based relatives alongside, plus the hypergraph
covering/transversal view of the same computation.
"""

from .engine import BACKEND
from .errors import (
    CapacityError,
    DomainError,
    GrundyTDError,
    InvariantViolation,
    ParameterError,
    ParseError,
    PreconditionError,
    SequenceError,
)
from .formats import (
    graph_from_edge_list,
    graph_from_graph6,
    graph_to_edge_list,
    graph_to_graph6,
    hypergraph_from_text,
    hypergraph_to_text,
)
from .graph import (
    Graph,
    bipartition,
    build_family,
    complete,
    complete_bipartite,
    complete_multipartite,
    cycle,
    gm_graph,
    k_kk,
    path,
    petersen,
    spider,
    star,
    subset_bipartite,
    tree_from_edges,
)
from .hypergraph import (
    Hypergraph,
    covering_sequence_of_length,
    covering_to_transversal,
    edge_cover_number,
    grundy_covering_number,
    grundy_transversal_number,
    incidence_graph,
    open_neighborhood_hypergraph,
    transversal_to_covering,
)
from .sequences import (
    GreedyResult,
    LegalityReport,
    check_legal,
    greedy_extend,
    is_dominating_sequence,
    is_total_dominating_sequence,
    prune_to_closed,
)
from .smallgraphs import (
    are_isomorphic,
    connected_cubic_graphs,
    connected_graphs,
    connected_regular_graphs,
    graph_canonical_form,
    random_connected_graph,
    random_hypergraph,
    random_tree,
)
from .solver import (
    DEFAULT_CAP,
    INVARIANT_KEYS,
    InvariantReport,
    InvariantResult,
    compute_report,
    game_total_domination_number,
    grundy_domination_number,
    grundy_total_domination_number,
    interpolation_witnesses,
    is_minimal_total_dominating_set,
    is_total_dominating_set,
    semistrong_matching_number,
    strong_matching_number,
    total_dominating_sequence_of_length,
    total_domination_number,
    upper_total_domination_number,
)
from .theorems import (
    BoundReport,
    FamilyTCertificate,
    PairLabeling,
    RegularConstruction,
    TreeBoundReport,
    bound_report,
    complete_multipartite_parts,
    family_t_members,
    find_pair_labeling,
    is_complete_multipartite,
    is_in_family_t,
    pair_labeling_from_sequence,
    regular_greedy_sequence,
    regular_lower_bound,
    replay_family_t_certificate,
    tree_bound_report,
    tree_matching_sequence,
    tree_perfect_matching,
    verify_pair_labeling,
)

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]
