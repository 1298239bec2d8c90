"""Exact solvers and checkers for total dominating sequences.

A sequence of vertices is legal when every entry dominates a vertex that
nothing earlier dominated; the longest such sequence that ends up totally
dominating the graph defines the central invariant here, with closed,
game, and matching-based relatives alongside, plus the hypergraph
covering/transversal view of the same computation.

Importing the package imports none of its submodules.  Each name below is
looked up in its submodule on first use (PEP 562) and then kept here, so
``from grundytd import path`` loads only graph.py, and the command line
loads only the modules its command runs.
"""

import importlib

__version__ = "0.1.0"

_EXPORTS = {
    "engine": ("BACKEND",),
    "errors": (
        "CapacityError",
        "DomainError",
        "GrundyTDError",
        "InvariantViolation",
        "ParameterError",
        "ParseError",
        "PreconditionError",
        "SequenceError",
    ),
    "formats": (
        "graph_from_edge_list",
        "graph_from_graph6",
        "graph_to_edge_list",
        "graph_to_graph6",
        "hypergraph_from_text",
        "hypergraph_to_text",
    ),
    "graph": (
        "Graph",
        "bipartition",
        "build_family",
        "complete",
        "complete_bipartite",
        "complete_multipartite",
        "cycle",
        "gm_graph",
        "k_kk",
        "path",
        "petersen",
        "spider",
        "star",
        "subset_bipartite",
        "tree_from_edges",
    ),
    "hypergraph": (
        "Hypergraph",
        "covering_sequence_of_length",
        "covering_to_transversal",
        "edge_cover_number",
        "grundy_covering_number",
        "grundy_transversal_number",
        "incidence_graph",
        "open_neighborhood_hypergraph",
        "transversal_to_covering",
    ),
    "sequences": (
        "LegalityReport",
        "check_cover_sequence",
        "is_dominating_sequence",
        "is_total_dominating_sequence",
    ),
    "smallgraphs": (
        "are_isomorphic",
        "connected_cubic_graphs",
        "connected_graphs",
        "connected_regular_graphs",
        "graph_canonical_form",
        "random_connected_graph",
        "random_hypergraph",
        "random_tree",
    ),
    "solver": (
        "DEFAULT_CAP",
        "INVARIANT_KEYS",
        "InvariantReport",
        "InvariantResult",
        "compute_report",
        "game_total_domination_number",
        "grundy_domination_number",
        "grundy_total_domination_number",
        "interpolation_witnesses",
        "is_minimal_total_dominating_set",
        "is_total_dominating_set",
        "semistrong_matching_number",
        "strong_matching_number",
        "total_dominating_sequence_of_length",
        "total_domination_number",
        "upper_total_domination_number",
    ),
    "theorems": (
        "BoundReport",
        "FamilyTCertificate",
        "PairLabeling",
        "RegularConstruction",
        "TreeBoundReport",
        "bound_report",
        "complete_multipartite_parts",
        "family_t_members",
        "find_pair_labeling",
        "is_complete_multipartite",
        "is_in_family_t",
        "pair_labeling_from_sequence",
        "prune_to_closed",
        "regular_greedy_sequence",
        "regular_lower_bound",
        "replay_family_t_certificate",
        "tree_bound_report",
        "tree_matching_sequence",
        "tree_perfect_matching",
        "verify_pair_labeling",
    ),
}

_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = sorted(_MODULE_OF)


def __getattr__(name: str):
    module = _MODULE_OF.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{module}", __name__), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted(set(globals()) | set(__all__))
