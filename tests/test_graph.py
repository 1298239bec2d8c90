import pytest

from grundytd import (
    Graph,
    ParameterError,
    ParseError,
    are_isomorphic,
    build_family,
    complete,
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
from grundytd.graph import bipartition, is_connected, strong_support_vertices


def edge_set(g):
    return {(u, v) for u in range(g.n) for v in range(u + 1, g.n) if g.adj[u] >> v & 1}


def test_path_4_edges():
    g = path(4)
    assert g.n == 4
    assert edge_set(g) == {(0, 1), (1, 2), (2, 3)}


def test_cycle_closes_the_loop():
    g = cycle(5)
    assert edge_set(g) == {(0, 1), (1, 2), (2, 3), (3, 4), (0, 4)}


def test_complete_edge_count():
    assert len(edge_set(complete(6))) == 15


def test_star_center_degree():
    g = star(4)
    assert g.n == 5
    assert g.degree(0) == 4
    assert all(g.degree(v) == 1 for v in range(1, 5))


def test_balanced_complete_bipartite_is_regular():
    g = k_kk(3)
    assert g.min_degree() == g.max_degree() == 3
    assert bipartition(g) is not None
    # inside a part every pair shares its full neighborhood
    assert len(set(g.adj)) < g.n


def test_star_strong_support():
    assert strong_support_vertices(star(4)) == (0,)


def test_path5_twin_free_no_strong_support():
    g = path(5)
    assert is_connected(g) and g.edge_count() == g.n - 1
    assert len(set(g.adj)) == g.n  # no two vertices share a neighborhood
    assert strong_support_vertices(g) == ()


def test_spider_shape():
    # k triangles sharing the hub vertex
    g = spider(3)
    assert g.n == 7
    assert g.degree(0) == 6
    assert sorted(g.degree(v) for v in range(1, g.n)) == [2] * 6


def test_petersen_is_cubic_and_twin_free():
    g = petersen()
    assert g.n == 10
    assert g.min_degree() == g.max_degree() == 3
    assert bipartition(g) is None
    assert len(set(g.adj)) == g.n


def test_gm_graph_is_cubic_bipartite():
    g = gm_graph(4)
    assert g.n == 8
    assert g.min_degree() == g.max_degree() == 3
    assert bipartition(g) is not None


def test_subset_bipartite_dimensions():
    g = subset_bipartite(3)
    # 3 element vertices + (2^3 - 1) nonempty subset vertices? no: proper
    # nonempty subsets plus the full set handled per the family definition
    assert bipartition(g) is not None
    assert g.n == 15


def test_complete_multipartite_parts_sizes():
    g = complete_multipartite([2, 2, 3])
    assert g.n == 7
    assert len(edge_set(g)) == 2 * 2 + 2 * 3 + 2 * 3


def test_tree_from_edges_rejects_cycles():
    with pytest.raises(ParameterError):
        tree_from_edges(3, [(0, 1), (1, 2), (0, 2)])


def test_build_family_specs():
    assert are_isomorphic(build_family("path:6"), path(6))
    assert are_isomorphic(build_family("kkk:2"), k_kk(2))
    assert are_isomorphic(build_family("gm:3:2"), gm_graph(3, 2))
    assert build_family("petersen").n == 10


def test_build_family_rejects_unknown():
    with pytest.raises(ParameterError):
        build_family("moebius:5")


def test_graph_rejects_self_loop():
    with pytest.raises((ParameterError, ParseError, ValueError)):
        Graph.from_edges(2, [(0, 0)])
