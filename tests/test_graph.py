import pickle

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


def test_graph_equality_hash_and_immutability():
    g = Graph(2, (2, 1))
    assert g == Graph.from_edges(2, [(0, 1)])
    assert g != (2, (2, 1))
    assert hash(g) == hash((2, (2, 1)))
    assert len({g, path(2)}) == 1
    assert pickle.loads(pickle.dumps(g)) == g
    with pytest.raises(AttributeError):
        g.n = 3
    with pytest.raises(AttributeError):
        del g.adj
    assert (g.n, g.adj) == (2, (2, 1))


@pytest.mark.parametrize(
    "n, adj, message",
    [
        (0, (), "graph order must be >= 1, got 0"),
        (2, (2,), "adjacency has 1 rows for order 2"),
        (2, (4, 1), "adjacency row of 0 mentions vertices >= n"),
        (2, (1, 0), "self-loop at vertex 0"),
        (3, (2, 0, 0), "asymmetric adjacency between 0 and 1"),
    ],
)
def test_graph_validation_errors(n, adj, message):
    with pytest.raises(ParameterError, match=f"^{message}$"):
        Graph(n, adj)


@pytest.mark.parametrize(
    "n, edges, message",
    [
        (0, [], "graph order must be >= 1, got 0"),
        (2, [(0, 2)], r"edge \(0,2\) out of range for order 2"),
        (2, [(-1, 0)], r"edge \(-1,0\) out of range for order 2"),
        (3, [(0, 1), (1, 1)], "self-loop at vertex 1"),
    ],
)
def test_from_edges_validation_errors(n, edges, message):
    # from_edges checks each edge itself and builds its rows unchecked
    with pytest.raises(ParameterError, match=f"^{message}$"):
        Graph.from_edges(n, edges)


def test_from_edges_builds_the_rows_graph_checks():
    g = Graph.from_edges(4, [(0, 1), (2, 1), (3, 0), (1, 0)])
    assert g == Graph(4, g.adj) and g.adj == (10, 5, 2, 1)


def test_family_adjacency_limit_is_checked_before_building():
    # order 46,341 is the largest whose n(n-1)/2-bit estimate fits the limit;
    # stars that large are cheap, since only the centre's row is wide
    assert star(46340).n == 46341
    with pytest.raises(ParameterError, match="adjacency bits"):
        star(46341)
