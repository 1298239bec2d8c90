import random

import pytest

import oracles
from conftest import relabeled
from grundytd import (
    CapacityError,
    Graph,
    are_isomorphic,
    complete,
    connected_cubic_graphs,
    connected_graphs,
    connected_regular_graphs,
    cycle,
    graph_canonical_form,
    k_kk,
    path,
    petersen,
    random_connected_graph,
    random_hypergraph,
    random_tree,
)
from grundytd import smallgraphs
from grundytd.graph import is_connected
from grundytd.smallgraphs import canonical_form


def test_connected_counts_small():
    assert [len(connected_graphs(n)) for n in range(1, 8)] == [1, 1, 2, 6, 21, 112, 853]


@pytest.mark.slow
def test_connected_count_order_eight():
    assert len(connected_graphs(8)) == 11117


def test_connected_graphs_match_reference_generator():
    for n in range(1, 8):
        assert connected_graphs(n) == oracles.connected_graphs_reference(n)


@pytest.mark.slow
def test_connected_graphs_match_reference_generator_order_eight():
    assert connected_graphs(8) == oracles.connected_graphs_reference(8)


def test_connected_graphs_skip_most_children_before_canonicalizing(monkeypatch):
    # trying every child made 7,815 canonical_form calls up to order 7
    calls = []
    canonical = smallgraphs.canonical_form

    def counting(adj, n):
        cert = canonical(adj, n)
        calls.append(cert)
        return cert

    monkeypatch.setattr(smallgraphs, "_connected_cache", {})
    monkeypatch.setattr(smallgraphs, "canonical_form", counting)
    smallgraphs.connected_graphs(7)
    assert len(set(calls)) == 995
    assert len(calls) <= 1400


def test_cubic_counts():
    assert [len(connected_cubic_graphs(n)) for n in (4, 6, 8, 10)] == [1, 2, 5, 19]


@pytest.mark.slow
def test_cubic_count_order_twelve():
    assert len(connected_cubic_graphs(12)) == 85


def test_cubic_graphs_are_cubic_and_connected():
    for n in (4, 6, 8):
        for g in connected_cubic_graphs(n):
            assert is_connected(g)
            assert g.min_degree() == g.max_degree() == 3


def test_odd_order_has_no_cubic_graphs():
    assert connected_cubic_graphs(5) == []


def test_cubic_graphs_match_reference_generator():
    for n in range(4, 11):
        assert connected_cubic_graphs(n) == oracles.connected_cubic_graphs_reference(n)


@pytest.mark.slow
def test_cubic_graphs_match_reference_generator_order_twelve():
    assert connected_cubic_graphs(12) == oracles.connected_cubic_graphs_reference(12)


def test_regular_graphs_make_no_canonical_form_call(monkeypatch):
    # the canonicalizing generator made 695 calls up to order 10
    calls = []
    canonical = smallgraphs.canonical_form

    def counting(adj, n):
        calls.append(n)
        return canonical(adj, n)

    monkeypatch.setattr(smallgraphs, "_regular_cache", {})
    monkeypatch.setattr(smallgraphs, "canonical_form", counting)
    counts = [len(connected_cubic_graphs(n)) for n in range(4, 13, 2)]
    assert counts == [1, 2, 5, 19, 85]
    assert calls == []


def _check_regular_classes(n, k, count):
    graphs = connected_regular_graphs(n, k)
    assert len(graphs) == count
    for g in graphs:
        assert is_connected(g) and g.min_degree() == g.max_degree() == k
    # canonical_form takes no part in the generator, so it is an oracle here
    assert len({graph_canonical_form(g) for g in graphs}) == count


@pytest.mark.parametrize(
    "n, k, count",
    # quartic graphs of order 5-10 (OEIS A006820), quintic of order 6, 8
    # and 10 (A006821)
    [(5, 4, 1), (6, 4, 1), (7, 4, 2), (8, 4, 6), (9, 4, 16), (10, 4, 59)]
    + [(6, 5, 1), (8, 5, 3), (10, 5, 60)],
)
def test_regular_counts(n, k, count):
    _check_regular_classes(n, k, count)


def test_regular_graphs_of_impossible_or_small_degree():
    assert connected_regular_graphs(7, 3) == []  # n * k odd
    assert connected_regular_graphs(5, 5) == []  # k >= n
    assert connected_regular_graphs(4, 9) == []
    assert connected_regular_graphs(6, -1) == []
    assert connected_regular_graphs(0, 0) == []
    assert connected_regular_graphs(-3, 2) == []
    assert connected_regular_graphs(2, 0) == []  # 0-regular is connected only on K1
    assert connected_regular_graphs(1, 0) == [Graph(1, (0,))]
    assert connected_regular_graphs(2, 1) == [Graph.from_edges(2, [(0, 1)])]
    (ring,) = connected_regular_graphs(9, 2)
    assert are_isomorphic(ring, cycle(9))


def test_regular_graphs_above_their_limit_are_capacity_error():
    for k in range(-1, 8):
        limit = smallgraphs.MAX_CUBIC_ORDER if k <= 3 else smallgraphs.MAX_REGULAR_ORDER
        for n in (limit + 1, limit + 2, 10**6):
            with pytest.raises(CapacityError):
                connected_regular_graphs(n, k)


def test_enumeration_has_no_duplicates():
    for n in range(2, 7):
        forms = {graph_canonical_form(g) for g in connected_graphs(n)}
        assert len(forms) == len(connected_graphs(n))


def test_known_graphs_appear_in_enumeration():
    found_cycle = any(are_isomorphic(g, cycle(6)) for g in connected_graphs(6))
    found_path = any(are_isomorphic(g, path(6)) for g in connected_graphs(6))
    assert found_cycle and found_path
    assert any(are_isomorphic(g, k_kk(3)) for g in connected_cubic_graphs(6))
    assert any(are_isomorphic(g, petersen()) for g in connected_cubic_graphs(10))


def test_canonical_form_isomorphism_invariance():
    # relabel a few graphs randomly; forms must not move
    rng = random.Random(9)
    for _ in range(40):
        g = random_connected_graph(rng.randint(2, 8), 0.45, rng)
        h = relabeled(g, rng)
        assert graph_canonical_form(g) == graph_canonical_form(h)
        assert are_isomorphic(g, h)


def test_canonical_form_matches_unpruned_search_on_small_graphs():
    rng = random.Random(13)
    for n in range(1, 7):
        for g in connected_graphs(n):
            for _ in range(3):
                h = relabeled(g, rng)
                assert canonical_form(h.adj, n) == oracles.canonical_form_unpruned(h.adj, n)


def test_canonical_form_matches_unpruned_search_on_symmetric_graphs():
    rng = random.Random(14)
    graphs = [petersen(), k_kk(4), cycle(12), k_kk(3)]
    graphs += connected_cubic_graphs(8) + connected_cubic_graphs(10)
    for g in graphs:
        h = relabeled(g, rng)
        assert canonical_form(h.adj, g.n) == oracles.canonical_form_unpruned(h.adj, g.n)


def test_canonical_form_matches_unpruned_search_on_mixed_degree_graphs():
    rng = random.Random(15)
    for i in range(200):
        g = random_connected_graph(rng.randint(8, 12), (0.1, 0.2, 0.3, 0.5)[i % 4], rng)
        assert canonical_form(g.adj, g.n) == oracles.canonical_form_unpruned(g.adj, g.n)


def test_canonical_form_of_complete_graph():
    # the unpruned search takes seconds on K8; every leaf is all ones
    expected = (8).to_bytes(2, "big") + ((1 << 28) - 1).to_bytes(4, "big")
    assert canonical_form(complete(8).adj, 8) == expected


def test_nonisomorphic_pairs_distinguished():
    assert not are_isomorphic(path(4), star(3) if False else cycle(4))
    assert not are_isomorphic(k_kk(3), cycle(6))
    # same degree sequence, different graphs
    g1 = cycle(6)
    g2 = Graph.from_edges(6, [(0, 1), (1, 2), (2, 0), (3, 4), (4, 5), (5, 3)])
    assert not are_isomorphic(g1, g2)


def test_random_tree_is_tree():
    rng = random.Random(10)
    for _ in range(50):
        n = rng.randint(2, 14)
        t = random_tree(n, rng)
        assert t.n == n and is_connected(t) and t.edge_count() == n - 1


def test_random_connected_graph_is_connected():
    rng = random.Random(11)
    for _ in range(50):
        g = random_connected_graph(rng.randint(2, 10), 0.3, rng)
        assert is_connected(g)


def test_random_hypergraph_within_limits():
    rng = random.Random(12)
    for _ in range(60):
        h = random_hypergraph(rng)
        assert 2 <= h.n_vertices <= 6
        assert 1 <= len(h.edges) <= 6
        assert all(h.edges[i] for i in range(len(h.edges)))
