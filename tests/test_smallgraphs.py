import hashlib
import importlib
import itertools
import random
from pathlib import Path

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
from grundytd.graph import bits, is_connected
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


def test_connected_graphs_certify_only_children_that_could_be_isomorphic(monkeypatch):
    # trying every child made 7,815 canonical_form calls up to order 7, and
    # certifying each child that passed the degree and orbit rules 1,324;
    # tied children are now matched by _reaches and certified by none
    calls = {"canonical_form": 0, "_new_in_group": 0, "_reaches": 0}

    def counting(name):
        original = getattr(smallgraphs, name)

        def wrapper(*args):
            calls[name] += 1
            return original(*args)

        return wrapper

    monkeypatch.setattr(smallgraphs, "_connected_cache", {})
    for name in calls:
        monkeypatch.setattr(smallgraphs, name, counting(name))
    at_once = smallgraphs.connected_graphs(7)
    assert calls["canonical_form"] <= 700
    assert calls["canonical_form"] == 0
    assert calls["_new_in_group"] == 949  # the tied children up to order 7
    assert calls["_reaches"] <= calls["_new_in_group"]
    monkeypatch.setattr(smallgraphs, "_connected_cache", {})
    by_order = [smallgraphs.connected_graphs(n) for n in range(1, 8)]
    assert at_once == by_order[-1]


def _search_agrees_with_certificates(g, h):
    # _reaches from h's root colouring towards g's first path, without the
    # refinement-key test that are_isomorphic makes first
    nbrs, colors, _ = smallgraphs._refinement(h.adj, h.n)
    path, target = smallgraphs._first_path(g.adj, g.n, smallgraphs._refinement(g.adj, g.n)[1])
    found = smallgraphs._reaches(h.adj, nbrs, h.n, colors, path, target)
    assert found == (graph_canonical_form(g) == graph_canonical_form(h)), (g.adj, h.adj)
    assert are_isomorphic(g, h) == found
    return found


def test_isomorphism_search_agrees_with_certificates_up_to_order_five():
    rng = random.Random(21)
    for n in range(1, 6):
        graphs = connected_graphs(n)
        for g, h in itertools.product(graphs, repeat=2):
            assert _search_agrees_with_certificates(g, relabeled(h, rng)) == (g == h)
    assert not are_isomorphic(path(4), path(5))


def test_isomorphism_search_agrees_with_certificates_at_order_seven():
    # every class against a relabeled copy of itself, and every pair of
    # classes that share a root-refinement key, which _reaches must split
    rng = random.Random(22)
    groups = {}
    for g in connected_graphs(7):
        assert _search_agrees_with_certificates(g, relabeled(g, rng))
        groups.setdefault(smallgraphs._refinement(g.adj, 7)[2], []).append(g)
    pairs = [pair for group in groups.values() for pair in itertools.permutations(group, 2)]
    assert pairs
    for g, h in pairs:
        assert not _search_agrees_with_certificates(g, relabeled(h, rng))


@pytest.mark.parametrize("n, k", [(6, 3), (8, 3), (9, 4)])
def test_isomorphism_search_splits_regular_graphs_that_refinement_cannot(n, k):
    # a regular graph's root refinement is one colour, so every pair below
    # reaches the search's leaves
    rng = random.Random(23)
    graphs = connected_regular_graphs(n, k)
    for g, h in itertools.product(graphs, repeat=2):
        assert _search_agrees_with_certificates(g, relabeled(h, rng)) == (g == h)


def test_corpus_bench_script_counts_and_digests_its_rows(monkeypatch):
    # the smallest use of scripts/bench_corpus.py, which records layer-a claims
    scripts = Path(__file__).resolve().parent.parent / "scripts"
    monkeypatch.syspath_prepend(str(scripts))
    bench_corpus = importlib.import_module("bench_corpus")
    monkeypatch.setattr(smallgraphs, "_connected_cache", {})
    monkeypatch.setattr(smallgraphs, "_regular_cache", {})
    for fn, args in (("connected_graphs", (6,)), ("connected_regular_graphs", (8, 3))):
        record = bench_corpus.counted(smallgraphs, fn, args)
        assert set(record) == {"graphs", "calls", "sha256"}
        assert set(record["calls"]) == set(bench_corpus.COUNTED)
        graphs = bench_corpus.build(smallgraphs, fn, args)
        digest = hashlib.sha256(b"".join(repr((g.n, g.adj)).encode() for g in graphs))
        assert record["graphs"] == len(graphs) and record["sha256"] == digest.hexdigest()
    assert record["calls"]["canonical_form"] == record["calls"]["_reaches"] == 0


def _image(p, mask):
    return sum(1 << p[v] for v in bits(mask))


def test_search_records_a_generating_set_of_the_automorphism_group():
    # the orbit rule of connected_graphs is exact only if they generate it
    for n in range(1, 7):
        for g in connected_graphs(n):
            autos = smallgraphs._search(g.adj, n)[1]
            group = [
                p
                for p in itertools.permutations(range(n))
                if all(g.adj[p[v]] == _image(p, g.adj[v]) for v in range(n))
            ]
            orbit_minima = sorted({min(_image(p, m) for p in group) for m in range(1, 1 << n)})
            assert smallgraphs._neighborhood_representatives(n, autos) == orbit_minima


def test_cubic_counts():
    assert [len(connected_cubic_graphs(n)) for n in (4, 6, 8, 10)] == [1, 2, 5, 19]


@pytest.mark.slow
def test_cubic_count_order_twelve():
    assert len(connected_cubic_graphs(12)) == 85


@pytest.mark.slow
def test_cubic_counts_up_to_the_limit():
    # OEIS A002851
    assert [len(connected_cubic_graphs(n)) for n in (14, 16)] == [509, 4060]


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
    # quartic graphs of order 5-11 (OEIS A006820), quintic of order 6, 8
    # and 10 (A006821), 6-regular of order 7-11 (A006822), 7-regular of
    # order 8 and 10 (A014377), 8-regular of order 9-11 (A014378)
    [(5, 4, 1), (6, 4, 1), (7, 4, 2), (8, 4, 6), (9, 4, 16), (10, 4, 59), (11, 4, 265)]
    + [(6, 5, 1), (8, 5, 3), (10, 5, 60)]
    + [(7, 6, 1), (8, 6, 1), (9, 6, 4), (10, 6, 21), (11, 6, 266)]
    + [(8, 7, 1), (10, 7, 5)]
    + [(9, 8, 1), (10, 8, 1), (11, 8, 6)],
)
def test_regular_counts(n, k, count):
    _check_regular_classes(n, k, count)


@pytest.mark.parametrize(
    "n, k",
    [(n, 3) for n in range(4, 13)]
    + [(n, 4) for n in range(5, 11)]
    + [(6, 5), (8, 5), (10, 5)]
    + [(n, k) for k in (6, 7, 8) for n in range(k + 1, 11)]
    + [pytest.param(n, k, marks=pytest.mark.slow) for n, k in ((14, 3), (11, 4), (11, 6), (11, 8))],
)
def test_regular_graphs_match_reference_generator(n, k):
    # the stateless orderly test, re-searching every relabeling at each node
    assert connected_regular_graphs(n, k) == oracles.connected_regular_graphs_reference(n, k)


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
