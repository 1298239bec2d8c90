import random
from itertools import permutations

import pytest

import oracles
from grundytd import (
    Hypergraph,
    InvariantViolation,
    ParameterError,
    PreconditionError,
    SequenceError,
    bipartition,
    covering_sequence_of_length,
    covering_to_transversal,
    cycle,
    edge_cover_number,
    engine,
    grundy_covering_number,
    grundy_total_domination_number,
    grundy_transversal_number,
    incidence_graph,
    open_neighborhood_hypergraph,
    path,
    random_hypergraph,
    transversal_to_covering,
)
from grundytd.hypergraph import (
    is_complete_covering_sequence,
    is_complete_transversal_sequence,
    is_legal_covering_sequence,
    is_legal_transversal_sequence,
)


def three_edge_h():
    return Hypergraph.from_edge_lists(2, [[0], [1], [0, 1]])


def test_single_full_edge_covering_number_one():
    h = Hypergraph.from_edge_lists(3, [[0, 1, 2]])
    assert grundy_covering_number(h)[0] == 1


def test_three_edge_example_values():
    h = three_edge_h()
    assert edge_cover_number(h)[0] == 1
    assert grundy_covering_number(h)[0] == 2
    assert grundy_transversal_number(h)[0] == 2


def test_single_edge_transversal():
    h = Hypergraph.from_edge_lists(2, [[0, 1]])
    assert grundy_transversal_number(h)[0] == 1
    assert transversal_to_covering(h, (0,)) == (0,)


def test_empty_edge_rejected():
    with pytest.raises(ParameterError):
        Hypergraph.from_edge_lists(2, [[0], []])


def test_uncovered_vertex_rejected():
    with pytest.raises(ParameterError):
        Hypergraph.from_edge_lists(3, [[0], [1]])


def test_hypergraph_equality_hash_and_immutability():
    h = Hypergraph(2, (3,))
    assert h == Hypergraph.from_edge_lists(2, [[0, 1]])
    assert h != (2, (3,))
    assert h != Hypergraph(2, (3, 3))
    # a graph with the same two fields is not a hypergraph
    assert Hypergraph(2, (2, 1)) != path(2)
    assert hash(h) == hash((2, (3,)))
    assert repr(h) == "Hypergraph(n=2, edges=1)"
    with pytest.raises(AttributeError):
        h.edges = (1, 2)
    assert h.edges == (3,)


@pytest.mark.parametrize(
    "n, edges, message",
    [
        (0, (1,), "ground set must be nonempty"),
        (2, (), "hypergraph needs at least one hyperedge"),
        (2, (3, 0), "hyperedge 1 is empty"),
        (2, (4,), "hyperedge 0 mentions vertices >= n"),
        (3, (1, 2), r"isolated ground vertices: \[2\]"),
    ],
)
def test_hypergraph_validation_errors(n, edges, message):
    with pytest.raises(ParameterError, match=f"^{message}$"):
        Hypergraph(n, edges)


def test_legality_predicates():
    h = three_edge_h()
    assert is_legal_covering_sequence(h, (0, 1))
    assert is_complete_covering_sequence(h, (0, 1))
    # the big edge first swallows everything
    assert not is_legal_covering_sequence(h, (2, 0))
    assert is_legal_transversal_sequence(h, (0, 1))
    assert is_complete_transversal_sequence(h, (0, 1))


def test_reversal_of_transversal_witness():
    h = three_edge_h()
    value, wit = grundy_transversal_number(h)
    edge_seq = transversal_to_covering(h, wit)
    assert len(edge_seq) == value
    assert is_legal_covering_sequence(h, edge_seq)
    assert is_complete_covering_sequence(h, edge_seq)


def test_reversal_of_covering_witness():
    h = three_edge_h()
    value, wit = grundy_covering_number(h)
    vertex_seq = covering_to_transversal(h, wit)
    assert len(vertex_seq) == value
    assert is_legal_transversal_sequence(h, vertex_seq)
    assert is_complete_transversal_sequence(h, vertex_seq)


def test_reversal_rejects_repeated_vertex():
    h = three_edge_h()
    with pytest.raises(SequenceError):
        transversal_to_covering(h, (0, 0))


def test_reversal_rejects_illegal_order():
    h = three_edge_h()
    # vertex 1 hits nothing new after vertex 0 hit edges 0 and 2... it does
    # hit edge 1, so build a genuinely illegal pair instead: play the same
    # ground vertex against an already fully hit edge set
    big = Hypergraph.from_edge_lists(2, [[0, 1], [0, 1]])
    with pytest.raises(PreconditionError):
        transversal_to_covering(big, (0, 1))


def test_grundy_covering_matches_transversal_randomly():
    rng = random.Random(5)
    for _ in range(120):
        h = random_hypergraph(rng)
        assert grundy_covering_number(h)[0] == grundy_transversal_number(h)[0]


def test_covering_values_match_oracle():
    rng = random.Random(6)
    for _ in range(80):
        h = random_hypergraph(rng)
        assert grundy_covering_number(h)[0] == oracles.hyper_longest_cover(h)[0]
        assert grundy_transversal_number(h)[0] == oracles.hyper_longest_transversal(h)[0]
        assert edge_cover_number(h)[0] == oracles.hyper_cover_number(h)


def test_every_intermediate_length_witnessed():
    rng = random.Random(7)
    for _ in range(60):
        h = random_hypergraph(rng)
        low = edge_cover_number(h)[0]
        high = grundy_covering_number(h)[0]
        for length in range(low, high + 1):
            seq = covering_sequence_of_length(h, length)
            assert seq is not None and len(seq) == length
            assert is_complete_covering_sequence(h, seq)
        assert covering_sequence_of_length(h, low - 1) is None
        assert covering_sequence_of_length(h, high + 1) is None


def test_incidence_of_single_edge_is_a_path():
    h = Hypergraph.from_edge_lists(2, [[0, 1]])
    inc = incidence_graph(h)
    assert inc.n == 3
    assert sorted(inc.degree(v) for v in range(3)) == [1, 1, 2]


def test_incidence_degrees_of_three_edge_example():
    inc = incidence_graph(three_edge_h())
    assert inc.n == 5
    # ground side degrees then edge side degrees
    assert [inc.degree(v) for v in range(5)] == [2, 2, 1, 1, 2]
    assert bipartition(inc) is not None


def test_incidence_always_bipartite():
    rng = random.Random(8)
    for _ in range(40):
        inc = incidence_graph(random_hypergraph(rng))
        assert bipartition(inc) is not None


def test_incidence_doubling_on_example():
    inc = incidence_graph(three_edge_h())
    assert grundy_total_domination_number(inc)[0] == 4
    assert grundy_covering_number(three_edge_h())[0] == 2


def test_neighborhood_hypergraph_of_c4():
    h = open_neighborhood_hypergraph(cycle(4))
    got = sorted(sorted(h.edge_members(i)) for i in range(len(h.edges)))
    assert got == [[0, 2], [0, 2], [1, 3], [1, 3]]
    assert grundy_covering_number(h)[0] == 2 == grundy_total_domination_number(cycle(4))[0]


def test_neighborhood_hypergraph_of_p3():
    h = open_neighborhood_hypergraph(path(3))
    assert grundy_covering_number(h)[0] == 2 == grundy_total_domination_number(path(3))[0]


def test_neighborhood_incidence_graph_doubles_the_value(connected_upto_7):
    # Thm 8.3 on the open-neighbourhood hypergraph of G, whose incidence
    # graph is the bipartite double cover G x K2: vertex v is (v, 0), and the
    # hyperedge N(v) is (v, 1)
    for g in connected_upto_7:
        inc = incidence_graph(open_neighborhood_hypergraph(g))
        cover = {(u, g.n + v) for u, v in g.edges()} | {(v, g.n + u) for u, v in g.edges()}
        assert set(inc.edges()) == cover
        value = grundy_total_domination_number(g)[0]
        assert grundy_total_domination_number(inc)[0] == 2 * value, g


def test_neighborhood_hypergraph_rejects_isolated():
    from grundytd import Graph

    with pytest.raises((ParameterError, ValueError)):
        open_neighborhood_hypergraph(Graph.from_edges(3, [(0, 1)]))


def test_invalid_covering_witness_raises_invariant_violation(monkeypatch):
    # edge 2 covers both vertices, so edge 0 after it is not a legal move
    monkeypatch.setattr(engine, "max_cover_sequence", lambda masks, universe: (2, [2, 0]))
    with pytest.raises(InvariantViolation, match="covering certificate"):
        grundy_covering_number(three_edge_h())


def test_invalid_edge_cover_witness_raises_invariant_violation(monkeypatch):
    # edge 0 alone leaves vertex 1 uncovered
    monkeypatch.setattr(engine, "min_cover", lambda masks, universe: (1, [0]))
    with pytest.raises(InvariantViolation, match="edge cover certificate"):
        edge_cover_number(three_edge_h())


def test_invalid_fixed_length_witness_raises_invariant_violation(monkeypatch):
    # edge 2 covers both vertices, so edge 0 after it covers nothing new
    monkeypatch.setattr(engine, "sequence_of_length", lambda masks, universe, lengths: {2: [2, 0]})
    with pytest.raises(InvariantViolation, match="fixed-length covering certificate"):
        covering_sequence_of_length(three_edge_h(), 2)


def test_transversal_checker_matches_oracle_with_duplicate_edges():
    h = Hypergraph.from_edge_lists(4, [[0, 1], [0, 1], [1, 2], [3], [2, 3], [0, 1]])
    value, wit = grundy_transversal_number(h)
    assert (value, wit) == oracles.hyper_longest_transversal(h)
    for k in range(1, 5):
        for seq in permutations(range(4), k):
            got = (
                is_legal_transversal_sequence(h, seq),
                is_complete_transversal_sequence(h, seq),
            )
            assert got == oracles.hyper_transversal_status(h, seq), seq
