import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from grundytd import (
    PreconditionError,
    SequenceError,
    check_cover_sequence,
    complete,
    cycle,
    is_total_dominating_sequence,
    path,
    prune_to_closed,
    random_connected_graph,
)
from grundytd.sequences import is_strong_matching
from grundytd.theorems import _greedy_sequence
import random


def open_report(g, seq):
    return check_cover_sequence(g.adj, g.full_mask, seq)


def closed_report(g, seq):
    return check_cover_sequence(g.closed_masks(), g.full_mask, seq)


def test_p4_open_sequence_footprints():
    # 0-1-2-3 played as (0, 3, 1, 2): ends footprint their unique neighbors,
    # then the middle pair footprint the ends
    rep = open_report(path(4), (0, 3, 1, 2))
    assert rep.legal and rep.complete
    assert rep.footprints == (0b0010, 0b0100, 0b0001, 0b1000)


def test_k3_third_entry_illegal():
    rep = open_report(complete(3), (0, 1, 2))
    assert not rep.legal
    assert len(rep.footprints) == 2  # the position of the first illegal entry


def test_single_entry_always_legal():
    for g in (path(5), cycle(4), complete(6)):
        for v in range(g.n):
            assert open_report(g, (v,)).legal
            assert closed_report(g, (v,)).legal


def test_repeated_vertex_rejected():
    with pytest.raises(SequenceError):
        open_report(path(4), (0, 0))


def test_out_of_range_vertex_rejected():
    with pytest.raises(SequenceError):
        open_report(path(4), (9,))


def test_single_vertex_on_c6_not_total_dominating():
    g = cycle(6)
    assert open_report(g, (0,)).legal
    assert not is_total_dominating_sequence(g, (0,))


def test_greedy_respects_prefix():
    g = path(5)
    assert _greedy_sequence(g, (1, 2), g.full_mask, g.full_mask) == [1, 2, 3]


def test_greedy_stalls_without_a_vertex_touching_the_dominated_ones():
    # (1, 3) dominates 0, 2 and 4; no new vertex is adjacent to both a
    # dominated and an undominated one, so the extension stalls
    g = path(5)
    assert _greedy_sequence(g, (1, 3), g.full_mask, g.full_mask) is None


def test_prune_p4_sequence_closed_legal():
    g = path(4)
    pruned = prune_to_closed(g, (0, 3, 1, 2))
    assert len(pruned) >= 2
    assert closed_report(g, pruned).legal


def test_prune_identity_when_nothing_removable():
    g = cycle(6)
    seq = (0, 1, 2, 3)
    assert is_total_dominating_sequence(g, seq)
    assert list(prune_to_closed(g, seq)) == list(seq)


def test_prune_rejects_incomplete_input():
    with pytest.raises(PreconditionError):
        prune_to_closed(path(4), (0, 2))


@settings(max_examples=60, deadline=None)
@given(st.integers(min_value=2, max_value=8), st.randoms(use_true_random=False))
def test_legality_matches_set_oracle(n, pyrandom):
    rng = random.Random(pyrandom.getrandbits(32))
    g = random_connected_graph(n, 0.4, rng)
    seq = list(range(n))
    rng.shuffle(seq)
    seq = seq[: rng.randint(1, n)]
    for mode, check in (("open", open_report), ("closed", closed_report)):
        rep = check(g, seq)
        assert rep.legal == oracles.is_legal_sequence(g, seq, mode)
        if rep.legal:
            assert rep.complete == oracles.is_complete_sequence(g, seq, mode)


@settings(max_examples=60, deadline=None)
@given(st.integers(min_value=2, max_value=8), st.randoms(use_true_random=False))
def test_legal_prefixes_stay_legal(n, pyrandom):
    rng = random.Random(pyrandom.getrandbits(32))
    g = random_connected_graph(n, 0.5, rng)
    # 0 and the lowest vertex with a neighbour outside N(0) form a legal seed
    v = min(v for v in range(1, n) if g.adj[v] & ~g.adj[0])
    seq = _greedy_sequence(g, (0, v), g.full_mask, g.full_mask)
    for k in range(1, len(seq or ()) + 1):
        assert open_report(g, seq[:k]).legal
    assert seq is None or is_total_dominating_sequence(g, seq)


@settings(max_examples=60, deadline=None)
@given(st.integers(min_value=2, max_value=8), st.randoms(use_true_random=False))
def test_pruned_sequences_closed_legal(n, pyrandom):
    rng = random.Random(pyrandom.getrandbits(32))
    g = random_connected_graph(n, 0.4, rng)
    _, seq = oracles.longest_sequence(g, "open")
    pruned = prune_to_closed(g, seq)
    assert closed_report(g, pruned).legal


def test_strong_and_semistrong_matchings_of_a_path():
    p4 = path(4)  # 0-1-2-3
    assert is_strong_matching(p4, [(1, 2)], False)
    # 1 and 2 are adjacent, so each edge has one end with two matched neighbors
    assert not is_strong_matching(p4, [(0, 1), (2, 3)], False)
    assert is_strong_matching(p4, [(0, 1), (2, 3)], True)
    assert not is_strong_matching(p4, [(0, 2)], True)  # not an edge
    assert not is_strong_matching(p4, [(0, 1), (1, 2)], True)  # shares 1
    assert not is_strong_matching(path(6), [(0, 1), (2, 3), (4, 5)], True)
