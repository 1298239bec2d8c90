import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from grundytd import (
    PreconditionError,
    SequenceError,
    check_legal,
    complete,
    cycle,
    greedy_extend,
    is_total_dominating_sequence,
    path,
    prune_to_closed,
    random_connected_graph,
)
import random


def test_p4_open_sequence_footprinters():
    # 0-1-2-3 played as (0, 3, 1, 2): ends footprint their unique neighbors,
    # then the middle pair footprint the ends
    rep = check_legal(path(4), (0, 3, 1, 2), "open")
    assert rep.legal and rep.complete
    assert rep.footprinter == (2, 0, 1, 3)
    assert rep.new_per_step == ((1,), (2,), (0,), (3,))


def test_k3_third_entry_illegal():
    rep = check_legal(complete(3), (0, 1, 2), "open")
    assert not rep.legal
    assert rep.first_violation == 2


def test_single_entry_always_legal():
    for g in (path(5), cycle(4), complete(6)):
        for v in range(g.n):
            assert check_legal(g, (v,), "open").legal
            assert check_legal(g, (v,), "closed").legal


def test_repeated_vertex_rejected():
    with pytest.raises(SequenceError):
        check_legal(path(4), (0, 0), "open")


def test_out_of_range_vertex_rejected():
    with pytest.raises(SequenceError):
        check_legal(path(4), (9,), "open")


def test_single_vertex_on_c6_not_total_dominating():
    g = cycle(6)
    assert check_legal(g, (0,), "open").legal
    assert not is_total_dominating_sequence(g, (0,))


def test_greedy_respects_prefix():
    res = greedy_extend(path(5), (1, 2))
    assert res.sequence == (1, 2, 3)
    assert res.complete


def test_greedy_stalls_without_a_vertex_touching_the_dominated_ones():
    # (2,) dominates 1 and 3; no new vertex is adjacent to both a dominated
    # and an undominated one, so the extension reports incomplete
    res = greedy_extend(path(5), (2,))
    assert res.sequence == (2,) and not res.complete


def test_greedy_rejects_illegal_prefix():
    with pytest.raises(PreconditionError):
        greedy_extend(complete(3), (0, 1, 2))


def test_prune_p4_sequence_closed_legal():
    g = path(4)
    pruned = prune_to_closed(g, (0, 3, 1, 2))
    assert len(pruned) >= 2
    assert check_legal(g, pruned, "closed").legal


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
    for mode in ("open", "closed"):
        rep = check_legal(g, seq, mode)
        assert rep.legal == oracles.is_legal_sequence(g, seq, mode)
        if rep.legal:
            assert rep.complete == oracles.is_complete_sequence(g, seq, mode)


@settings(max_examples=60, deadline=None)
@given(st.integers(min_value=2, max_value=8), st.randoms(use_true_random=False))
def test_legal_prefixes_stay_legal(n, pyrandom):
    rng = random.Random(pyrandom.getrandbits(32))
    g = random_connected_graph(n, 0.5, rng)
    res = greedy_extend(g, (0,))
    for k in range(1, len(res.sequence) + 1):
        assert check_legal(g, res.sequence[:k], "open").legal


@settings(max_examples=60, deadline=None)
@given(st.integers(min_value=2, max_value=8), st.randoms(use_true_random=False))
def test_pruned_sequences_closed_legal(n, pyrandom):
    rng = random.Random(pyrandom.getrandbits(32))
    g = random_connected_graph(n, 0.4, rng)
    _, seq = oracles.longest_sequence(g, "open")
    pruned = prune_to_closed(g, seq)
    assert check_legal(g, pruned, "closed").legal
