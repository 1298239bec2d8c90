"""Acceptance gate: one test per criterion, printing one PASS/FAIL line each.

Criterion 3 runs twice: a fast tier over orders up to 7 and a slow-marked
full tier over order 8.  Runtime ceilings are asserted where the contract
pins them (5 s, 60 s / 600 s, 120 s, 180 s).
"""

import random
import time
from fractions import Fraction

import pytest

import oracles
from conftest import corpus, cubic_corpus
from grundytd import (
    bipartition,
    build_family,
    bound_report,
    complete,
    compute_report,
    covering_sequence_of_length,
    edge_cover_number,
    find_pair_labeling,
    game_total_domination_number,
    grundy_covering_number,
    grundy_domination_number,
    grundy_total_domination_number,
    grundy_transversal_number,
    incidence_graph,
    interpolation_witnesses,
    is_complete_multipartite,
    is_in_family_t,
    is_total_dominating_sequence,
    k_kk,
    open_neighborhood_hypergraph,
    path,
    petersen,
    random_hypergraph,
    random_tree,
    regular_greedy_sequence,
    star,
    total_domination_number,
    transversal_to_covering,
    covering_to_transversal,
    tree_bound_report,
    tree_matching_sequence,
    tree_perfect_matching,
    spider,
    subset_bipartite,
    gm_graph,
    cycle,
)
from grundytd.hypergraph import (
    is_complete_covering_sequence,
    is_complete_transversal_sequence,
    is_legal_covering_sequence,
    is_legal_transversal_sequence,
)
from grundytd.theorems import is_balanced_complete_bipartite


def announce(num, label, ok):
    print(f"ACCEPTANCE {num} ({label}): {'PASS' if ok else 'FAIL'}")
    assert ok, f"criterion {num} failed: {label}"


def test_criterion_1_path_cycle_formulas():
    t0 = time.time()
    ok = True
    for n in range(2, 15):
        want = n if n % 2 == 0 else n - 1
        ok &= grundy_total_domination_number(path(n))[0] == want
    for n in range(3, 15):
        want = n - 1 if n % 2 == 1 else n - 2
        ok &= grundy_total_domination_number(cycle(n))[0] == want
    elapsed = time.time() - t0
    ok &= elapsed < 5.0
    announce(1, f"path/cycle formulas to order 14 in {elapsed:.2f}s", ok)


def test_criterion_2_named_fixtures():
    ok = True
    for n in range(2, 9):
        g = complete(n)
        ok &= grundy_total_domination_number(g)[0] == 2
        ok &= grundy_domination_number(g)[0] == 1
    for n in range(1, 9):
        g = star(n)
        ok &= grundy_total_domination_number(g)[0] == 2
        ok &= grundy_domination_number(g)[0] == n
    for k in range(2, 5):
        g = spider(k)
        ok &= game_total_domination_number(g)[0] == 2
        ok &= grundy_total_domination_number(g)[0] == g.n - 1
    g4 = gm_graph(4)
    ok &= total_domination_number(g4)[0] == 4
    ok &= grundy_total_domination_number(g4)[0] == 4
    ok &= grundy_total_domination_number(gm_graph(3))[0] == 4
    for k in range(1, 6):
        ok &= grundy_total_domination_number(k_kk(k))[0] == 2
    for k in (2, 3):
        ok &= grundy_total_domination_number(subset_bipartite(k))[0] == 2 * k
    announce(2, "named fixture values", ok)


def _chain_and_bounds(graphs):
    for g in graphs:
        rep = bound_report(g, compute_report(g))
        if rep.violations:
            return False, f"n={g.n} adj={g.adj}: {rep.violations}"
    return True, ""


def test_criterion_3_chain_and_bounds_ci_tier():
    t0 = time.time()
    graphs = [g for n in range(2, 8) for g in corpus(n)]
    ok, detail = _chain_and_bounds(graphs)
    elapsed = time.time() - t0
    ok &= elapsed < 60.0
    announce(3, f"chain and bounds, {len(graphs)} graphs to order 7 in {elapsed:.1f}s", ok)
    assert not detail, detail


@pytest.mark.slow
def test_criterion_3_chain_and_bounds_full_tier():
    t0 = time.time()
    graphs = list(corpus(8))
    ok, detail = _chain_and_bounds(graphs)
    elapsed = time.time() - t0
    ok &= elapsed < 600.0
    announce(3, f"chain and bounds, {len(graphs)} graphs of order 8 in {elapsed:.1f}s", ok)
    assert not detail, detail


def _characterizations(graphs):
    for g in graphs:
        value = grundy_total_domination_number(g)[0]
        labeled = find_pair_labeling(g) is not None
        if labeled != (value == g.n):
            return False, f"labeling mismatch on adj={g.adj}"
        if is_complete_multipartite(g) != (value == 2):
            return False, f"multipartite mismatch on adj={g.adj}"
        k = g.min_degree()
        if g.max_degree() == k:
            hits_floor = Fraction(value) == Fraction(g.n, k)
            is_balanced = g.n == 2 * k and bipartition(g) is not None and value == 2
            if hits_floor != is_balanced:
                return False, f"degree-floor mismatch on adj={g.adj}"
    return True, ""


def test_criterion_4_characterizations_ci_tier():
    graphs = [g for n in range(2, 8) for g in corpus(n)]
    ok, detail = _characterizations(graphs)
    announce(4, f"characterizations on {len(graphs)} graphs to order 7", ok)
    assert not detail, detail


@pytest.mark.slow
def test_criterion_4_characterizations_full_tier():
    graphs = list(corpus(8))
    ok, detail = _characterizations(graphs)
    announce(4, f"characterizations on {len(graphs)} graphs of order 8", ok)
    assert not detail, detail


def test_criterion_5_random_trees():
    t0 = time.time()
    rng = random.Random(2024)
    ok = True
    for n in (10, 12, 14):
        for _ in range(500):
            t = random_tree(n, rng)
            value = grundy_total_domination_number(t)[0]
            ok &= value == n - oracles.skew_zero_forcing_number(t)
            ok &= grundy_domination_number(t)[0] == n - oracles.loop_zero_forcing_number(t)
            matching = tree_perfect_matching(t)
            ok &= (value == n) == (matching is not None)
            if matching is not None:
                seq = tree_matching_sequence(t)
                ok &= len(seq) == n and is_total_dominating_sequence(t, seq)
            rep = tree_bound_report(t, compute_report(t, ("gamma_grt",)))
            if rep.applicable:
                ok &= Fraction(value) >= rep.bound
                member = is_in_family_t(t) is not None
                ok &= (Fraction(value) == rep.bound) == member
    elapsed = time.time() - t0
    ok &= elapsed < 120.0
    announce(5, f"1500 random trees at orders 10/12/14 in {elapsed:.1f}s", ok)


def test_criterion_6_regular_construction():
    ok = True
    items = [g for n in (4, 6, 8, 10, 12) for g in cubic_corpus(n)]
    items.append(petersen())
    tested = 0
    for g in items:
        if is_balanced_complete_bipartite(g, 3):
            continue  # the excluded K3,3
        res = regular_greedy_sequence(g)
        tested += 1
        ok &= res.meets_bound
        ok &= is_total_dominating_sequence(g, res.sequence)
        ok &= len(res.sequence) >= Fraction(g.n, 2)
        ok &= grundy_total_domination_number(g)[0] >= Fraction(g.n, 2)
    announce(6, f"greedy construction on {tested} cubic graphs to order 12", ok)


def test_criterion_7_hypergraph_suite():
    t0 = time.time()
    rng = random.Random(77)
    ok = True
    for _ in range(200):
        h = random_hypergraph(rng)
        rho_gr, cov = grundy_covering_number(h)
        tau_gr, tr = grundy_transversal_number(h)
        ok &= rho_gr == tau_gr
        back = transversal_to_covering(h, tr)
        ok &= len(back) == tau_gr
        ok &= is_legal_covering_sequence(h, back) and is_complete_covering_sequence(h, back)
        forth = covering_to_transversal(h, cov)
        ok &= len(forth) == rho_gr
        ok &= is_legal_transversal_sequence(h, forth) and is_complete_transversal_sequence(h, forth)
        inc = incidence_graph(h)
        ok &= grundy_total_domination_number(inc)[0] == 2 * rho_gr
    for n in range(2, 8):
        for g in corpus(n):
            h = open_neighborhood_hypergraph(g)
            ok &= grundy_covering_number(h)[0] == grundy_total_domination_number(g)[0]
    elapsed = time.time() - t0
    ok &= elapsed < 180.0
    announce(7, f"200 hypergraphs plus neighborhood correspondence in {elapsed:.1f}s", ok)


def test_criterion_8_interpolation():
    ok = True
    for n in range(2, 8):
        for g in corpus(n):
            low = total_domination_number(g)[0]
            high = grundy_total_domination_number(g)[0]
            wits = interpolation_witnesses(g, compute_report(g, ("gamma_t", "gamma_grt")))
            ok &= sorted(wits) == list(range(low, high + 1))
            for length, seq in wits.items():
                ok &= len(seq) == length and is_total_dominating_sequence(g, seq)
    rng = random.Random(78)
    for _ in range(200):
        h = random_hypergraph(rng)
        low = edge_cover_number(h)[0]
        high = grundy_covering_number(h)[0]
        for length in range(low, high + 1):
            seq = covering_sequence_of_length(h, length)
            ok &= seq is not None and len(seq) == length
            ok &= is_complete_covering_sequence(h, seq)
    announce(8, "interpolation has no gaps", ok)


def test_criterion_9_oracle_equivalence():
    ok = True
    for n in range(2, 8):
        for g in corpus(n):
            value = grundy_total_domination_number(g)[0]
            ok &= value == oracles.longest_sequence(g, "open")[0]
            ok &= value == n - oracles.skew_zero_forcing_number(g)
            closed = grundy_domination_number(g)[0]
            ok &= closed == oracles.longest_sequence(g, "closed")[0]
            ok &= closed == n - oracles.loop_zero_forcing_number(g)
            ok &= game_total_domination_number(g)[0] == oracles.game_value(g)
    announce(9, "memoized solvers match exhaustive DFS, n - Z₋ and n - Z_ℓ to order 7", ok)
