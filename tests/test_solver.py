import gc
import json
import os
import platform
import random
import subprocess
import sys
from pathlib import Path

import pytest

import oracles
from grundytd import (
    CapacityError,
    DomainError,
    Graph,
    InvariantViolation,
    build_family,
    complete,
    compute_report,
    cycle,
    engine,
    game_total_domination_number,
    grundy_domination_number,
    grundy_total_domination_number,
    interpolation_witnesses,
    is_minimal_total_dominating_set,
    is_total_dominating_sequence,
    is_total_dominating_set,
    path,
    random_connected_graph,
    semistrong_matching_number,
    solver,
    star,
    strong_matching_number,
    total_dominating_sequence_of_length,
    total_domination_number,
    upper_total_domination_number,
)


def test_p4_closed_value():
    assert grundy_domination_number(path(4))[0] == 3


def test_p4_upper_total_domination():
    assert upper_total_domination_number(path(4))[0] == 2


def test_c6_total_domination():
    value, witness = total_domination_number(cycle(6))
    assert value == 4
    assert is_total_dominating_set(cycle(6), witness)


def test_k2_game_needs_both_vertices():
    assert game_total_domination_number(path(2))[0] == 2


def test_c6_game_forced_to_four():
    assert game_total_domination_number(cycle(6))[0] == 4


def test_p4_matching_numbers():
    assert strong_matching_number(path(4))[0] == 1
    assert semistrong_matching_number(path(4))[0] == 2
    assert grundy_total_domination_number(path(4))[0] == 4


def test_two_disjoint_edges_strong_matching():
    g = Graph.from_edges(4, [(0, 1), (2, 3)])
    assert strong_matching_number(g)[0] == 2


def _interpolation(g):
    return interpolation_witnesses(g, compute_report(g, ("gamma_t", "gamma_grt")))


def test_p5_interpolation_lengths():
    wits = _interpolation(path(5))
    assert sorted(wits) == [3, 4]
    for length, seq in wits.items():
        assert len(seq) == length
        assert is_total_dominating_sequence(path(5), seq)


def test_c6_interpolation_single_length():
    assert sorted(_interpolation(cycle(6))) == [4]


def test_interpolation_witnesses_are_the_single_length_witnesses(connected_upto_6):
    for g in connected_upto_6:
        rep = compute_report(g, ("gamma_t", "gamma_grt"))
        wits = interpolation_witnesses(g, rep)
        assert list(wits) == list(range(rep.value("gamma_t"), rep.value("gamma_grt") + 1))
        for length, seq in wits.items():
            assert seq == total_dominating_sequence_of_length(g, length), g


def test_sequence_of_exact_length():
    seq = total_dominating_sequence_of_length(path(5), 3)
    assert len(seq) == 3
    assert is_total_dominating_sequence(path(5), seq)


def test_sequence_of_unattainable_length():
    assert total_dominating_sequence_of_length(cycle(6), 5) is None
    assert total_dominating_sequence_of_length(cycle(6), 3) is None


def test_isolated_vertex_rejected():
    g = Graph.from_edges(3, [(0, 1)])
    with pytest.raises(DomainError):
        total_domination_number(g)


def test_invalid_witness_raises_invariant_violation(monkeypatch):
    # {0} dominates only the two neighbours of vertex 0 in C6
    monkeypatch.setattr(engine, "min_cover", lambda masks, universe: (1, [0]))
    with pytest.raises(InvariantViolation, match="gamma_t"):
        total_domination_number(cycle(6))


def test_cap_blocks_oversized_input():
    g = complete(30)
    with pytest.raises(CapacityError):
        grundy_total_domination_number(g)
    assert grundy_total_domination_number(g, cap=30)[0] == 2
    # 2^29980 has 9,025 digits, more than int-to-str conversion allows
    with pytest.raises(CapacityError, match=r"\(~2\^29980 MiB\)"):
        solver.ensure_capacity(30000)


def test_explicit_cap_argument_wins():
    with pytest.raises(CapacityError):
        grundy_total_domination_number(path(10), cap=5)


def test_witnesses_are_deterministic():
    g = cycle(7)
    a = grundy_total_domination_number(g)
    b = grundy_total_domination_number(g)
    assert a == b


def test_minimal_total_dominating_set_predicate():
    g = cycle(6)
    assert is_minimal_total_dominating_set(g, (0, 1, 3, 4))
    assert not is_minimal_total_dominating_set(g, (0, 1, 2, 3, 4))


def test_report_values_and_json_roundtrip():
    g = build_family("petersen")
    rep = compute_report(g)
    values = {k: r.value for k, r in rep.results.items()}
    assert values == {
        "gamma_t": 4,
        "Gamma_t": 6,
        "gamma_tg": 5,
        "gamma_grt": 6,
        "gamma_gr": 5,
        "nu_s": 3,
        "nu_ss": 3,
    }
    blob = json.dumps(rep.to_json_dict())
    parsed = json.loads(blob)
    assert parsed["n"] == 10
    assert parsed["invariants"]["gamma_grt"]["value"] == 6
    assert all(r.micros >= 0 for r in rep.results.values())


def test_report_frees_search_tables_on_large_graphs():
    # a finished search's memo table must not wait for the next full collection
    gc.collect()
    compute_report(path(16))
    assert gc.collect() == 0


_PEAK_OF_GAMES = """
import random, sys
from grundytd import compute_report, cycle, path, Graph
perm = list(range(20))
random.Random(int(sys.argv[1])).shuffle(perm)
for family in sys.argv[2:]:
    g = {"path": path, "cycle": cycle}[family](20)
    g = Graph.from_edges(20, [(perm[u], perm[v]) for u, v in g.edges()])
    compute_report(g, keys=["gamma_tg"])
# VmHWM, unlike ru_maxrss, does not start from the peak of the process that spawned us
print(next(line.split()[1] for line in open("/proc/self/status") if line.startswith("VmHWM:")))
"""


@pytest.mark.slow
@pytest.mark.skipif(platform.libc_ver()[0] != "glibc", reason="peak memory depends on glibc")
def test_report_reuses_memory_of_a_finished_search():
    # a search that follows a freed one must fit in the memory it left: the
    # peak of both in one process stays within 512 KB of the larger alone
    src = str(Path(compute_report.__code__.co_filename).parents[1])
    env = dict(os.environ, PYTHONPATH=src, PYTHONHASHSEED="0")

    def peak_kb(seed, *families):
        argv = [sys.executable, "-c", _PEAK_OF_GAMES, str(seed), *families]
        return int(subprocess.run(argv, env=env, capture_output=True, text=True,
                                  check=True).stdout)

    excess_kb = {}
    for seed in range(6):
        alone = max(peak_kb(seed, "path"), peak_kb(seed, "cycle"))
        excess_kb[seed] = peak_kb(seed, "path", "cycle") - alone
    assert max(excess_kb.values()) < 512, excess_kb


def test_report_subset_of_keys():
    rep = compute_report(path(6), keys=["gamma_t", "gamma_grt"])
    assert sorted(rep.results) == ["gamma_grt", "gamma_t"]


def test_named_fixture_values():
    fixtures = {
        "complete:5": {"gamma_grt": 2, "gamma_gr": 1},
        "complete:8": {"gamma_grt": 2, "gamma_gr": 1},
        "star:8": {"gamma_grt": 2, "gamma_gr": 8},
        "spider:3": {"gamma_tg": 2, "gamma_grt": 6},
        "gm:4": {"gamma_t": 4, "gamma_grt": 4},
        "gm:3": {"gamma_grt": 4},
        "k_kk:5": {"gamma_grt": 2},
        "gk:2": {"gamma_grt": 4},
        "gk:3": {"gamma_grt": 6},
    }
    for spec, want in fixtures.items():
        rep = compute_report(build_family(spec), keys=list(want))
        got = {k: r.value for k, r in rep.results.items()}
        assert got == want, spec


def test_solver_matches_subset_sweep_oracle(connected_upto_6):
    for g in connected_upto_6:
        assert total_domination_number(g)[0] == oracles.total_domination_number(g)
        assert upper_total_domination_number(g)[0] == oracles.upper_total_domination(g)


def test_sequence_witnesses_match_exhaustive_oracle(connected_upto_6):
    # the lexicographically first longest sequence, found with no memo at all
    for g in connected_upto_6:
        assert grundy_total_domination_number(g) == oracles.longest_sequence(g, "open")
        assert grundy_domination_number(g) == oracles.longest_sequence(g, "closed")


def test_longest_sequence_of_a_disjoint_union_is_the_sum():
    # a legal sequence of G + H interleaves one of G with one of H, so the
    # longest has gamma_grt(G) + gamma_grt(H) entries; the union's vertices
    # are shuffled so that the two graphs interleave in vertex order
    rng = random.Random(2016)
    for _ in range(100):
        g = random_connected_graph(rng.randint(2, 7), rng.random(), rng)
        h = random_connected_graph(rng.randint(2, 7), rng.random(), rng)
        perm = list(range(g.n + h.n))
        rng.shuffle(perm)
        edges = [(perm[u], perm[v]) for u, v in g.edges()]
        edges += [(perm[g.n + u], perm[g.n + v]) for u, v in h.edges()]
        union = Graph.from_edges(g.n + h.n, edges)
        value, seq = grundy_total_domination_number(union)
        parts = grundy_total_domination_number(g)[0] + grundy_total_domination_number(h)[0]
        assert value == parts, edges
        assert len(seq) == value and is_total_dominating_sequence(union, seq)


def test_game_line_matches_bare_minimax(connected_upto_6):
    for g in connected_upto_6:
        assert game_total_domination_number(g) == oracles.game_line(g)


def _matchings(g):
    strong, semistrong = strong_matching_number(g), semistrong_matching_number(g)
    return strong[0], list(strong[1]), semistrong[0], list(semistrong[1])


def _oracle_matchings(g):
    return (*oracles.max_special_matching(g, False), *oracles.max_special_matching(g, True))


def test_matchings_match_unpruned_oracle(connected_upto_7):
    # value and witness: the first maximum matching in edge order
    for g in connected_upto_7:
        assert _matchings(g) == _oracle_matchings(g), g.edges()


def test_semistrong_matching_number_is_half_the_largest_vertex_set(connected_upto_7):
    # the oracle tests vertex subsets against the induced-degree
    # characterization; it searches no matching at all
    for g in connected_upto_7:
        largest = max(len(s) for s in oracles.semistrong_vertex_sets(g))
        assert 2 * semistrong_matching_number(g)[0] == largest, g.edges()


def test_matchings_match_unpruned_oracle_on_random_graphs():
    rng = random.Random(1989)
    for _ in range(300):
        n = rng.randint(2, 12)
        density = rng.random()
        pairs = [(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < density]
        g = Graph.from_edges(n, pairs)
        assert _matchings(g) == _oracle_matchings(g), pairs


def test_strong_matching_is_independence_in_square_of_line_graph(connected_upto_6):
    for g in connected_upto_6:
        assert strong_matching_number(g)[0] == oracles.line_graph_square_independence(g)


# Game total domination on paths and cycles (Dorbec and Henning, "Game total
# domination for cycles and paths", Discrete Appl. Math. 2016).  The cycle
# formula is the paper's as recalled.  The path formula was fitted to this
# solver's own values, so until it is checked against the paper it only
# guards against regressions.
def _gamma_tg_cycle(n):
    return (2 * n + 1) // 3 - (n % 6 == 4)


def _gamma_tg_path(n):
    return -(-2 * n // 3) - (n % 6 == 5)


def _check_gamma_tg_formulas(orders):
    for n in orders:
        assert game_total_domination_number(path(n))[0] == _gamma_tg_path(n), n
        if n >= 3:
            assert game_total_domination_number(cycle(n))[0] == _gamma_tg_cycle(n), n


def test_game_value_on_paths_and_cycles_follows_closed_formulas():
    _check_gamma_tg_formulas(range(2, 21))


@pytest.mark.slow
def test_game_value_on_paths_and_cycles_follows_closed_formulas_to_the_cap():
    _check_gamma_tg_formulas(range(21, 25))
