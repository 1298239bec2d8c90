import dataclasses
import json
import random

import pytest

from grundytd import (
    Graph,
    checks,
    cli,
    connected_cubic_graphs,
    connected_graphs,
    engine,
    graph_to_graph6,
    petersen,
    random_hypergraph,
    random_tree,
    solver,
    theorems,
)
from grundytd.checks import REGISTRY, SUITES, TOKENS, run_checks


def small_graphs():
    return [g for n in range(2, 6) for g in connected_graphs(n)]


def small_trees():
    rng = random.Random(14)
    return [random_tree(rng.randint(2, 10), rng) for _ in range(40)]


def small_regular():
    return connected_cubic_graphs(6) + connected_cubic_graphs(8) + [petersen()]


def small_hypergraphs():
    rng = random.Random(15)
    return [random_hypergraph(rng) for _ in range(40)]


ITEMS = {
    "graphs": small_graphs,
    "trees": small_trees,
    "regular": small_regular,
    "hypergraphs": small_hypergraphs,
}


def test_every_registered_check_passes_its_corpus():
    for name, check in REGISTRY.items():
        [result] = run_checks([name], ITEMS[check.kind](), check.kind)
        assert result.passed, (name, result.counterexamples[:3])
        assert result.tested > 0
        assert result.name == name


def test_suites_cover_registry():
    in_suites = {name for names in SUITES.values() for name in names}
    assert in_suites == set(REGISTRY)


def test_suite_kinds_are_consistent():
    kind_of = {"graphs": "graphs", "trees": "trees", "regular": "regular", "hypergraphs": "hypergraphs"}
    for suite, names in SUITES.items():
        for name in names:
            assert REGISTRY[name].kind == kind_of[suite]


def test_token_aliases_resolve():
    for token, target in TOKENS.items():
        assert target in REGISTRY
    # short labels from the verification interface all resolve
    for tok in ("thm3.2", "thm4.2", "thm4.4", "thm5.1", "thm5.4", "thm6.2", "thm7.2", "prop8.2", "thm8.3", "cor8.1"):
        assert tok in TOKENS


def test_counterexamples_reference_inputs():
    # feed the multipartite check a corpus that cannot fail and confirm the
    # bookkeeping fields rather than fabricating a failing case
    [result] = run_checks(["value-two-multipartite"], small_graphs(), "graphs")
    assert result.passed and result.counterexamples == ()


def test_isolated_vertex_graphs_are_skipped():
    from grundytd import Graph

    lonely = Graph.from_edges(3, [(0, 1)])
    [result] = run_checks(["bound-chain"], [lonely], "graphs")
    assert result.tested == 0


# ---------- sweeps through the one runner ----------


def _sweep_json(capsys, argv):
    code = cli.main(["sweep", *argv, "--json"])
    doc = json.loads(capsys.readouterr().out)
    assert code == 0 and doc["passed"]
    return {r["check"]: r["tested"] for r in doc["results"]}


# tested counts measured before the checkers ran one instance at a time
@pytest.mark.parametrize(
    "argv, tested",
    [
        (["connected:6"], dict.fromkeys(SUITES["graphs"], 142)),
        (
            ["trees:12:100", "--suite", "trees", "--seed", "3"],
            {"tree-matching-order": 100, "tree-lower-bound": 37},
        ),
        (["cubic:10", "--suite", "regular"], {"regular-construction": 26}),
        (["hyper:100", "--seed", "4"], dict.fromkeys(SUITES["hypergraphs"], 100)),
    ],
)
def test_sweep_tested_counts(capsys, argv, tested):
    assert _sweep_json(capsys, argv) == tested


def test_sweep_skips_graphs_with_an_isolated_vertex(capsys, tmp_path):
    lonely = [Graph.from_edges(3, [(0, 1)]), Graph.from_edges(4, [(0, 1), (2, 3)])]
    source = tmp_path / "mixed.g6"
    source.write_text("\n".join(graph_to_graph6(g) for g in lonely + [petersen()]))
    assert _sweep_json(capsys, [f"g6:{source}"]) == dict.fromkeys(SUITES["graphs"], 2)


def _count_calls(monkeypatch, module, *names):
    calls = {name: [] for name in names}

    def count(name):
        real = getattr(module, name)
        monkeypatch.setattr(
            module, name, lambda *a, **k: calls[name].append(a[0]) or real(*a, **k)
        )

    for name in names:
        count(name)
    return calls


def test_sweep_computes_one_report_per_tested_graph(capsys, monkeypatch):
    reports = _count_calls(monkeypatch, solver, "compute_report")["compute_report"]
    kernels = _count_calls(monkeypatch, engine, "max_cover_sequence", "min_cover")
    tested = _sweep_json(capsys, ["connected:5"])
    assert set(tested.values()) == {30}
    assert len(reports) == 30 and len(set(reports)) == 30
    # per graph: gamma_t, gamma_grt and gamma_gr in the shared report, then
    # one search on the neighbourhood hypergraph; nothing is solved twice
    assert len(kernels["max_cover_sequence"]) == 3 * 30
    assert len(kernels["min_cover"]) == 30


def test_tree_sweep_solves_each_tree_once(capsys, monkeypatch):
    calls = _count_calls(monkeypatch, engine, "max_cover_sequence")
    tested = _sweep_json(capsys, ["trees:9:40", "--suite", "trees", "--seed", "5"])
    assert tested["tree-matching-order"] == 40
    assert len(calls["max_cover_sequence"]) == 40


def test_tree_lower_bound_solves_only_the_trees_it_covers(capsys, monkeypatch):
    # trees with a strong support vertex lie outside Thm 5.4: no report for them
    reports = _count_calls(monkeypatch, solver, "compute_report")["compute_report"]
    tested = _sweep_json(capsys, ["trees:12:200", "--seed", "3", "--checks", "thm5.4"])
    assert tested == {"tree-lower-bound": 72}
    assert len(reports) == 72


def test_runner_calls_a_checker_only_on_instances_it_covers(monkeypatch):
    seen = []
    d = REGISTRY["tree-lower-bound"]

    def run(t, rep, cap=None):
        seen.append(t)
        return d.run(t, rep, cap)

    monkeypatch.setitem(REGISTRY, d.name, dataclasses.replace(d, run=run))
    trees = small_trees()
    (res,) = run_checks([d.name], trees, "trees")
    covered = [t for t in trees if d.applies(t)]
    assert seen == covered and 0 < res.tested == len(covered) < len(trees)


def test_hypergraph_sweep_solves_each_invariant_once(capsys, monkeypatch):
    calls = _count_calls(monkeypatch, engine, "max_cover_sequence", "min_cover")
    assert _sweep_json(capsys, ["hyper:40", "--seed", "6"]) == dict.fromkeys(
        SUITES["hypergraphs"], 40
    )
    # rho_gr, tau_gr and the incidence graph's gamma_grt; rho once
    assert len(calls["max_cover_sequence"]) == 3 * 40
    assert len(calls["min_cover"]) == 40


def test_regular_sweep_calls_no_invariant_solver(capsys, monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("an invariant solver ran")

    monkeypatch.setattr(solver, "compute_report", refuse)
    # the checker and the construction read connectivity, degrees and the
    # bipartition directly
    for module in (checks, theorems):
        monkeypatch.setattr(module, "structural_report", refuse, raising=False)
    # every invariant solver runs one of these search kernels
    for kernel in (
        "min_cover",
        "max_minimal_cover",
        "game_cover_value",
        "max_cover_sequence",
        "sequence_of_length",
        "max_matching",
    ):
        monkeypatch.setattr(engine, kernel, refuse)
    assert _sweep_json(capsys, ["cubic:10", "--suite", "regular"]) == {
        "regular-construction": 26
    }
