import json
import os
import resource
import subprocess
import sys
from pathlib import Path

import pytest

from grundytd import checks, engine, graph_from_graph6, hypergraph_from_text, path, graph_to_graph6
from grundytd.cli import main
from grundytd.theorems import MAX_FAMILY_T_ORDER


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_compute_family_plain(capsys):
    code, out, _ = run(capsys, "compute", "--family", "path:7", "--invariant", "grt")
    assert code == 0
    assert "gamma_grt" in out and "6" in out


def test_compute_family_json(capsys):
    code, out, _ = run(capsys, "compute", "--family", "cycle:6", "--all", "--json")
    assert code == 0
    blob = json.loads(out)
    inv = blob["reports"][0]["invariants"]
    assert inv["gamma_t"]["value"] == 4
    assert inv["gamma_grt"]["value"] == 4
    seq = inv["gamma_grt"]["witness"]
    assert len(seq) == 4


def test_compute_graph_file(tmp_path, capsys):
    f = tmp_path / "g.g6"
    f.write_text(graph_to_graph6(path(4)) + "\n")
    code, out, _ = run(capsys, "compute", "--graph", str(f), "--invariant", "grt,gr")
    assert code == 0
    assert "gamma_grt" in out and "gamma_gr" in out


def test_compute_edge_list_format(tmp_path, capsys):
    f = tmp_path / "g.txt"
    f.write_text("4 3\n0 1\n1 2\n2 3\n")
    code, out, _ = run(capsys, "compute", "--graph", str(f), "--format", "edges", "--invariant", "gt")
    assert code == 0
    assert "gamma_t" in out


def test_compute_hypergraph(tmp_path, capsys):
    f = tmp_path / "h.txt"
    f.write_text("2 3\n0\n1\n0 1\n")
    code, out, _ = run(capsys, "compute", "--hypergraph", str(f))
    assert code == 0
    assert "rho_gr" in out and "tau_gr" in out


def test_compute_unknown_invariant_is_usage_error(capsys):
    code, _, err = run(capsys, "compute", "--family", "path:4", "--invariant", "bogus")
    assert code == 2
    assert "bogus" in err


def test_compute_cap_exceeded_exit_code(capsys):
    code, _, err = run(capsys, "compute", "--family", "path:30", "--invariant", "grt")
    assert code == 3
    assert "cap" in err.lower()


def test_invalid_witness_is_reported_as_violation(monkeypatch, capsys):
    monkeypatch.setattr(engine, "min_cover", lambda masks, universe: (1, [0]))
    code, _, err = run(capsys, "compute", "--family", "cycle:6", "--invariant", "gt")
    assert code == 1
    assert err.startswith("violation:")


def test_cap_flag_lifts_limit(capsys):
    code, out, _ = run(capsys, "compute", "--family", "complete:26", "--invariant", "grt", "--cap", "26")
    assert code == 0
    assert "2" in out


def test_hypergraph_cap_exceeded_exit_code(tmp_path, capsys):
    # 40 ground vertices, 40 edges of three members each
    big = tmp_path / "big.txt"
    big.write_text("40 40\n" + "".join(f"{i} {(i + 1) % 40} {(i + 2) % 40}\n" for i in range(40)))
    for argv in (("compute",), ("verify", "covering-interpolation")):
        code, _, err = run(capsys, *argv, "--hypergraph", str(big))
        assert code == 3
        assert "cap" in err.lower()
    # 26 ground vertices in nine disjoint edges: over the cap, quick once lifted
    wide = tmp_path / "wide.txt"
    wide.write_text("26 9\n" + "".join(f"{3 * i} {3 * i + 1} {3 * i + 2}\n" for i in range(8)) + "24 25\n")
    assert run(capsys, "compute", "--hypergraph", str(wide))[0] == 3
    code, out, _ = run(capsys, "compute", "--hypergraph", str(wide), "--cap", "26", "--json")
    assert code == 0
    assert [json.loads(out)[k]["value"] for k in ("rho", "rho_gr", "tau_gr")] == [9, 9, 9]
    # 30 copies of one edge: the transversal search runs over the 30 edges
    copies = tmp_path / "copies.txt"
    copies.write_text("3 30\n" + "0 1 2\n" * 30)
    assert run(capsys, "compute", "--hypergraph", str(copies))[0] == 3
    code, out, _ = run(capsys, "compute", "--hypergraph", str(copies), "--cap", "30", "--json")
    assert code == 0
    assert json.loads(out)["tau_gr"]["value"] == 1


def test_verify_known_token(capsys):
    code, out, _ = run(capsys, "verify", "thm4.4", "--family", "cycle:4")
    assert code == 0
    assert "PASS" in out


def test_verify_full_default_corpus(capsys):
    code, out, _ = run(capsys, "verify", "min-three-gap")
    assert code == 0
    assert "PASS" in out


def test_verify_unknown_token_usage_error(capsys):
    code, _, err = run(capsys, "verify", "thm9.9")
    assert code == 2
    assert "thm9.9" in err


def test_verify_hypergraph_token_prints_both_sides(tmp_path, capsys):
    f = tmp_path / "h.txt"
    f.write_text("2 3\n0\n1\n0 1\n")
    code, out, _ = run(capsys, "verify", "thm8.3", "--hypergraph", str(f))
    assert code == 0
    assert "PASS" in out
    assert "rho_gr=2" in out and "gamma_grt(incidence)=4" in out


def test_verify_json_shape(capsys):
    code, out, _ = run(capsys, "verify", "thm4.2", "--family", "path:4", "--json")
    assert code == 0
    blob = json.loads(out)
    assert blob["passed"] is True
    assert blob["tested"] == 1


def test_generate_family_members_g6(capsys):
    code, out, _ = run(capsys, "generate", "familyT", "--n", "8", "--limit", "5")
    assert code == 0
    lines = [ln for ln in out.splitlines() if ln.strip()]
    assert 1 <= len(lines) <= 5
    for ln in lines:
        g = graph_from_graph6(ln)
        assert g.n == 8


def test_generate_family_members_json_with_certificates(capsys):
    code, out, _ = run(capsys, "generate", "familyT", "--n", "11", "--json")
    assert code == 0
    blob = json.loads(out)
    assert len(blob["graphs"]) == 2
    for item in blob["graphs"]:
        assert "certificate" in item
        assert item["certificate"]["steps"]


def test_generate_family_off_residue_is_empty(capsys):
    code, out, err = run(capsys, "generate", "familyT", "--n", "7")
    assert code == 0
    assert out.strip() == ""
    assert "no members" in err.lower() or "7" in err


def test_generate_connected_enumeration(capsys):
    code, out, _ = run(capsys, "generate", "connected:5")
    assert code == 0
    lines = [ln for ln in out.splitlines() if ln.strip()]
    assert len(lines) == 21
    for ln in lines:
        assert graph_from_graph6(ln).n == 5


def test_generate_builtin_family_edges_format(capsys):
    code, out, _ = run(capsys, "generate", "path:5", "--format", "edges")
    assert code == 0
    assert out.startswith("5 4")


def test_sweep_connected_suite(capsys):
    code, out, _ = run(capsys, "sweep", "connected:5")
    assert code == 0
    assert "bound-chain" in out
    assert "FAIL" not in out


def test_sweep_specific_checks(capsys):
    code, out, _ = run(capsys, "sweep", "connected:4", "--checks", "thm4.4,cor8.1")
    assert code == 0
    assert "value-two-multipartite" in out
    assert "graph-interpolation" in out


def test_sweep_trees_source(capsys):
    code, out, _ = run(capsys, "sweep", "trees:8:20", "--seed", "3", "--suite", "trees")
    assert code == 0
    assert "tree-matching-order" in out and "tree-lower-bound" in out


def test_sweep_hyper_source_json(capsys):
    code, out, _ = run(capsys, "sweep", "hyper:25", "--seed", "4", "--json")
    assert code == 0
    blob = json.loads(out)
    assert blob["passed"] is True
    names = {c["check"] for c in blob["results"]}
    assert "cover-transversal" in names


@pytest.mark.parametrize(
    "source",
    ["connected:abc", "cubic:x", "trees:5:x", "random:5:3:x", "hyper:-3", "trees:5:-1"],
)
def test_malformed_sweep_source_is_usage_error(capsys, source):
    code, _, err = run(capsys, "sweep", source)
    assert code == 2
    assert err.startswith("error:")


@pytest.mark.parametrize("source", ["connected:-1", "cubic:-4", "cubic:x"])
def test_malformed_generate_enumeration_is_usage_error(capsys, source):
    code, out, err = run(capsys, "generate", source)
    assert (code, out) == (2, "")
    assert err.startswith("error: bad source")


@pytest.mark.parametrize(
    "argv",
    [
        ("generate", "cubic:100000"),
        ("generate", "connected:10"),
        ("sweep", "connected:3000"),
        ("sweep", "cubic:16", "--suite", "regular"),
    ],
)
def test_enumeration_above_its_limit_is_capacity_error(capsys, argv):
    code, out, err = run(capsys, *argv)
    assert (code, out) == (3, "")
    assert "beyond the limit" in err


def test_family_t_above_its_limit_is_capacity_error(capsys):
    # the limit is checked before the residue, so any order above it fails
    code, out, err = run(capsys, "generate", "familyT", "--n", str(MAX_FAMILY_T_ORDER + 1))
    assert (code, out) == (3, "")
    assert err.startswith("error:") and "beyond the limit" in err
    assert "Traceback" not in err


@pytest.mark.parametrize("spec", ["path:3000000", "gk:14"])
def test_family_above_the_order_limit_is_usage_error(capsys, spec):
    # orders 3,000,000 and 20,058,327, refused before anything is built
    code, out, err = run(capsys, "compute", "--family", spec, "--invariant", "grt")
    assert (code, out) == (2, "")
    assert err.startswith("error:") and "258047" in err
    assert "Traceback" not in err


@pytest.mark.parametrize("command", ["compute", "generate"])
def test_large_sparse_family_fails_before_allocating(command):
    # path:120000 is below the order limit, but its bitmask rows would hold
    # about 7.2e9 bits; the address-space limit turns a build that skips the
    # check into a MemoryError instead of letting it take the machine's memory
    argv = ["--family", "path:120000", "--all"] if command == "compute" else ["path:120000"]
    src = Path(__file__).resolve().parent.parent / "src"
    limit = 600_000 * 1024

    def limit_memory():
        resource.setrlimit(resource.RLIMIT_AS, (limit, resource.getrlimit(resource.RLIMIT_AS)[1]))

    proc = subprocess.run(
        [sys.executable, "-m", "grundytd.cli", command, *argv],
        env=dict(os.environ, PYTHONPATH=str(src)),
        capture_output=True, text=True, timeout=60, preexec_fn=limit_memory,
    )
    assert (proc.returncode, proc.stdout) == (2, "")
    assert proc.stderr.startswith("error:") and "adjacency bits" in proc.stderr
    assert "Traceback" not in proc.stderr


def test_sweep_kind_mismatch_usage_error(capsys):
    code, _, err = run(capsys, "sweep", "hyper:10", "--checks", "thm4.2")
    assert code == 2
    assert err.strip()


def test_sweep_unknown_suite_lists_the_suites(capsys):
    code, out, err = run(capsys, "sweep", "connected:4", "--suite", "bogus")
    assert (code, out) == (2, "")
    assert err.startswith("error: unknown suite 'bogus'; available: ")
    assert all(suite in err for suite in checks.SUITES)


def test_sweep_g6_file_source(tmp_path, capsys):
    f = tmp_path / "graphs.g6"
    f.write_text("\n".join(graph_to_graph6(path(n)) for n in (3, 4, 5)) + "\n")
    code, out, _ = run(capsys, "sweep", f"g6:{f}", "--checks", "bound-chain")
    assert code == 0
    assert "tested 3" in out or "(tested 3)" in out


def test_convert_g6_to_edges_and_back(tmp_path, capsys):
    f = tmp_path / "g.g6"
    f.write_text(graph_to_graph6(path(5)) + "\n")
    code, out, _ = run(capsys, "convert", str(f), "--format", "g6", "--to", "edges")
    assert code == 0
    assert out.startswith("5 4")
    f2 = tmp_path / "g.txt"
    f2.write_text(out)
    code, out2, _ = run(capsys, "convert", str(f2), "--format", "edges", "--to", "g6")
    assert code == 0
    assert out2.strip() == graph_to_graph6(path(5))


def test_convert_hyper_identity(tmp_path, capsys):
    f = tmp_path / "h.txt"
    text = "2 3\n0\n1\n0 1\n"
    f.write_text(text)
    code, out, _ = run(capsys, "convert", str(f), "--format", "hyper", "--to", "hyper")
    assert code == 0
    assert hypergraph_from_text(out).edges == hypergraph_from_text(text).edges


def test_convert_hyper_to_graph_rejected(tmp_path, capsys):
    f = tmp_path / "h.txt"
    f.write_text("2 1\n0 1\n")
    code, _, err = run(capsys, "convert", str(f), "--format", "hyper", "--to", "g6")
    assert code == 2


def test_missing_input_file_is_usage_error(capsys):
    code, _, err = run(capsys, "compute", "--graph", "/nonexistent/file.g6", "--invariant", "gt")
    assert code == 2


def test_parse_error_reported(tmp_path, capsys):
    f = tmp_path / "bad.g6"
    f.write_text("!!!not graph6!!!\n")
    code, _, err = run(capsys, "compute", "--graph", str(f), "--invariant", "gt")
    assert code == 2


def test_oversized_edge_list_header_is_usage_error(tmp_path, capsys):
    f = tmp_path / "huge.txt"
    f.write_text("99999999999 0\n")
    code, _, err = run(capsys, "compute", "--graph", str(f), "--format", "edges", "--invariant", "gt")
    assert code == 2
    assert "258047" in err
