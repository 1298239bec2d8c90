"""The benchmark's traced run still finds every layer it wraps.

perfbench/tracer.py rebinds module attributes of the package by name (the
solver functions, the sequence re-checks inside solver, the hypergraph
functions that checks calls).  A rename or an import change in src/ would
otherwise break `perfbench/run.py --trace 1` or silently zero one of its
per-layer metrics.  The checkers run one instance at a time, so each
checker's spans must also add up to the tested count the sweep prints:
that sum is the benchmark's `checks.<name>.tested` metric.
"""

import json
import os
import subprocess
import sys
from collections import Counter
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


@pytest.mark.parametrize(
    "argv, expected",
    [
        (
            ["sweep", "connected:4", "--json"],
            {"sequences.recheck", "solver.interpolation_witnesses", "engine.sequence_of_length",
             "hypergraph.grundy_covering_number", "checks.graph-interpolation"},
        ),
        (
            ["sweep", "cubic:6", "--suite", "regular", "--json"],
            {"theorems.regular_greedy_sequence", "checks.regular-construction"},
        ),
        (
            ["sweep", "hyper:5", "--json"],
            {"hypergraph.edge_cover_number", "hypergraph.grundy_transversal_number",
             "solver.grundy_total_domination_number"},
        ),
        (
            ["compute", "--family", "path:6", "--all", "--json"],
            {"solver.compute_report", "sequences.recheck", "engine.game_cover_value"},
        ),
        (
            ["sweep", "trees:8:20", "--suite", "trees", "--json"],
            {"checks.tree-lower-bound", "checks.tree-matching-order",
             "theorems.tree_bound_report", "theorems.is_in_family_t"},
        ),
    ],
)
def test_tracer_records_every_layer(tmp_path, argv, expected):
    spans_path = tmp_path / "spans.json"
    env = dict(os.environ, PYTHONPATH=f"{ROOT / 'src'}{os.pathsep}{ROOT / 'perfbench'}")
    proc = subprocess.run(
        [sys.executable, str(ROOT / "perfbench" / "tracer.py"), str(spans_path), *argv],
        cwd=tmp_path, env=env, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    out = json.loads(proc.stdout)
    spans = json.loads(spans_path.read_text())["spans"]
    names = {span[0] for span in spans}
    assert expected <= names, sorted(names)
    extras = Counter()
    for name, _, _, _, extra in spans:
        if name.startswith("checks."):
            extras[name] += extra
    tested = {f"checks.{r['check']}": r["tested"] for r in out.get("results", ())}
    assert extras == tested
    assert "results" not in out or any(tested.values())
