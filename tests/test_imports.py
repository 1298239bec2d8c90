"""The package imports lazily, and the CLI loads only what its command runs.

Each command line run is a fresh process that compiles every module it
imports, so importing the whole package for every command is most of a
short command's time.  The footprint checks run in a fresh interpreter,
since this test process has imported every module already.
"""

import ast
import importlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import grundytd

SRC = Path(__file__).resolve().parent.parent / "src"

REPORT = "import json, sys; print(json.dumps(sorted(sys.modules)), file=sys.stderr)"
RUN_CLI = "import sys; from grundytd.cli import main; assert main(sys.argv[1:]) == 0"


def grundytd_modules_after(code: str, *argv: str) -> tuple[set[str], set[str]]:
    """(grundytd submodules, all modules) loaded by a fresh interpreter running code."""
    proc = subprocess.run(
        [sys.executable, "-c", f"{code}\n{REPORT}", *argv],
        env=dict(os.environ, PYTHONPATH=str(SRC)),
        capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    loaded = set(json.loads(proc.stderr.splitlines()[-1]))
    assert "grundytd" in loaded
    return {m.removeprefix("grundytd.") for m in loaded if m.startswith("grundytd.")}, loaded


def test_importing_the_package_imports_no_submodule():
    assert grundytd_modules_after("import grundytd")[0] == set()
    # dir() lists the exports without loading them
    listed = "import grundytd; assert set(grundytd.__all__) <= set(dir(grundytd))"
    assert grundytd_modules_after(listed)[0] == set()
    # the first use of a name loads its submodule and what that imports
    assert grundytd_modules_after("import grundytd; grundytd.path")[0] == {"errors", "graph"}


def test_importing_the_cli_loads_no_solver_checker_or_theorem():
    ours, loaded = grundytd_modules_after("import grundytd.cli")
    assert ours == {"cli", "errors", "formats", "graph", "smallgraphs"}
    assert not {"fractions", "dataclasses", "inspect"} & loaded


def test_compute_loads_no_checker_theorem_or_hypergraph():
    ours, loaded = grundytd_modules_after(
        RUN_CLI, "compute", "--family", "path:6", "--all", "--json"
    )
    assert {"solver", "engine", "sequences"} <= ours
    assert not {"checks", "theorems", "hypergraph"} & ours
    # records are plain classes: importing them runs no generated code
    assert not {"dataclasses", "inspect"} & loaded


def test_check_def_is_the_only_dataclass():
    # the tracer and test_checks call dataclasses.replace on registry entries
    decorated = []
    for path in sorted((SRC / "grundytd").glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.ClassDef) and any(
                "dataclass" in ast.unparse(d) for d in node.decorator_list
            ):
                decorated.append(f"{path.stem}.{node.name}")
    assert decorated == ["checks.CheckDef"]


def test_every_export_is_its_submodules_object():
    assert len(grundytd.__all__) == 87  # the package's public names
    for name in grundytd.__all__:
        module = importlib.import_module(f"grundytd.{grundytd._MODULE_OF[name]}")
        assert getattr(grundytd, name) is getattr(module, name), name
        assert vars(grundytd)[name] is getattr(module, name), name  # kept after first use


def test_unknown_name_is_attribute_error():
    with pytest.raises(AttributeError, match="no_such_name"):
        grundytd.no_such_name


def test_star_import_binds_every_export():
    namespace: dict = {}
    exec("from grundytd import *", namespace)
    assert set(grundytd.__all__) <= set(namespace)
    assert namespace["path"] is grundytd.path


def test_every_import_in_the_package_is_used():
    # pyflakes' F401 for src/grundytd, since no linter runs on this project:
    # a name kept only for others to rebind carries "# noqa: F401" on its line
    unused = []
    for path in sorted((SRC / "grundytd").glob("*.py")):
        text = path.read_text(encoding="utf-8")
        tree = ast.parse(text)
        lines = text.splitlines()
        used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        for node in ast.walk(tree):
            if not isinstance(node, (ast.Import, ast.ImportFrom)):
                continue
            if isinstance(node, ast.ImportFrom) and node.module == "__future__":
                continue
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                if name not in used and "# noqa: F401" not in lines[alias.lineno - 1]:
                    unused.append(f"{path.name}:{alias.lineno} {name}")
    assert unused == []


def test_startup_bench_script_writes_its_record(tmp_path):
    # the smallest run of scripts/bench_startup.py, which records start-up claims
    out = tmp_path / "bench.json"
    script = SRC.parent / "scripts" / "bench_startup.py"
    proc = subprocess.run(
        [sys.executable, str(script), "--repeat", "1", "--label", "x", "--out", str(out)],
        capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    record = json.loads(out.read_text())["x"]
    assert set(record) == {"python", "nproc", "repeat", "cold", "warm"}
    for name in ("cold", "warm"):
        assert set(record[name]) == {
            "python -c pass",
            "import grundytd.cli",
            "sweep cubic:10 --suite regular --json",
            "compute --family path:10 --all --json",
        }
        for row in record[name].values():
            assert set(row) == {"median_s", "iqr_s"} and row["median_s"] > 0
