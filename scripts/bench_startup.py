#!/usr/bin/env python3
"""Time short CLI commands as fresh processes, without and with a bytecode cache.

Usage:
  python3 scripts/bench_startup.py [--src DIR --label NAME]... [--repeat N] [--out FILE]

Rows (each one fresh `python3` process, its output discarded):
  * a bare interpreter (`-c pass`), the floor under every other row;
  * `import grundytd.cli`;
  * `sweep cubic:10 --suite regular --json`;
  * `compute --family path:10 --all --json`.

Each --src (a directory holding the grundytd package; default: src/ of this
checkout) is copied, without its __pycache__, into a temporary directory,
and every process imports that copy with PYTHONDONTWRITEBYTECODE=1.  The
cold pass runs every row --repeat times per source, so every process
compiles the package; then compileall fills the copies' caches and the warm
pass runs the same rows again.  Within a pass the sources alternate, and
their order flips every round, so a drift in the machine's speed falls on
all of them alike.

Each record holds, per pass and row, the median and the interquartile range
of the wall times, and for every source after the first, compared with the
first in the same rounds: the number of rounds in which it was faster and
the median of the per-round differences, which a drift in speed between
rounds moves far less than the medians themselves.  --out merges each record
under its --label into a JSON object in FILE, so that records of two
commits sit side by side.
"""

from __future__ import annotations

import argparse
import compileall
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
ROWS = {
    "python -c pass": ["-c", "pass"],
    "import grundytd.cli": ["-c", "import grundytd.cli"],
    "sweep cubic:10 --suite regular --json": [
        "-m", "grundytd.cli", "sweep", "cubic:10", "--suite", "regular", "--json",
    ],
    "compute --family path:10 --all --json": [
        "-m", "grundytd.cli", "compute", "--family", "path:10", "--all", "--json",
    ],
}
PASSES = ("cold", "warm")


def run_once(argv: list[str], env: dict, cwd: str) -> float:
    """Wall time of one fresh process; a failed command is an error."""
    start = perf_counter()
    proc = subprocess.run(
        [sys.executable, *argv], env=env, cwd=cwd,
        stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, text=True,
    )
    wall = perf_counter() - start
    if proc.returncode != 0:
        raise SystemExit(f"{argv} exited {proc.returncode}:\n{proc.stderr}")
    return wall


def run_pass(envs: list[dict], cwd: str, repeat: int) -> list[dict[str, list[float]]]:
    """Per source, per row, the wall times of `repeat` alternating rounds."""
    times: list[dict[str, list[float]]] = [{row: [] for row in ROWS} for _ in envs]
    order = list(range(len(envs)))
    for _ in range(repeat):
        for row, argv in ROWS.items():
            for i in order:
                times[i][row].append(run_once(argv, envs[i], cwd))
        order.reverse()
    return times


def summary(secs: list[float]) -> dict:
    iqr = 0.0
    if len(secs) > 1:
        q1, _, q3 = statistics.quantiles(secs, n=4, method="inclusive")
        iqr = q3 - q1
    return {"median_s": round(statistics.median(secs), 5), "iqr_s": round(iqr, 5)}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--src", action="append")
    parser.add_argument("--label", action="append")
    parser.add_argument("--repeat", type=int, default=15)
    parser.add_argument("--out")
    args = parser.parse_args(argv)
    srcs = args.src or [str(ROOT / "src")]
    labels = args.label or ["current"]
    if len(labels) != len(srcs):
        parser.error("give one --label per --src")
    if args.repeat < 1:
        parser.error("--repeat must be at least 1")

    with tempfile.TemporaryDirectory(prefix="bench-startup-") as tmp:
        envs = []
        for i, src in enumerate(srcs):
            copy = Path(tmp, str(i))
            shutil.copytree(
                Path(src, "grundytd"), copy / "grundytd",
                ignore=shutil.ignore_patterns("__pycache__"),
            )
            env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
            envs.append(dict(env, PYTHONPATH=str(copy), PYTHONDONTWRITEBYTECODE="1"))
        times = {"cold": run_pass(envs, tmp, args.repeat)}
        for i in range(len(srcs)):
            compileall.compile_dir(Path(tmp, str(i)), quiet=1)
        times["warm"] = run_pass(envs, tmp, args.repeat)

    records = {}
    for i, label in enumerate(labels):
        record = {
            "python": platform.python_version(),
            "nproc": len(os.sched_getaffinity(0)),
            "repeat": args.repeat,
        }
        for name in PASSES:
            record[name] = {}
            for row, secs in times[name][i].items():
                s = record[name][row] = summary(secs)
                line = f"{label:8s} {name} {row:40s} {s['median_s']:.4f} s  iqr {s['iqr_s']:.4f}"
                if i:
                    diffs = [t - f for t, f in zip(secs, times[name][0][row])]
                    s[f"vs_{labels[0]}"] = vs = {
                        "faster": sum(d < 0 for d in diffs),
                        "median_diff_s": round(statistics.median(diffs), 5),
                    }
                    line += f"  faster {vs['faster']}/{len(diffs)}  diff {vs['median_diff_s']:+.4f} s"
                print(line)
        records[label] = record
    if args.out:
        path = Path(args.out)
        doc = json.loads(path.read_text()) if path.exists() else {}
        doc.update(records)
        path.write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
