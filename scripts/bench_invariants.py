#!/usr/bin/env python3
"""Time each invariant in one process, normalized by a reference loop.

Usage:
  python3 scripts/bench_invariants.py [--src DIR] [--label NAME] [--repeat N] [--out FILE]

Inputs:
  * the four graphs of perfbench's compute-sparse22 workload (path:22,
    cycle:22, tree:22, random:22) in the numbering of benchmark seed 0;
  * the 200 trees of `sweep trees:12:200 --seed 3`.

Each round times every invariant on each graph of the first set and summed
over the trees, then the whole `sweep trees:12:200 --seed 3 --suite trees`
through cli.main in this process (its stdout is discarded).  A reference
loop (dict look-ups of 22-bit masks, the shape of the kernels' memo tables)
runs before the first round and after every round; each time is divided by
the mean of the two loops around its round, so `ref_units` stays comparable
on a machine whose speed drifts.  Every figure is the median over --repeat
rounds.  A digest of all values and witnesses is recorded, so two records
with the same digest computed the same results.

--src picks the package source to import (default: src/ of this checkout),
so that two checkouts are measured by the same script.  --out merges the
record under --label into a JSON object in FILE, so that records of two
commits sit side by side.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import platform
import random
import statistics
import sys
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
TREES = ("trees:12:200", 3)


def reference_loop(n: int = 250_000) -> int:
    memo: dict[int, int] = {}
    x = 1
    for i in range(n):
        x = (x * 1103515245 + 12345) & 0x3FFFFF
        if memo.get(x) is None:
            memo[x] = i
    return len(memo)


def time_reference() -> float:
    start = perf_counter()
    reference_loop()
    return perf_counter() - start


def inputs():
    """(name, list of grundytd graphs) for each timed input set."""
    sys.path.insert(0, str(ROOT / "perfbench"))
    from workloads import make_workload

    from grundytd import Graph
    from grundytd.smallgraphs import random_tree

    sets = [
        (g.label, [Graph.from_edges(g.n, g.edges)])
        for g in make_workload("compute-sparse22", seed=0).graphs
    ]
    source, seed = TREES
    _, n, count = source.split(":")
    rng = random.Random(seed)
    sets.append((f"{source}:seed{seed}", [random_tree(int(n), rng) for _ in range(int(count))]))
    return sets


def run_round(sets, solver, cli, digest):
    """Seconds per (set, invariant), and the in-process trees sweep."""
    times = {}
    for name, graphs in sets:
        for key in solver.INVARIANT_KEYS:
            start = perf_counter()
            results = [solver.compute_report(g, (key,)).results[key] for g in graphs]
            times[f"{name}/{key}"] = perf_counter() - start
            if digest is not None:
                for r in results:
                    digest.update(repr((name, key, r.value, r.witness)).encode())
    source, seed = TREES
    argv = ["sweep", source, "--seed", str(seed), "--suite", "trees"]
    start = perf_counter()
    with contextlib.redirect_stdout(io.StringIO()) as out:
        code = cli.main(argv)
    times["sweep " + " ".join(argv[1:])] = perf_counter() - start
    if code != 0:
        raise SystemExit(f"sweep exited with {code}")
    if digest is not None:
        digest.update(out.getvalue().encode())
    return times


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--src", default=str(ROOT / "src"))
    parser.add_argument("--label", default="current")
    parser.add_argument("--repeat", type=int, default=5)
    parser.add_argument("--out")
    args = parser.parse_args(argv)
    if args.repeat < 1:
        parser.error("--repeat must be at least 1")

    sys.path.insert(0, str(Path(args.src).resolve()))
    from grundytd import cli, solver

    sets = inputs()
    digest = hashlib.sha256()
    refs = [time_reference()]
    rounds = []
    for r in range(args.repeat):
        rounds.append(run_round(sets, solver, cli, digest if r == 0 else None))
        refs.append(time_reference())

    timings = {}
    for name in rounds[0]:
        secs = [t[name] for t in rounds]
        units = [t[name] * 2 / (refs[r] + refs[r + 1]) for r, t in enumerate(rounds)]
        timings[name] = {
            "s": round(statistics.median(secs), 5),
            "ref_units": round(statistics.median(units), 4),
        }
    record = {
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
        "repeat": args.repeat,
        "ref_s": round(statistics.median(refs), 5),
        "results_sha256": digest.hexdigest(),
        "timings": timings,
    }
    for name, t in timings.items():
        print(f"{name:45s} {t['s']:9.5f} s {t['ref_units']:9.4f} ref")
    print(f"ref_s {record['ref_s']}  results_sha256 {record['results_sha256'][:16]}")
    if args.out:
        path = Path(args.out)
        doc = json.loads(path.read_text()) if path.exists() else {}
        doc[args.label] = record
        path.write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
