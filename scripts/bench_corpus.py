#!/usr/bin/env python3
"""Time the connected and regular graph corpora from an empty cache, normalized by a reference loop.

Usage:
  python3 scripts/bench_corpus.py [--src DIR] [--label NAME] [--repeat N] [--out FILE]

Each round empties the enumeration caches and times connected_graphs(n) for
n = 7 and 8 (each call builds every lower order too) and
connected_regular_graphs(n, k) for (n, k) in REGULAR.  The regular rows lift
the module's order limits first, so that a checkout with lower limits is
measured on the same rows.  The reference loop
of scripts/bench_invariants.py runs before the first round and after every
round; each time is divided by the mean of the two loops around its round,
so `ref_units` stays comparable on a machine whose speed drifts.  Every
figure is the median over --repeat rounds.

One more pass, untimed, counts the calls of each function of COUNTED that
the measured smallgraphs defines (certificates, parent searches, tied
children and their isomorphism searches) for each row and digests each list
(orders and adjacency rows, in list order), so two records with the same
digest built the same list in the same order.

--src picks the package source to import (default: src/ of this checkout),
so that two checkouts are measured by the same script.  --out merges the
record under --label into a JSON object in FILE, so that records of two
commits sit side by side.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import statistics
import sys
from pathlib import Path
from time import perf_counter

from bench_invariants import time_reference

ROOT = Path(__file__).resolve().parent.parent
ORDERS = (7, 8)
REGULAR = ((10, 3), (12, 3), (14, 3), (10, 4), (11, 4))
COUNTED = ("canonical_form", "_search", "_new_in_group", "_reaches")
ROWS = {f"connected_graphs({n})": ("connected_graphs", (n,)) for n in ORDERS}
ROWS.update(
    {f"connected_regular_graphs({n}, {k})": ("connected_regular_graphs", (n, k)) for n, k in REGULAR}
)


def build(smallgraphs, fn: str, args: tuple) -> list:
    """One row's list, built from empty enumeration caches."""
    smallgraphs._connected_cache.clear()
    smallgraphs._regular_cache.clear()
    return getattr(smallgraphs, fn)(*args)


def counted(smallgraphs, fn: str, args: tuple) -> dict:
    """Build one row's list, counting calls."""
    calls = {name: 0 for name in COUNTED if hasattr(smallgraphs, name)}
    originals = {name: getattr(smallgraphs, name) for name in calls}

    def counting(name):
        def wrapper(*args):
            calls[name] += 1
            return originals[name](*args)

        return wrapper

    for name in calls:
        setattr(smallgraphs, name, counting(name))
    try:
        graphs = build(smallgraphs, fn, args)
    finally:
        for name, original in originals.items():
            setattr(smallgraphs, name, original)
    digest = hashlib.sha256()
    for g in graphs:
        digest.update(repr((g.n, g.adj)).encode())
    return {"graphs": len(graphs), "calls": calls, "sha256": digest.hexdigest()}


def run_round(smallgraphs) -> dict[str, float]:
    times = {}
    for name, row in ROWS.items():
        start = perf_counter()
        build(smallgraphs, *row)
        times[name] = perf_counter() - start
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
    from grundytd import smallgraphs

    # the largest rows of REGULAR, for a checkout whose limits are lower
    smallgraphs.MAX_CUBIC_ORDER = max(smallgraphs.MAX_CUBIC_ORDER, 14)
    smallgraphs.MAX_REGULAR_ORDER = max(smallgraphs.MAX_REGULAR_ORDER, 11)
    counts = {name: counted(smallgraphs, *row) for name, row in ROWS.items()}
    refs = [time_reference()]
    rounds = []
    for _ in range(args.repeat):
        rounds.append(run_round(smallgraphs))
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
        "timings": timings,
        "counts": counts,
    }
    for name, t in timings.items():
        c = counts[name]
        calls = "".join(f"  {fn} {k}" for fn, k in c["calls"].items())
        print(
            f"{name:34s} {t['s']:9.5f} s {t['ref_units']:9.4f} ref  {c['graphs']} graphs"
            f"{calls}  sha256 {c['sha256'][:16]}"
        )
    print(f"ref_s {record['ref_s']}")
    if args.out:
        path = Path(args.out)
        doc = json.loads(path.read_text()) if path.exists() else {}
        doc[args.label] = record
        path.write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
