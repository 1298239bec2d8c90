#!/usr/bin/env python3
"""A/B timing of two versions of engine.py, alternating in one process.

Usage:
  python3 scripts/bench_engine_ab.py BASE [--rounds N]

This measures changes to engine.py alone.  BASE is a checkout of the
package (its src/grundytd/engine.py is read) or an engine.py file.  That
file is loaded as a second module of the current package, so its imports of
.errors and .graph resolve to this tree, and both engines run on the same
graph objects in the same interpreter.

Cases, each a kernel summed over a set of graphs:
  * game_cover_value on the open neighbourhoods of each graph of perfbench's
    compute-sparse22 workload at seeds 0 and 1 (read from
    perfbench/workloads.py, as scripts/bench_invariants.py does);
  * the same over the 995 connected graphs of order 2-7;
  * the same over four random unicyclic graphs of order 20 whose cycle is
    odd, and over four random trees of order 20 (seed 5 for both): the
    family of one part and the family of two parts on either side of the
    game's rule for class keys;
  * max_cover_sequence on the open and the closed neighbourhoods of the
    same sets.

A first, untimed round checks that both engines give equal outputs and
sets how often a round repeats each case, so that a timing lasts about 10
ms.  Then every round times each case once per engine, the order of the two
engines alternating from round to round.  For each case the script prints
the median time of one pass for both engines, the median and the
interquartile range of the per-round ratio current / base, and the rounds
the current engine won.  The two timings of a round are taken back to back
in one process, so their ratio is little moved by a machine whose speed
drifts over minutes.
"""

from __future__ import annotations

import argparse
import importlib.util
import random
import statistics
import sys
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
SEEDS = (0, 1)
SPARSE_SEED = 5
KERNELS = {
    "game": lambda engine, g: engine.game_cover_value(g.open_masks(), g.full_mask),
    "longest": lambda engine, g: (
        engine.max_cover_sequence(g.open_masks(), g.full_mask),
        engine.max_cover_sequence(g.closed_masks(), g.full_mask),
    ),
}


def load_engine(base):
    """The engine.py of a checkout (or the file itself) as grundytd._engine_base."""
    import grundytd

    path = Path(base)
    if path.is_dir():
        path = path / "src" / "grundytd" / "engine.py"
    spec = importlib.util.spec_from_file_location(f"{grundytd.__name__}._engine_base", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def inputs():
    """(name, list of grundytd graphs) for each timed set of graphs."""
    sys.path.insert(0, str(ROOT / "perfbench"))
    from workloads import make_workload

    from grundytd import Graph, bipartition
    from grundytd.smallgraphs import connected_graphs, random_tree

    sets = [
        (f"{g.label}@{seed}", [Graph.from_edges(g.n, g.edges)])
        for seed in SEEDS
        for g in make_workload("compute-sparse22", seed=seed).graphs
    ]
    sets.append(("connected:2-7", [g for n in range(2, 8) for g in connected_graphs(n)]))
    rng = random.Random(SPARSE_SEED)
    trees = [random_tree(20, rng) for _ in range(8)]
    odd = []
    for tree in trees[:4]:
        # an edge inside one colour class closes an odd cycle
        side = bipartition(tree)[0]
        u, v = rng.sample(side, 2)
        odd.append(Graph.from_edges(20, list(tree.edges()) + [(u, v)]))
    sets += [("unicyclic-odd:20", odd), ("tree:20", trees[4:])]
    return sets


def run(sets, engines, rounds, least=0.01):
    """{case: [seconds per pass, one per round] per engine}.  An untimed first round
    checks that the engines agree on every output and sets how many times a
    round repeats each case, so that a timing lasts about least seconds."""
    cases = []
    for kernel, call in KERNELS.items():
        for name, graphs in sets:
            start = perf_counter()
            outputs = [[call(engine, g) for g in graphs] for engine in engines]
            each = (perf_counter() - start) / len(engines)
            if any(out != outputs[0] for out in outputs):
                raise AssertionError(f"the engines disagree on {kernel} {name}")
            cases.append((f"{kernel} {name}", call, graphs, max(1, round(least / each))))
    times = {case: [[] for _ in engines] for case, _, _, _ in cases}
    for r in range(rounds):
        order = range(len(engines)) if r % 2 == 0 else range(len(engines) - 1, -1, -1)
        for case, call, graphs, repeat in cases:
            for e in order:
                start = perf_counter()
                for _ in range(repeat):
                    for g in graphs:
                        call(engines[e], g)
                times[case][e].append((perf_counter() - start) / repeat)
    return times


def quartiles(values):
    return statistics.quantiles(values, n=4)[::2] if len(values) > 1 else values * 2


def summary(times):
    """Per case: (case, base median, current median, the median and the
    quartiles of the per-round ratios current / base, rounds current won)."""
    rows = []
    for case, (base, current) in times.items():
        ratios = [c / b for b, c in zip(base, current)]
        won = sum(c < b for b, c in zip(base, current))
        rows.append((case, statistics.median(base), statistics.median(current),
                     statistics.median(ratios), quartiles(ratios), won))
    return rows


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("base", help="a checkout of the package, or an engine.py file")
    parser.add_argument("--rounds", type=int, default=21)
    args = parser.parse_args(argv)
    if args.rounds < 1:
        parser.error("--rounds must be at least 1")

    sys.path.insert(0, str(ROOT / "src"))
    from grundytd import engine

    times = run(inputs(), [load_engine(args.base), engine], args.rounds)
    print(f"{args.rounds} rounds, outputs equal; ratio = current / base per round")
    print(f"{'case':32s} {'base ms':>9s} {'current ms':>10s} {'ratio':>6s} {'ratio IQR':>13s} won")
    for case, b, c, ratio, (q1, q3), won in summary(times):
        print(f"{case:32s} {b * 1e3:9.2f} {c * 1e3:10.2f} {ratio:6.3f}"
              f" {q1:6.3f}-{q3:<6.3f} {won}/{args.rounds}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
