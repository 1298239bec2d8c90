"""Workload inputs and correctness gates for the grundytd CLI benchmark.

Nothing here imports grundytd.  Inputs are generated and graph6-encoded by
the benchmark, and every witness the CLI prints is re-checked by a small
checker written from the definitions, so a change to the program can change
neither what is measured nor how its output is judged.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass, field
from pathlib import Path

DEFAULT_SEED = 0
# compute-sparse22 always uses the random tree and graph drawn with this seed:
# the time of the invariants varies by a factor of three or more between random
# graphs of the same size, so --seed only renumbers the vertices.
GRAPH_SEED = 0

GRAPH_SUITE = (
    "bound-chain",
    "min-three-gap",
    "order-labeling",
    "value-two-multipartite",
    "closed-ratio",
    "graph-interpolation",
    "neighborhood-correspondence",
)
REGULAR_SUITE = ("regular-construction",)
KERNELS = (
    "max_cover_sequence",
    "game_cover_value",
    "sequence_of_length",
    "min_cover",
    "max_minimal_cover",
    "max_matching",
)
INVARIANTS = ("gamma_t", "Gamma_t", "gamma_tg", "gamma_grt", "gamma_gr", "nu_s", "nu_ss")


# -- inputs ---------------------------------------------------------------------


@dataclass(frozen=True)
class Graph:
    label: str
    n: int
    edges: tuple[tuple[int, int], ...]

    def neighbors(self) -> list[set[int]]:
        hoods: list[set[int]] = [set() for _ in range(self.n)]
        for u, v in self.edges:
            hoods[u].add(v)
            hoods[v].add(u)
        return hoods

    def graph6(self) -> str:
        """graph6 line for orders up to 62 (upper triangle, column by column)."""
        hoods = self.neighbors()
        bits = [int(i in hoods[j]) for j in range(1, self.n) for i in range(j)]
        bits += [0] * (-len(bits) % 6)
        body = "".join(
            chr(63 + int("".join(map(str, bits[k : k + 6])), 2))
            for k in range(0, len(bits), 6)
        )
        return chr(63 + self.n) + body


def path(n: int) -> Graph:
    return Graph(f"path:{n}", n, tuple((i, i + 1) for i in range(n - 1)))


def cycle(n: int) -> Graph:
    return Graph(f"cycle:{n}", n, tuple((i, (i + 1) % n) for i in range(n)))


def _tree_edges(n: int, rng: random.Random) -> set[tuple[int, int]]:
    """Uniform labeled tree decoded from a random Pruefer code."""
    code = [rng.randrange(n) for _ in range(n - 2)]
    degree = [1] * n
    for x in code:
        degree[x] += 1
    edges = set()
    for x in code:
        leaf = min(v for v in range(n) if degree[v] == 1)
        edges.add((min(leaf, x), max(leaf, x)))
        degree[leaf] -= 1
        degree[x] -= 1
    u, v = (w for w in range(n) if degree[w] == 1)
    edges.add((u, v))
    return edges


def random_tree(n: int, seed: int) -> Graph:
    rng = random.Random(f"tree:{seed}")
    return Graph(f"tree:{n}:seed{seed}", n, tuple(sorted(_tree_edges(n, rng))))


def random_connected(n: int, p: float, seed: int) -> Graph:
    """Random tree plus each other vertex pair as an edge with probability p."""
    rng = random.Random(f"random:{seed}")
    edges = _tree_edges(n, rng)
    for u in range(n):
        for v in range(u + 1, n):
            if (u, v) not in edges and rng.random() < p:
                edges.add((u, v))
    return Graph(f"random:{n}:{p}:seed{seed}", n, tuple(sorted(edges)))


def relabeled(g: Graph, seed: int) -> Graph:
    """g with its vertices renumbered by a permutation drawn from seed.

    The label stays, since every invariant is the same on an isomorphic
    copy; only the input the program reads changes.
    """
    perm = list(range(g.n))
    random.Random(f"relabel:{seed}:{g.label}").shuffle(perm)
    edges = (tuple(sorted((perm[u], perm[v]))) for u, v in g.edges)
    return Graph(g.label, g.n, tuple(sorted(edges)))


# -- witness legality, from the definitions -----------------------------------------


def _legal_sequence(hoods: list[set[int]], n: int, seq, closed: bool) -> str | None:
    """None when seq is a complete legal (total) dominating sequence."""
    if len(set(seq)) != len(seq) or any(not 0 <= v < n for v in seq):
        return "entries repeat or leave the vertex range"
    dominated: set[int] = set()
    for pos, v in enumerate(seq):
        hood = hoods[v] | {v} if closed else hoods[v]
        if hood <= dominated:
            return f"entry {pos} (vertex {v}) dominates nothing new"
        dominated |= hood
    if len(dominated) != n:
        return "sequence leaves vertices undominated"
    return None


def _total_dominating(hoods: list[set[int]], chosen: set[int]) -> bool:
    return all(hood & chosen for hood in hoods)


def _matching_problem(hoods: list[set[int]], pairs, semistrong: bool) -> str | None:
    matched: list[int] = [v for pair in pairs for v in pair]
    if any(len(pair) != 2 for pair in pairs) or len(set(matched)) != len(matched):
        return "pairs are not a matching"
    if any(v not in hoods[u] for u, v in pairs):
        return "a pair is not an edge"
    inside = set(matched)
    for u, v in pairs:
        degrees = [len(hoods[u] & inside), len(hoods[v] & inside)]
        if semistrong and 1 not in degrees:
            return f"edge {u}-{v} has no endpoint of induced degree 1"
        if not semistrong and degrees != [1, 1]:
            return f"edge {u}-{v} is not induced"
    return None


def invariant_problems(g: Graph, invariants: dict) -> list[str]:
    """Checks each value against its witness and the proven orderings."""
    hoods = g.neighbors()
    problems = []
    values = {}
    for key in INVARIANTS:
        rec = invariants.get(key)
        if rec is None:
            problems.append(f"{key} missing")
            continue
        value, wit = rec["value"], rec["witness"]
        values[key] = value
        if key in ("gamma_t", "Gamma_t"):
            chosen = set(wit)
            why = None if _total_dominating(hoods, chosen) else "not total dominating"
            if why is None and key == "Gamma_t":
                if any(_total_dominating(hoods, chosen - {v}) for v in chosen):
                    why = "not minimal"
            size = len(chosen)
        elif key in ("gamma_tg", "gamma_grt", "gamma_gr"):
            why = _legal_sequence(hoods, g.n, wit, closed=key == "gamma_gr")
            size = len(wit)
        else:
            why = _matching_problem(hoods, [tuple(p) for p in wit], key == "nu_ss")
            size = len(wit)
        if why is not None:
            problems.append(f"{key} witness: {why}")
        if size != value:
            problems.append(f"{key}={value} but its witness has size {size}")
    if len(values) == len(INVARIANTS):
        v = values
        for lhs, rhs, text in (
            (v["gamma_t"], v["Gamma_t"], "gamma_t <= Gamma_t"),
            (v["Gamma_t"], v["gamma_grt"], "Gamma_t <= gamma_grt"),
            (v["gamma_t"], v["gamma_tg"], "gamma_t <= gamma_tg"),
            (v["gamma_tg"], v["gamma_grt"], "gamma_tg <= gamma_grt"),
            (v["nu_s"], v["nu_ss"], "nu_s <= nu_ss"),
            (2 * v["nu_ss"], v["gamma_grt"], "2*nu_ss <= gamma_grt"),
            (v["gamma_grt"], 2 * v["gamma_gr"], "gamma_grt <= 2*gamma_gr"),
        ):
            if lhs > rhs:
                problems.append(f"ordering violated: {text}")
    return problems


# -- pinned values ----------------------------------------------------------------
#
# Every invariant on each graph of compute-sparse22 (the random ones drawn
# with GRAPH_SEED), so on every relabeled copy the seed gives.  On
# paths and cycles gamma_grt, gamma_t, gamma_gr and nu_s also follow closed
# formulas, and path:10 agrees with the brute-force oracles of the tests.

PINNED = {
    "path:10": {"gamma_t": 6, "Gamma_t": 6, "gamma_tg": 7, "gamma_grt": 10, "gamma_gr": 9, "nu_s": 3, "nu_ss": 4},
    "path:22": {"gamma_t": 12, "Gamma_t": 14, "gamma_tg": 15, "gamma_grt": 22, "gamma_gr": 21, "nu_s": 7, "nu_ss": 9},
    "cycle:22": {"gamma_t": 12, "Gamma_t": 14, "gamma_tg": 14, "gamma_grt": 20, "gamma_gr": 20, "nu_s": 7, "nu_ss": 8},
    "tree:22:seed0": {"gamma_t": 10, "Gamma_t": 10, "gamma_tg": 13, "gamma_grt": 20, "gamma_gr": 20, "nu_s": 6, "nu_ss": 9},
    "random:22:0.05:seed0": {"gamma_t": 8, "Gamma_t": 12, "gamma_tg": 11, "gamma_grt": 20, "gamma_gr": 16, "nu_s": 6, "nu_ss": 8},
}


# -- workloads ----------------------------------------------------------------------


@dataclass
class Workload:
    """One CLI invocation and the gate its output must pass.

    prepare() writes any input file into workdir and returns the CLI
    arguments; problems() returns what is wrong with one operation's stdout.
    """

    name: str
    args: list[str]
    suite: tuple[str, ...] = ()
    tested: int = 0
    graphs: list[Graph] = field(default_factory=list)
    pinned: dict = field(default_factory=dict)

    def prepare(self, workdir: Path) -> list[str]:
        if not self.graphs:
            return list(self.args)
        batch = workdir / "batch.g6"
        batch.write_text("".join(g.graph6() + "\n" for g in self.graphs))
        return ["compute", "--graph", str(batch), "--all", "--json"]

    def problems(self, stdout: str) -> list[str]:
        try:
            doc = json.loads(stdout)
            return self._compute_problems(doc) if self.graphs else self._sweep_problems(doc)
        except (ValueError, KeyError, TypeError, AttributeError) as exc:
            return [f"malformed output: {exc!r}"]

    def _sweep_problems(self, doc) -> list[str]:
        problems = []
        if doc.get("passed") is not True:
            problems.append("sweep did not pass")
        ran = [r.get("check") for r in doc.get("results", ())]
        if ran != list(self.suite):
            problems.append(f"checkers {ran}, expected {list(self.suite)}")
        for r in doc.get("results", ()):
            if r.get("tested") != self.tested:
                problems.append(f"{r.get('check')} tested {r.get('tested')}, expected {self.tested}")
            if r.get("passed") is not True or r.get("counterexamples"):
                problems.append(f"{r.get('check')} reports counterexamples")
        return problems

    def _compute_problems(self, doc) -> list[str]:
        reports = doc.get("reports", ())
        if len(reports) != len(self.graphs):
            return [f"{len(reports)} reports for {len(self.graphs)} graphs"]
        problems = []
        for g, rep in zip(self.graphs, reports):
            if (rep.get("n"), rep.get("edges")) != (g.n, len(g.edges)):
                problems.append(f"{g.label}: report is for another graph")
                continue
            inv = rep.get("invariants", {})
            problems += [f"{g.label}: {p}" for p in invariant_problems(g, inv)]
            for key, want in self.pinned.get(g.label, {}).items():
                got = inv.get(key, {}).get("value")
                if got != want:
                    problems.append(f"{g.label}: {key}={got}, pinned {want}")
        return problems


def make_workload(name: str, seed: int, toy: bool = False) -> Workload:
    """The named workload at full size, or at toy size for the self-test."""
    if name == "sweep-connected7":
        source, tested = ("connected:5", 30) if toy else ("connected:7", 995)
        return Workload(name, ["sweep", source, "--json"], GRAPH_SUITE, tested)
    if name == "sweep-cubic10":
        source, tested = ("cubic:6", 2) if toy else ("cubic:10", 26)
        return Workload(name, ["sweep", source, "--suite", "regular", "--json"], REGULAR_SUITE, tested)
    if name == "compute-sparse22":
        if toy:
            graphs = [path(10)]
        else:
            graphs = [path(22), cycle(22), random_tree(22, GRAPH_SEED),
                      random_connected(22, 0.05, GRAPH_SEED)]
        graphs = [relabeled(g, seed) for g in graphs]
        pinned = {g.label: PINNED[g.label] for g in graphs if g.label in PINNED}
        return Workload(name, [], graphs=graphs, pinned=pinned)
    raise ValueError(f"unknown workload {name!r}")


WORKLOAD_NAMES = ("sweep-connected7", "sweep-cubic10", "compute-sparse22")
