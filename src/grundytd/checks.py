"""Batch checkers: run one proven statement against many instances.

Each checker takes a list of graphs (or hypergraphs) and returns a
CheckResult with reparseable counterexample strings: graphs are dumped as
graph6, hypergraphs as JSON {"n": ..., "edges": [[...], ...]}.  Checkers
never raise on a violated statement; they collect it.  Capacity problems
do propagate, since they mean the instance was too big to decide.

The registry at the bottom maps stable CLI tokens to checkers together
with the kind of input each one expects.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

from . import solver, theorems
from .errors import InvariantViolation
from .formats import graph_to_graph6
from .graph import Graph, structural_report
from .hypergraph import (
    Hypergraph,
    covering_sequence_of_length,
    covering_to_transversal,
    edge_cover_number,
    grundy_covering_number,
    grundy_transversal_number,
    incidence_graph,
    is_complete_covering_sequence,
    is_complete_transversal_sequence,
    open_neighborhood_hypergraph,
    transversal_to_covering,
)
from .sequences import prune_to_closed


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    tested: int
    counterexamples: tuple[str, ...] = ()
    notes: tuple[str, ...] = ()


def _gref(g: Graph) -> str:
    return graph_to_graph6(g)


def _href(h: Hypergraph) -> str:
    return json.dumps(
        {"n": h.n_vertices, "edges": [list(h.edge_members(i)) for i in range(len(h.edges))]}
    )


class _Collector:
    def __init__(self, name: str):
        self.name = name
        self.tested = 0
        self.bad: list[str] = []
        self.notes: list[str] = []

    def fail(self, ref: str, why: str) -> None:
        self.bad.append(f"{ref} :: {why}")

    def result(self) -> CheckResult:
        return CheckResult(
            self.name, not self.bad, self.tested, tuple(self.bad), tuple(self.notes)
        )


# -- graph checkers ----------------------------------------------------------


def check_bound_chain(graphs, cap=None) -> CheckResult:
    """All proven inequalities among the invariants hold simultaneously."""
    col = _Collector("bound-chain")
    for g in graphs:
        if g.has_isolated_vertex():
            continue
        col.tested += 1
        rep = theorems.bound_report(g, cap=cap)
        if rep.violations:
            col.fail(_gref(g), "violated: " + ", ".join(rep.violations))
    return col.result()


def check_min_three_gap(graphs, cap=None) -> CheckResult:
    """A minimum total dominating set of size 3 forces a longest sequence of 4+."""
    col = _Collector("min-three-gap")
    for g in graphs:
        if g.has_isolated_vertex():
            continue
        col.tested += 1
        gt, _ = solver.total_domination_number(g, cap)
        if gt != 3:
            continue
        grt, _ = solver.grundy_total_domination_number(g, cap)
        if grt < 4:
            col.fail(_gref(g), f"gamma_t=3 but gamma_grt={grt}")
    return col.result()


def check_order_labeling(graphs, cap=None) -> CheckResult:
    """Longest sequence spans all vertices iff the pair labeling peels out."""
    col = _Collector("order-labeling")
    for g in graphs:
        if g.has_isolated_vertex():
            continue
        col.tested += 1
        value, seq = solver.grundy_total_domination_number(g, cap)
        if value != g.n:
            if g.n % 2 == 0 and theorems.find_pair_labeling(g, cap) is not None:
                col.fail(_gref(g), f"labeling found yet gamma_grt={value} < n")
            continue
        try:
            theorems.pair_labeling_from_sequence(g, seq)
        except InvariantViolation as exc:
            col.fail(_gref(g), f"peeling failed: {exc}")
    return col.result()


def check_value_two_multipartite(graphs, cap=None) -> CheckResult:
    """Longest-sequence value 2 exactly on complete multipartite graphs."""
    col = _Collector("value-two-multipartite")
    for g in graphs:
        if g.has_isolated_vertex():
            continue
        col.tested += 1
        value, _ = solver.grundy_total_domination_number(g, cap)
        parts = theorems.complete_multipartite_parts(g)
        if (value == 2) != (parts is not None):
            col.fail(
                _gref(g),
                f"gamma_grt={value}, complete multipartite={parts is not None}",
            )
    return col.result()


def check_closed_ratio(graphs, cap=None) -> CheckResult:
    """Open value at most twice the closed value, witnessed by pruning."""
    col = _Collector("closed-ratio")
    for g in graphs:
        if g.has_isolated_vertex():
            continue
        col.tested += 1
        grt, wit = solver.grundy_total_domination_number(g, cap)
        gr, _ = solver.grundy_domination_number(g, cap)
        if grt > 2 * gr:
            col.fail(_gref(g), f"gamma_grt={grt} > 2*gamma_gr={2 * gr}")
            continue
        try:
            pruned = prune_to_closed(g, wit)
        except InvariantViolation as exc:
            col.fail(_gref(g), f"pruning failed: {exc}")
            continue
        if 2 * len(pruned) < grt:
            col.fail(_gref(g), f"pruned length {len(pruned)} below half of {grt}")
    return col.result()


def check_graph_interpolation(graphs, cap=None) -> CheckResult:
    """Every length between the minimum and the maximum is realized."""
    col = _Collector("graph-interpolation")
    for g in graphs:
        if g.has_isolated_vertex():
            continue
        col.tested += 1
        try:
            solver.interpolation_witnesses(g, cap)
        except InvariantViolation as exc:
            col.fail(_gref(g), str(exc))
    return col.result()


def check_neighborhood_correspondence(graphs, cap=None) -> CheckResult:
    """Covering the neighborhood hypergraph is the same problem."""
    col = _Collector("neighborhood-correspondence")
    for g in graphs:
        if g.has_isolated_vertex():
            continue
        col.tested += 1
        grt, _ = solver.grundy_total_domination_number(g, cap)
        rho_gr, _ = grundy_covering_number(open_neighborhood_hypergraph(g), cap)
        if grt != rho_gr:
            col.fail(_gref(g), f"gamma_grt={grt} but rho_gr={rho_gr}")
    return col.result()


# -- tree checkers -----------------------------------------------------------


def check_tree_matching_order(trees, cap=None) -> CheckResult:
    """Tree value equals order iff a perfect matching exists, with witness."""
    col = _Collector("tree-matching-order")
    for t in trees:
        if t.n < 2:
            continue
        col.tested += 1
        value, _ = solver.grundy_total_domination_number(t, cap)
        pm = theorems.tree_perfect_matching(t)
        if (value == t.n) != (pm is not None):
            col.fail(_gref(t), f"gamma_grt={value}, n={t.n}, matching={pm is not None}")
            continue
        if pm is not None:
            try:
                theorems.tree_matching_sequence(t, pm)
            except InvariantViolation as exc:
                col.fail(_gref(t), f"witness construction failed: {exc}")
    return col.result()


def check_tree_lower_bound(trees, cap=None) -> CheckResult:
    """No strong support vertex forces value >= 2(n+1)/3; equality is the family."""
    col = _Collector("tree-lower-bound")
    for t in trees:
        if t.n < 2:
            continue
        rep = theorems.tree_bound_report(t, cap=cap)
        if not rep.applicable:
            continue
        col.tested += 1
        if not rep.meets_bound:
            col.fail(_gref(t), f"gamma_grt={rep.gamma_grt} below bound {rep.bound}")
            continue
        cert = theorems.is_in_family_t(t)
        if rep.equality != (cert is not None):
            col.fail(
                _gref(t),
                f"equality={rep.equality} but family membership={cert is not None}",
            )
        elif cert is not None and t.n % 3 != 2:
            col.fail(_gref(t), "family member with order not 2 mod 3")
    return col.result()


def check_regular_construction(graphs, cap=None) -> CheckResult:
    """Greedy construction reaches the proven length on every regular input."""
    col = _Collector("regular-construction")
    for g in graphs:
        st = structural_report(g)
        k = st.regular_degree
        if not st.connected or k is None or k < 3:
            continue
        if theorems.is_balanced_complete_bipartite(g, k):
            continue
        col.tested += 1
        try:
            rc = theorems.regular_greedy_sequence(g)
        except InvariantViolation as exc:
            col.fail(_gref(g), f"construction failed: {exc}")
            continue
        if not rc.meets_bound:
            col.fail(
                _gref(g),
                f"length {len(rc.sequence)} below bound {rc.bound} (k={rc.k})",
            )
    return col.result()


# -- hypergraph checkers -----------------------------------------------------


def check_cover_transversal(hypergraphs, cap=None) -> CheckResult:
    """Covering and transversal numbers agree; reversals preserve length."""
    col = _Collector("cover-transversal")
    for h in hypergraphs:
        col.tested += 1
        rho_gr, cov_wit = grundy_covering_number(h, cap)
        tau_gr, tr_wit = grundy_transversal_number(h, cap)
        if rho_gr != tau_gr:
            col.fail(_href(h), f"rho_gr={rho_gr} != tau_gr={tau_gr}")
            continue
        cov = transversal_to_covering(h, tr_wit)
        if len(cov) != tau_gr or not is_complete_covering_sequence(h, cov):
            col.fail(_href(h), "reversed transversal is not a full covering sequence")
            continue
        tr = covering_to_transversal(h, cov_wit)
        if len(tr) != rho_gr or not is_complete_transversal_sequence(h, tr):
            col.fail(_href(h), "reversed covering is not a full transversal")
    return col.result()


def check_incidence_double(hypergraphs, cap=None) -> CheckResult:
    """Incidence graph value is exactly twice the covering number."""
    col = _Collector("incidence-double")
    for h in hypergraphs:
        col.tested += 1
        rho_gr, _ = grundy_covering_number(h, cap)
        g = incidence_graph(h)
        grt, _ = solver.grundy_total_domination_number(g, cap)
        col.notes.append(
            f"n={h.n_vertices} edges={len(h.edges)}: rho_gr={rho_gr}, "
            f"gamma_grt(incidence)={grt}"
        )
        if grt != 2 * rho_gr:
            col.fail(_href(h), f"gamma_grt={grt} != 2*rho_gr={2 * rho_gr}")
    return col.result()


def check_covering_interpolation(hypergraphs, cap=None) -> CheckResult:
    """Every length between minimum cover and covering number is realized."""
    col = _Collector("covering-interpolation")
    for h in hypergraphs:
        col.tested += 1
        rho, _ = edge_cover_number(h, cap)
        rho_gr, _ = grundy_covering_number(h, cap)
        for length in range(rho, rho_gr + 1):
            if covering_sequence_of_length(h, length, cap) is None:
                col.fail(_href(h), f"no covering sequence of length {length}")
                break
    return col.result()


# -- registry ----------------------------------------------------------------


@dataclass(frozen=True)
class CheckDef:
    name: str
    run: object
    kind: str  # graphs | trees | regular | hypergraphs
    summary: str
    aliases: tuple[str, ...] = field(default=())


_DEFS = (
    CheckDef(
        "bound-chain",
        check_bound_chain,
        "graphs",
        "all proven inequalities among the seven invariants",
    ),
    CheckDef(
        "min-three-gap",
        check_min_three_gap,
        "graphs",
        "minimum 3 forces longest sequence at least 4",
        ("thm3.2",),
    ),
    CheckDef(
        "order-labeling",
        check_order_labeling,
        "graphs",
        "value n iff the pair labeling exists",
        ("thm4.2",),
    ),
    CheckDef(
        "value-two-multipartite",
        check_value_two_multipartite,
        "graphs",
        "value 2 iff complete multipartite",
        ("thm4.4",),
    ),
    CheckDef(
        "tree-matching-order",
        check_tree_matching_order,
        "trees",
        "tree value n iff perfect matching, with constructed witness",
        ("thm5.1",),
    ),
    CheckDef(
        "tree-lower-bound",
        check_tree_lower_bound,
        "trees",
        "2(n+1)/3 bound and its equality family",
        ("thm5.4",),
    ),
    CheckDef(
        "regular-construction",
        check_regular_construction,
        "regular",
        "greedy construction meets the regular-graph bound",
        ("thm6.2",),
    ),
    CheckDef(
        "closed-ratio",
        check_closed_ratio,
        "graphs",
        "open value at most twice closed value, with pruning witness",
        ("thm7.2",),
    ),
    CheckDef(
        "cover-transversal",
        check_cover_transversal,
        "hypergraphs",
        "covering equals transversal, with reversal witnesses",
        ("prop8.2",),
    ),
    CheckDef(
        "incidence-double",
        check_incidence_double,
        "hypergraphs",
        "incidence graph doubles the covering number",
        ("thm8.3",),
    ),
    CheckDef(
        "graph-interpolation",
        check_graph_interpolation,
        "graphs",
        "every length between min and max is realized",
        ("cor8.1",),
    ),
    CheckDef(
        "covering-interpolation",
        check_covering_interpolation,
        "hypergraphs",
        "every covering length between min and max is realized",
        ("thm8.1",),
    ),
    CheckDef(
        "neighborhood-correspondence",
        check_neighborhood_correspondence,
        "graphs",
        "neighborhood hypergraph covering equals the graph value",
    ),
)

REGISTRY: dict[str, CheckDef] = {d.name: d for d in _DEFS}

TOKENS: dict[str, str] = {}
for _d in _DEFS:
    TOKENS[_d.name] = _d.name
    for _a in _d.aliases:
        TOKENS[_a] = _d.name

SUITES: dict[str, tuple[str, ...]] = {
    "graphs": (
        "bound-chain",
        "min-three-gap",
        "order-labeling",
        "value-two-multipartite",
        "closed-ratio",
        "graph-interpolation",
        "neighborhood-correspondence",
    ),
    "trees": ("tree-matching-order", "tree-lower-bound"),
    "regular": ("regular-construction",),
    "hypergraphs": (
        "cover-transversal",
        "incidence-double",
        "covering-interpolation",
    ),
}
