"""Checkers: proven statements, each tested on one instance at a time.

A checker is a predicate over one instance.  Every checker has the same
shape, run(item, report, cap): it receives the instance and one
solver.InvariantReport on it, and reads the values and witnesses it needs
from that report.  Graph, tree and regular checkers read the graph
invariants of solver.compute_report; hypergraph checkers read rho (edge
cover number), rho_gr (covering number) and tau_gr (transversal number).
Each returns a CheckResult for that one instance: tested 1 (the runner
skips instances the statement does not cover), and at most one
reparseable counterexample string, with graphs dumped as graph6 and
hypergraphs as JSON {"n": ..., "edges": [[...], ...]}.  Checkers never
raise on a violated statement; they report it.  Capacity problems do
propagate, since they mean the instance was too big to decide.

run_checks is the one runner, used by both `verify` and `sweep`.  It
walks the instances once and skips graphs with an isolated vertex (total
domination is undefined there).  For each remaining instance it computes
one report holding the union of the invariants the selected checkers
declare, none at all when they declare none, passes it to each of them and
drops it before the next instance, then adds up the per-instance results
of every checker.  A checker may also register a predicate saying which
instances its statement covers; it is not called on the others, and an
instance that no selected checker covers gets no report at all.  A few
results lie outside the report and stay with the checker that needs them,
computed once: interpolation witnesses, pair labelings, the neighbourhood
hypergraph's covering number and the incidence graph's value.

Each checker registers itself under its stable CLI name and aliases,
with the kind of input it expects and the invariants it reads; REGISTRY,
TOKENS and SUITES (the names grouped by kind, in registration order) are
what the CLI looks up.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import NamedTuple

from . import solver, theorems
from .errors import GrundyTDError, InvariantViolation
from .formats import graph_to_graph6
from .graph import Graph
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
from .solver import InvariantReport


class CheckResult(NamedTuple):
    name: str
    passed: bool
    tested: int
    counterexamples: tuple[str, ...] = ()
    notes: tuple[str, ...] = ()


def _href(h: Hypergraph) -> str:
    return json.dumps(
        {"n": h.n_vertices, "edges": [list(h.edge_members(i)) for i in range(len(h.edges))]}
    )


def _pass(name: str, notes: tuple[str, ...] = ()) -> CheckResult:
    return CheckResult(name, True, 1, (), notes)


def _fail(name: str, item, why: str, notes: tuple[str, ...] = ()) -> CheckResult:
    ref = _href(item) if isinstance(item, Hypergraph) else graph_to_graph6(item)
    return CheckResult(name, False, 1, (f"{ref} :: {why}",), notes)


class _Collector:
    """One checker's tally over the instances of a run."""

    def __init__(self, name: str):
        self.name = name
        self.tested = 0
        self.bad: list[str] = []
        self.notes: list[str] = []

    def add(self, res: CheckResult) -> None:
        self.tested += res.tested
        self.bad.extend(res.counterexamples)
        self.notes.extend(res.notes)

    def result(self) -> CheckResult:
        return CheckResult(
            self.name, not self.bad, self.tested, tuple(self.bad), tuple(self.notes)
        )


# -- registry ----------------------------------------------------------------


@dataclass(frozen=True)
class CheckDef:
    name: str
    run: object
    kind: str  # graphs | trees | regular | hypergraphs
    aliases: tuple[str, ...] = field(default=())
    keys: tuple[str, ...] = field(default=())  # invariants the checker reads
    # instance -> whether the statement covers it; None covers every instance
    applies: object = None


REGISTRY: dict[str, CheckDef] = {}


def _checker(name: str, kind: str, *aliases: str, keys=(), applies=None):
    """Register the decorated function as the checker with this CLI name."""

    def register(run):
        REGISTRY[name] = CheckDef(name, run, kind, aliases, keys, applies)
        return run

    return register


# -- graph checkers ----------------------------------------------------------


@_checker("bound-chain", "graphs", keys=solver.INVARIANT_KEYS)
def check_bound_chain(g: Graph, rep: InvariantReport, cap=None) -> CheckResult:
    """All proven inequalities among the invariants hold simultaneously."""
    violations = theorems.bound_report(g, rep).violations
    if violations:
        return _fail("bound-chain", g, "violated: " + ", ".join(violations))
    return _pass("bound-chain")


@_checker("min-three-gap", "graphs", "thm3.2", keys=("gamma_t", "gamma_grt"))
def check_min_three_gap(g: Graph, rep: InvariantReport, cap=None) -> CheckResult:
    """A minimum total dominating set of size 3 forces a longest sequence of 4+."""
    grt = rep.value("gamma_grt")
    if rep.value("gamma_t") == 3 and grt < 4:
        return _fail("min-three-gap", g, f"gamma_t=3 but gamma_grt={grt}")
    return _pass("min-three-gap")


@_checker("order-labeling", "graphs", "thm4.2", keys=("gamma_grt",))
def check_order_labeling(g: Graph, rep: InvariantReport, cap=None) -> CheckResult:
    """Longest sequence spans all vertices iff the pair labeling peels out.

    Below n there is no length-n sequence to peel, so only the forward
    direction runs here; the test suite checks the converse against a
    brute-force labeling search.
    """
    if rep.value("gamma_grt") != g.n:
        return _pass("order-labeling")
    try:
        theorems.pair_labeling_from_sequence(g, rep.witness("gamma_grt"))
    except InvariantViolation as exc:
        return _fail("order-labeling", g, f"peeling failed: {exc}")
    return _pass("order-labeling")


@_checker("value-two-multipartite", "graphs", "thm4.4", keys=("gamma_grt",))
def check_value_two_multipartite(g: Graph, rep: InvariantReport, cap=None) -> CheckResult:
    """Longest-sequence value 2 exactly on complete multipartite graphs."""
    value = rep.value("gamma_grt")
    parts = theorems.complete_multipartite_parts(g)
    if (value == 2) != (parts is not None):
        why = f"gamma_grt={value}, complete multipartite={parts is not None}"
        return _fail("value-two-multipartite", g, why)
    return _pass("value-two-multipartite")


@_checker("closed-ratio", "graphs", "thm7.2", keys=("gamma_grt", "gamma_gr"))
def check_closed_ratio(g: Graph, rep: InvariantReport, cap=None) -> CheckResult:
    """Open value at most twice the closed value, witnessed by pruning."""
    grt, gr = rep.value("gamma_grt"), rep.value("gamma_gr")
    if grt > 2 * gr:
        return _fail("closed-ratio", g, f"gamma_grt={grt} > 2*gamma_gr={2 * gr}")
    try:
        pruned = theorems.prune_to_closed(g, rep.witness("gamma_grt"))
    except InvariantViolation as exc:
        return _fail("closed-ratio", g, f"pruning failed: {exc}")
    if 2 * len(pruned) < grt:
        return _fail("closed-ratio", g, f"pruned length {len(pruned)} below half of {grt}")
    return _pass("closed-ratio")


@_checker("graph-interpolation", "graphs", "cor8.1", keys=("gamma_t", "gamma_grt"))
def check_graph_interpolation(g: Graph, rep: InvariantReport, cap=None) -> CheckResult:
    """Every length between the minimum and the maximum is realized."""
    try:
        solver.interpolation_witnesses(g, rep, cap)
    except InvariantViolation as exc:
        return _fail("graph-interpolation", g, str(exc))
    return _pass("graph-interpolation")


@_checker("neighborhood-correspondence", "graphs", keys=("gamma_grt",))
def check_neighborhood_correspondence(
    g: Graph, rep: InvariantReport, cap=None
) -> CheckResult:
    """Covering the neighborhood hypergraph is the same problem."""
    grt = rep.value("gamma_grt")
    rho_gr, _ = grundy_covering_number(open_neighborhood_hypergraph(g), cap)
    if grt != rho_gr:
        why = f"gamma_grt={grt} but rho_gr={rho_gr}"
        return _fail("neighborhood-correspondence", g, why)
    return _pass("neighborhood-correspondence")


# -- tree checkers -----------------------------------------------------------


@_checker("tree-matching-order", "trees", "thm5.1", keys=("gamma_grt",))
def check_tree_matching_order(t: Graph, rep: InvariantReport, cap=None) -> CheckResult:
    """Tree value equals order iff a perfect matching exists, with witness."""
    value = rep.value("gamma_grt")
    pm = theorems.tree_perfect_matching(t)
    if (value == t.n) != (pm is not None):
        why = f"gamma_grt={value}, n={t.n}, matching={pm is not None}"
        return _fail("tree-matching-order", t, why)
    if pm is not None:
        try:
            theorems.tree_matching_sequence(t, pm)
        except InvariantViolation as exc:
            return _fail("tree-matching-order", t, f"witness construction failed: {exc}")
    return _pass("tree-matching-order")


@_checker(
    "tree-lower-bound",
    "trees",
    "thm5.4",
    keys=("gamma_grt",),
    applies=theorems.tree_bound_applies,
)
def check_tree_lower_bound(t: Graph, rep: InvariantReport, cap=None) -> CheckResult:
    """No strong support vertex forces value >= 2(n+1)/3; equality is the family."""
    tb = theorems.tree_bound_report(t, rep)
    if not tb.meets_bound:
        why = f"gamma_grt={tb.gamma_grt} below bound {tb.bound}"
        return _fail("tree-lower-bound", t, why)
    member = tb.certificate is not None
    if tb.equality != member:
        why = f"equality={tb.equality} but family membership={member}"
        return _fail("tree-lower-bound", t, why)
    return _pass("tree-lower-bound")


# -- regular checkers --------------------------------------------------------


@_checker(
    "regular-construction",
    "regular",
    "thm6.2",
    applies=theorems.regular_bound_applies,
)
def check_regular_construction(g: Graph, rep=None, cap=None) -> CheckResult:
    """Greedy construction reaches the proven length on every regular input."""
    try:
        rc = theorems.regular_greedy_sequence(g)
    except InvariantViolation as exc:
        return _fail("regular-construction", g, f"construction failed: {exc}")
    if not rc.meets_bound:
        why = f"length {len(rc.sequence)} below bound {rc.bound} (k={rc.k})"
        return _fail("regular-construction", g, why)
    return _pass("regular-construction")


# -- hypergraph checkers -----------------------------------------------------

# the edge cover, covering and transversal numbers, their solvers looked up by
# name at each call so that they can be rebound
_HYPERGRAPH_INVARIANTS = {
    "rho": lambda h, cap: edge_cover_number(h, cap),
    "rho_gr": lambda h, cap: grundy_covering_number(h, cap),
    "tau_gr": lambda h, cap: grundy_transversal_number(h, cap),
}


def hypergraph_report(h: Hypergraph, keys=_HYPERGRAPH_INVARIANTS, cap=None) -> InvariantReport:
    """The requested covering invariants of h, each with its witness."""
    results = {k: solver.timed_result(_HYPERGRAPH_INVARIANTS[k], h, cap) for k in keys}
    return InvariantReport(h.n_vertices, len(h.edges), results)


@_checker("cover-transversal", "hypergraphs", "prop8.2", keys=("rho_gr", "tau_gr"))
def check_cover_transversal(h: Hypergraph, rep: InvariantReport, cap=None) -> CheckResult:
    """Covering and transversal numbers agree; reversals preserve length."""
    rho_gr, tau_gr = rep.value("rho_gr"), rep.value("tau_gr")
    if rho_gr != tau_gr:
        return _fail("cover-transversal", h, f"rho_gr={rho_gr} != tau_gr={tau_gr}")
    cov = transversal_to_covering(h, rep.witness("tau_gr"))
    if len(cov) != tau_gr or not is_complete_covering_sequence(h, cov):
        why = "reversed transversal is not a full covering sequence"
        return _fail("cover-transversal", h, why)
    tr = covering_to_transversal(h, rep.witness("rho_gr"))
    if len(tr) != rho_gr or not is_complete_transversal_sequence(h, tr):
        return _fail("cover-transversal", h, "reversed covering is not a full transversal")
    return _pass("cover-transversal")


@_checker("incidence-double", "hypergraphs", "thm8.3", keys=("rho_gr",))
def check_incidence_double(h: Hypergraph, rep: InvariantReport, cap=None) -> CheckResult:
    """Incidence graph value is exactly twice the covering number."""
    rho_gr = rep.value("rho_gr")
    grt, _ = solver.grundy_total_domination_number(incidence_graph(h), cap)
    notes = (
        f"n={h.n_vertices} edges={len(h.edges)}: rho_gr={rho_gr}, "
        f"gamma_grt(incidence)={grt}",
    )
    if grt != 2 * rho_gr:
        return _fail("incidence-double", h, f"gamma_grt={grt} != 2*rho_gr={2 * rho_gr}", notes)
    return _pass("incidence-double", notes)


@_checker("covering-interpolation", "hypergraphs", "thm8.1", keys=("rho", "rho_gr"))
def check_covering_interpolation(
    h: Hypergraph, rep: InvariantReport, cap=None
) -> CheckResult:
    """Every length between minimum cover and covering number is realized."""
    for length in range(rep.value("rho"), rep.value("rho_gr") + 1):
        if covering_sequence_of_length(h, length, cap) is None:
            why = f"no covering sequence of length {length}"
            return _fail("covering-interpolation", h, why)
    return _pass("covering-interpolation")


# -- the runner --------------------------------------------------------------


def run_checks(names, items, item_kind: str, cap=None) -> list[CheckResult]:
    """Run the named checkers, in order, over items one instance at a time.

    item_kind says what the items are ('hypergraphs' or a graph kind); a
    checker that expects the other sort is a usage error.  Graphs with an
    isolated vertex are skipped.  The checkers share one report per
    instance, computed with only the invariants they declare; the report
    is never kept past its instance.  A checker whose predicate rejects an
    instance adds nothing for it (it would be untested), and an instance
    that no checker covers is not solved.
    """
    defs = [REGISTRY[name] for name in names]
    for d in defs:
        if (d.kind == "hypergraphs") != (item_kind == "hypergraphs"):
            raise GrundyTDError(
                f"check {d.name!r} expects {d.kind} but the source provides {item_kind}"
            )
    on_hypergraphs = item_kind == "hypergraphs"
    known = _HYPERGRAPH_INVARIANTS if on_hypergraphs else solver.INVARIANT_KEYS
    keys = [k for k in known if any(k in d.keys for d in defs)]
    tallies = [_Collector(d.name) for d in defs]
    for item in items:
        if not on_hypergraphs and item.has_isolated_vertex():
            continue
        covering = [
            (d, tally)
            for d, tally in zip(defs, tallies)
            if d.applies is None or d.applies(item)
        ]
        if not covering:
            continue
        rep = None
        if keys and on_hypergraphs:
            rep = hypergraph_report(item, keys, cap)
        elif keys:
            rep = solver.compute_report(item, keys, cap)
        for d, tally in covering:
            tally.add(d.run(item, rep, cap))
    return [tally.result() for tally in tallies]


TOKENS: dict[str, str] = {}
SUITES: dict[str, tuple[str, ...]] = {}
for _d in REGISTRY.values():
    TOKENS[_d.name] = _d.name
    for _a in _d.aliases:
        TOKENS[_a] = _d.name
    SUITES[_d.kind] = SUITES.get(_d.kind, ()) + (_d.name,)
