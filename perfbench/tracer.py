"""Run the grundytd CLI once with span-recording wrappers around its layers.

Usage: python3 perfbench/tracer.py SPANS.json CLI-ARG...

Before calling grundytd.cli.main, this rebinds the module attributes the
program looks up at call time (engine kernels, canonical_form and the
enumerators, the solver functions that checks and theorems call, the
sequences re-checks in solver, the theorems and hypergraph functions that
checks calls, graph6 parse and emit) and the entries of checks.REGISTRY,
with wrappers that record one span each.  compute_report's dispatch table
holds the solver functions directly, so their time stays in the
compute_report span as solver self time.

Spans stay in memory and are written to SPANS.json when main returns, as
[name, parent index, start, end, extra] lists with times from
time.perf_counter (CLOCK_MONOTONIC on Linux, the clock the parent process
uses too).  Span 0 is cli.main itself.
"""

from __future__ import annotations

import dataclasses
import json
import sys
from time import perf_counter

from grundytd import checks, cli, engine, smallgraphs, solver, theorems
from workloads import KERNELS

SOLVER_FUNCTIONS = (
    "compute_report",
    "total_domination_number",
    "grundy_total_domination_number",
    "grundy_domination_number",
    "interpolation_witnesses",
    "total_dominating_sequence_of_length",
)
THEOREM_FUNCTIONS = (
    "bound_report",
    "find_pair_labeling",
    "pair_labeling_from_sequence",
    "verify_pair_labeling",
    "complete_multipartite_parts",
    "is_balanced_complete_bipartite",
    "regular_greedy_sequence",
    "tree_perfect_matching",
    "tree_matching_sequence",
    "tree_bound_report",
    "is_in_family_t",
)
HYPERGRAPH_FUNCTIONS = (
    "covering_sequence_of_length",
    "covering_to_transversal",
    "edge_cover_number",
    "grundy_covering_number",
    "grundy_transversal_number",
    "incidence_graph",
    "open_neighborhood_hypergraph",
    "transversal_to_covering",
)


class Tracer:
    def __init__(self) -> None:
        self.spans: list[list] = []
        self.stack = [-1]
        self.certificates: set[bytes] = set()

    def wrap(self, fn, name: str, extra=None):
        spans, stack = self.spans, self.stack

        def traced(*args, **kwargs):
            span = [name, stack[-1], 0.0, 0.0, None]
            stack.append(len(spans))
            spans.append(span)
            span[2] = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[3] = perf_counter()
                stack.pop()
            if extra is not None:
                span[4] = extra(args, result)
            return result

        return traced

    def rebind(self, module, attr: str, name: str, extra=None) -> None:
        setattr(module, attr, self.wrap(getattr(module, attr), name, extra))

    def canonical(self, args, cert) -> None:
        self.certificates.add(cert)

    def install(self) -> None:
        for kernel in KERNELS:
            # the universe is a bit mask, except max_matching's vertex count
            bits = (lambda a, r: a[1]) if kernel == "max_matching" else (
                lambda a, r: a[1].bit_length()
            )
            self.rebind(engine, kernel, f"engine.{kernel}", bits)
        for module in (smallgraphs, theorems):
            self.rebind(module, "canonical_form", "smallgraphs.canonical_form", self.canonical)
        for module in (smallgraphs, cli):
            for attr in ("connected_graphs", "connected_cubic_graphs"):
                self.rebind(module, attr, "smallgraphs.enumerate")
        for attr in SOLVER_FUNCTIONS:
            # compute_report runs one invariant per result entry
            count = (lambda a, r: len(r.results)) if attr == "compute_report" else None
            self.rebind(solver, attr, f"solver.{attr}", count)
        for attr in ("is_total_dominating_sequence", "is_dominating_sequence"):
            self.rebind(solver, attr, "sequences.recheck")
        for attr in THEOREM_FUNCTIONS:
            self.rebind(theorems, attr, f"theorems.{attr}")
        for attr in HYPERGRAPH_FUNCTIONS:
            self.rebind(checks, attr, f"hypergraph.{attr}")
        self.rebind(cli, "graph_from_graph6", "formats.graph_from_graph6")
        self.rebind(checks, "graph_to_graph6", "formats.graph_to_graph6")
        for key, d in checks.REGISTRY.items():
            run = self.wrap(d.run, f"checks.{d.name}", lambda a, r: r.tested)
            checks.REGISTRY[key] = dataclasses.replace(d, run=run)


def main(argv: list[str]) -> int:
    spans_path, cli_args = argv[0], argv[1:]
    tracer = Tracer()
    tracer.install()
    try:
        return tracer.wrap(cli.main, "cli")(cli_args)
    finally:
        doc = {"spans": tracer.spans, "classes": len(tracer.certificates)}
        with open(spans_path, "w", encoding="utf-8") as fh:
            fh.write(json.dumps(doc))


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
