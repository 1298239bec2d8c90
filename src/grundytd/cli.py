"""Command-line front end.

Subcommands:

  compute   invariants of one or more graphs (or a hypergraph)
  verify    run a named checker against an input or its default corpus
  generate  write the graphs of a corpus source or a built-in family
  sweep     run a checker suite over a corpus source
  convert   translate between serialization formats

generate, sweep and verify's default corpora read one table of corpus
sources: connected:N, cubic:N, regular:N:K, trees:N:COUNT, random:N:COUNT:P,
hyper:COUNT, g6:PATH, family:SPEC and familyT:N[,N...].  Each yields one
instance at a time.  connected:N, cubic:N and regular:N:K are exactly order
N in generate, and every order up to N in sweep and the defaults.

Exit codes: 0 pass, 1 violation found, 2 usage or input problem,
3 capacity exceeded.  --cap raises the solver cap (24 by default), which
bounds the graph order, a hypergraph's ground size, and, for transversal
sequences, its edge count.
"""

from __future__ import annotations

import argparse
import itertools
import json
import math
import random
import sys
from typing import TYPE_CHECKING

from .errors import CapacityError, GrundyTDError, InvariantViolation, ParseError
from .formats import (
    graph_from_graph6,
    graph_to_edge_list,
    graph_to_graph6,
    graphs_from_edge_list,
    hypergraph_from_text,
    hypergraph_to_text,
)
from .graph import Graph, build_family
from .smallgraphs import (
    connected_cubic_graphs,
    connected_graphs,
    connected_regular_graphs,
    random_connected_graph,
    random_hypergraph,
    random_tree,
)

# solver, checks, theorems and hypergraph are imported inside the commands
# that run them, so start-up loads only what the command needs.
if TYPE_CHECKING:
    from .checks import CheckResult


def _read_text(path: str) -> str:
    if path == "-":
        return sys.stdin.read()
    with open(path, encoding="utf-8") as fh:
        return fh.read()


def _graphs_from_text(text: str, fmt: str) -> list[Graph]:
    if fmt == "g6":
        lines = enumerate(text.splitlines(), start=1)
        graphs = [graph_from_graph6(line.strip(), i) for i, line in lines if line.strip()]
        if not graphs:
            raise ParseError("empty graph6 input")
        return graphs
    if fmt == "edges":
        return graphs_from_edge_list(text)
    raise GrundyTDError(f"unsupported graph format {fmt!r}")


def _load_graphs(args) -> list[Graph] | None:
    if getattr(args, "family", None):
        return [build_family(args.family)]
    if getattr(args, "graph", None):
        return _graphs_from_text(_read_text(args.graph), args.format or "g6")
    return None


# -- corpus sources -----------------------------------------------------------------


def _source_number(source: str, text: str, least, most=math.inf, kind=int):
    try:
        value = kind(text)
    except ValueError:
        raise GrundyTDError(f"bad source {source!r}: {text!r} is not a number") from None
    if value < least:
        raise GrundyTDError(f"bad source {source!r}: {text} is below {least}")
    if not value <= most:  # not value > most, so that nan is refused too
        raise GrundyTDError(f"bad source {source!r}: {text} is not at most {most}")
    return value


def _orders(build, first: int, step: int = 1):
    """The parse of an enumeration: build(N) for the order N, or with upto every
    order from first up to N.  The top order is built first, so that one above
    the limit fails at once."""

    def parse(source, rest, rng, upto):
        n = _source_number(source, rest, 0)
        top = build(n)
        return (g for k in range(first, n + 1, step) for g in build(k)) if upto else top

    return parse


def _regular(source, rest, rng, upto):
    n_text, _, k_text = rest.partition(":")
    k = _source_number(source, k_text, 0)
    return _orders(lambda n: connected_regular_graphs(n, k), k + 1)(source, n_text, rng, upto)


def _random_trees(source, rest, rng, upto):
    n_text, _, count_text = rest.partition(":")
    n = _source_number(source, n_text, 1)
    count = _source_number(source, count_text or "100", 0)
    return (random_tree(n, rng) for _ in range(count))


def _random_graphs(source, rest, rng, upto):
    parts = rest.split(":")
    if len(parts) != 3:
        raise GrundyTDError("random source is random:N:COUNT:EDGE_PROB")
    n = _source_number(source, parts[0], 1)
    count = _source_number(source, parts[1], 0)
    p = _source_number(source, parts[2], 0, 1, float)
    return (random_connected_graph(n, p, rng) for _ in range(count))


def _random_hypergraphs(source, rest, rng, upto):
    count = _source_number(source, rest or "100", 0)
    return (random_hypergraph(rng) for _ in range(count))


def _family_t(source, rest, rng, upto):
    from .theorems import family_t_members

    members = [family_t_members(_source_number(source, n, 0)) for n in rest.split(",")]
    return (t for pairs in members for t, _ in pairs)


# Every corpus that generate, sweep and verify's defaults read: spelling head ->
# (kind, parse).  parse(source, rest, rng, upto) checks the text after the head
# and the order limit, then returns a lazy iterable of instances.  With upto
# (sweep and the defaults), connected:N, cubic:N and regular:N:K give every
# order up to N; without it (generate), exactly order N.  The enumerators are
# looked up at each call, never held here, so that they can be rebound.
_SOURCES = {
    "connected": ("graphs", _orders(lambda n: connected_graphs(n), 2)),
    "cubic": ("graphs", _orders(lambda n: connected_cubic_graphs(n), 4, 2)),
    "regular": ("graphs", _regular),
    "trees": ("graphs", _random_trees),
    "random": ("graphs", _random_graphs),
    "familyT": ("graphs", _family_t),
    "family": ("graphs", lambda s, rest, rng, upto: [build_family(rest)]),
    "g6": ("graphs", lambda s, rest, rng, upto: _graphs_from_text(_read_text(rest), "g6")),
    "hyper": ("hypergraphs", _random_hypergraphs),
}


def _source(source: str, rng: random.Random, upto: bool):
    """(kind, instances) for a source spelling; random sources draw from rng."""
    head, _, rest = source.partition(":")
    if head not in _SOURCES:
        raise GrundyTDError(
            f"unknown sweep source {source!r}; use connected:N, cubic:N, regular:N:K, "
            "trees:N:COUNT, random:N:COUNT:P, hyper:COUNT, g6:PATH, family:SPEC, or familyT:N"
        )
    kind, parse = _SOURCES[head]
    return kind, parse(source, rest, rng, upto)


# -- compute -------------------------------------------------------------------


def _invariant_keys(args) -> tuple[str, ...]:
    from . import solver

    if getattr(args, "all", False) or not args.invariant:
        return solver.INVARIANT_KEYS
    keys = []
    for token in args.invariant.split(","):
        token = token.strip()
        if token == "all":
            return solver.INVARIANT_KEYS
        if token not in solver.TOKEN_TO_KEY:
            raise GrundyTDError(
                f"unknown invariant {token!r}; choose from "
                + ",".join(solver.TOKEN_TO_KEY)
            )
        keys.append(solver.TOKEN_TO_KEY[token])
    return tuple(dict.fromkeys(keys))


def _print_report(g: Graph, rep, index: int, total: int) -> None:
    head = f"graph {index + 1}/{total}: " if total > 1 else ""
    print(f"{head}n={rep.n} edges={rep.edge_count}")
    for key, res in rep.results.items():
        wit = " ".join(str(v) for v in res.witness)
        print(f"  {key} = {res.value}   witness: {wit}   [{res.micros} us]")


def cmd_compute(args) -> int:
    graphs = _load_graphs(args)
    if graphs is None:
        if not args.hypergraph:
            raise GrundyTDError("compute needs --family, --graph, or --hypergraph")
        if args.invariant:
            raise GrundyTDError("--invariant applies to graphs, not to --hypergraph")
        h = hypergraph_from_text(_read_text(args.hypergraph))
        from . import checks

        rep = checks.hypergraph_report(h, cap=args.cap)
        payload = {"n_vertices": h.n_vertices, "n_edges": len(h.edges)}
        for key, res in rep.results.items():
            payload[key] = {"value": res.value, "witness": list(res.witness)}
        if args.json:
            json.dump(payload, sys.stdout, indent=2)
            print()
        else:
            print(f"n={h.n_vertices} hyperedges={len(h.edges)}")
            for key, res in rep.results.items():
                wit = " ".join(str(v) for v in res.witness)
                print(f"  {key} = {res.value}   witness: {wit}")
        return 0
    from . import solver

    keys = _invariant_keys(args)
    reports = [solver.compute_report(g, keys=keys, cap=args.cap) for g in graphs]
    if args.json:
        json.dump({"reports": [r.to_json_dict() for r in reports]}, sys.stdout, indent=2)
        print()
    else:
        for i, (g, rep) in enumerate(zip(graphs, reports)):
            _print_report(g, rep, i, len(reports))
    return 0


# -- verify ---------------------------------------------------------------------


# verify's default corpora, one tuple of sources per checker kind, drawn with
# one random.Random(--seed) shared across the tuple
_DEFAULT_SOURCES = {
    "graphs": ("connected:6",),
    "trees": ("familyT:2,5,8,11", "trees:8:30", "trees:10:30", "trees:12:30"),
    "regular": ("cubic:8", "family:petersen", "family:gm:4", "family:gm:3:2"),
    "hypergraphs": ("hyper:60",),
}


def _verify_items(kind: str, args):
    """(items, item kind): the given input, with its own kind, else the
    default corpus of the checker's kind."""
    graphs = _load_graphs(args)
    if graphs is not None:
        return graphs, "graphs"
    if args.hypergraph:
        return [hypergraph_from_text(_read_text(args.hypergraph))], "hypergraphs"
    rng = random.Random(args.seed)
    sources = (_source(spec, rng, upto=True)[1] for spec in _DEFAULT_SOURCES[kind])
    return itertools.chain.from_iterable(sources), kind


def _check_record(res: CheckResult) -> dict:
    return {
        "check": res.name,
        "passed": res.passed,
        "tested": res.tested,
        "counterexamples": list(res.counterexamples),
    }


def _emit_check(res: CheckResult, as_json: bool, notes: bool = True) -> None:
    if as_json:
        json.dump({**_check_record(res), "notes": list(res.notes)}, sys.stdout)
        print()
        return
    for note in res.notes[:20] if notes else ():
        print(f"  {note}")
    verdict = "PASS" if res.passed else "FAIL"
    print(f"{res.name}: {verdict} (tested {res.tested})")
    for ce in res.counterexamples:
        print(f"  counterexample: {ce}")


def cmd_verify(args) -> int:
    from . import checks

    token = args.check
    if token not in checks.TOKENS:
        raise GrundyTDError(
            f"unknown check {token!r}; available: " + ", ".join(sorted(checks.TOKENS))
        )
    d = checks.REGISTRY[checks.TOKENS[token]]
    [res] = checks.run_checks([d.name], *_verify_items(d.kind, args), args.cap)
    _emit_check(res, args.json)
    return 0 if res.passed else 1


# -- generate ---------------------------------------------------------------------


def _emit_graphs(graphs, fmt: str, as_json: bool = False, certify: bool = False) -> None:
    """Write graphs as they come; --json collects its records first, with each
    family T member's certificate when certify is set."""
    if as_json:
        if certify:
            from .theorems import is_in_family_t
        records = []
        for g in graphs:
            records.append({"n": g.n, "edges": [list(e) for e in g.edges()]})
            if certify:
                cert = is_in_family_t(g)
                records[-1]["certificate"] = {
                    "base": list(cert.base),
                    "steps": [[v, list(path)] for v, path in cert.steps],
                }
        json.dump({"graphs": records}, sys.stdout, indent=2)
        print()
        return
    for i, g in enumerate(graphs):
        if fmt == "g6":
            print(graph_to_graph6(g))
        else:
            if i:
                print()
            sys.stdout.write(graph_to_edge_list(g))


def cmd_generate(args) -> int:
    what = args.what
    if what == "familyT":
        if args.n is None:
            raise GrundyTDError("generate familyT needs --n")
        what = f"familyT:{args.n}"
    if args.limit is not None and args.limit < 0:
        raise GrundyTDError(f"--limit {args.limit} is below 0")
    if what.partition(":")[0] not in _SOURCES:
        _emit_graphs([build_family(what)], args.format or "g6", args.json)
        return 0
    kind, graphs = _source(what, random.Random(0), upto=False)
    if kind != "graphs":
        raise GrundyTDError(f"generate writes graphs, but {what!r} gives {kind}")
    if args.what == "familyT" and args.n % 3 != 2:
        print(f"no members of order {args.n}: orders are 2 mod 3 (2, 5, 8, ...)", file=sys.stderr)
    graphs = itertools.islice(graphs, args.limit)
    _emit_graphs(graphs, args.format or "g6", args.json, what.startswith("familyT:"))
    return 0


# -- sweep -----------------------------------------------------------------------


def cmd_sweep(args) -> int:
    from . import checks

    item_kind, items = _source(args.source, random.Random(args.seed), upto=True)
    if args.checks:
        names = []
        for token in args.checks.split(","):
            token = token.strip()
            if token not in checks.TOKENS:
                raise GrundyTDError(f"unknown check {token!r}")
            names.append(checks.TOKENS[token])
    else:
        suite = args.suite or item_kind
        if suite not in checks.SUITES:
            raise GrundyTDError(
                f"unknown suite {suite!r}; available: " + ", ".join(checks.SUITES)
            )
        names = list(checks.SUITES[suite])
    # zip draws an item before its count, so the count ends at the items consumed
    consumed = itertools.count()
    items = (item for item, _ in zip(items, consumed))
    results = checks.run_checks(names, items, item_kind, args.cap)
    passed = all(r.passed for r in results)
    if args.json:
        records = [_check_record(r) for r in results]
        doc = {"source": args.source, "passed": passed, "results": records}
        json.dump(doc, sys.stdout, indent=2)
        print()
    else:
        print(f"source {args.source}: {next(consumed)} instances")
        for r in results:
            _emit_check(r, False, notes=False)
    return 0 if passed else 1


# -- convert ----------------------------------------------------------------------


def cmd_convert(args) -> int:
    text = _read_text(args.input)
    src, dst = args.format, args.to
    if src is None:
        raise GrundyTDError("convert needs --format for the input")
    if src == "hyper" or dst == "hyper":
        if src != "hyper" or dst != "hyper":
            raise GrundyTDError("hypergraphs only convert to hypergraph format")
        sys.stdout.write(hypergraph_to_text(hypergraph_from_text(text)))
        return 0
    _emit_graphs(_graphs_from_text(text, src), dst)
    return 0


# -- parser ------------------------------------------------------------------------


def _add_input_flags(p: argparse.ArgumentParser) -> None:
    one = p.add_mutually_exclusive_group()
    one.add_argument("--family", help="inline family spec, e.g. path:7 or gm:4")
    one.add_argument("--graph", help="graph file path, or - for stdin")
    one.add_argument("--hypergraph", help="hypergraph file path, or - for stdin")
    p.add_argument(
        "--format", choices=("g6", "edges", "hyper"), help="input format (default g6)"
    )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="grundytd",
        description="total dominating sequences, their Grundy-type invariants, "
        "and hypergraph covering sequences",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("compute", help="compute invariants of an input")
    _add_input_flags(p)
    p.add_argument("--invariant", help="comma list: gt,Gt,gtg,grt,gr,nus,nuss,all")
    p.add_argument("--all", action="store_true", help="compute every invariant")
    p.add_argument("--cap", type=int, help="solver size cap (default 24)")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_compute)

    p = sub.add_parser("verify", help="run a named checker")
    p.add_argument("check", help="checker name or token, e.g. thm4.2 or order-labeling")
    _add_input_flags(p)
    p.add_argument("--cap", type=int)
    p.add_argument("--seed", type=int, default=0, help="seed for default random corpora")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("generate", help="write the graphs of a source or a family")
    p.add_argument(
        "what",
        help="a graph source of sweep (connected:N, cubic:N and regular:N:K of order "
        "exactly N; random ones draw with seed 0), familyT (with --n), or a family "
        "spec (path:7, gm:4, ...)",
    )
    p.add_argument("--n", type=int, help="order for familyT")
    p.add_argument("--limit", type=int, help="write at most this many graphs")
    p.add_argument("--format", choices=("g6", "edges"))
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_generate)

    p = sub.add_parser("sweep", help="run a checker suite over a source")
    p.add_argument(
        "source",
        help="connected:N, cubic:N or regular:N:K (every order up to N), trees:N:COUNT, "
        "random:N:COUNT:P, hyper:COUNT, g6:PATH, family:SPEC, or familyT:N[,N...]",
    )
    p.add_argument(
        "--suite",
        help="checker suite (default graphs, or hypergraphs for hyper:COUNT); "
        "an unknown name lists the suites",
    )
    p.add_argument("--checks", help="comma list of checker names or tokens")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--cap", type=int)
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_sweep)

    p = sub.add_parser("convert", help="translate between formats")
    p.add_argument("input", help="file path, or - for stdin")
    p.add_argument("--format", choices=("g6", "edges", "hyper"), help="input format")
    p.add_argument("--to", required=True, choices=("g6", "edges", "hyper"))
    p.set_defaults(func=cmd_convert)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except CapacityError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except InvariantViolation as exc:
        print(f"violation: {exc}", file=sys.stderr)
        return 1
    except (GrundyTDError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
