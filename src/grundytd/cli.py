"""Command-line front end.

Subcommands:

  compute   invariants of one or more graphs (or a hypergraph)
  verify    run a named checker against an input or its default corpus
  generate  emit members of built-in families or enumerations
  sweep     run a checker suite over an enumeration source
  convert   translate between serialization formats

Exit codes: 0 pass, 1 violation found, 2 usage or input problem,
3 capacity exceeded.  --cap raises the solver cap (24 by default), which
bounds the graph order, a hypergraph's ground size, and, for transversal
sequences, its edge count.
"""

from __future__ import annotations

import argparse
import json
import random
import sys
from typing import TYPE_CHECKING

from .errors import CapacityError, GrundyTDError, InvariantViolation
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
    random_connected_graph,
    random_hypergraph,
    random_tree,
)

# solver, checks, theorems and hypergraph are imported inside the commands
# that run them, so start-up loads only what the command needs.
if TYPE_CHECKING:
    from .checks import CheckResult
    from .hypergraph import Hypergraph


def _read_text(path: str) -> str:
    if path == "-":
        return sys.stdin.read()
    with open(path, encoding="utf-8") as fh:
        return fh.read()


def _graphs_from_text(text: str, fmt: str) -> list[Graph]:
    if fmt == "g6":
        out = []
        for lineno, line in enumerate(text.splitlines(), start=1):
            line = line.strip()
            if line:
                out.append(graph_from_graph6(line, lineno))
        return out
    if fmt == "edges":
        return graphs_from_edge_list(text)
    raise GrundyTDError(f"unsupported graph format {fmt!r}")


def _load_graphs(args) -> list[Graph] | None:
    if getattr(args, "family", None):
        return [build_family(args.family)]
    if getattr(args, "graph", None):
        return _graphs_from_text(_read_text(args.graph), args.format or "g6")
    return None


def _load_hypergraph(args) -> Hypergraph | None:
    if getattr(args, "hypergraph", None):
        return hypergraph_from_text(_read_text(args.hypergraph))
    return None


# -- default corpora for verify ------------------------------------------------


def _default_graphs() -> list[Graph]:
    out = []
    for n in range(2, 7):
        out.extend(connected_graphs(n))
    return out


def _default_trees(seed: int) -> list[Graph]:
    from .theorems import family_t_members

    out = []
    for n in (2, 5, 8, 11):
        out.extend(t for t, _ in family_t_members(n))
    rng = random.Random(seed)
    for n in (8, 10, 12):
        out.extend(random_tree(n, rng) for _ in range(30))
    return out


def _default_regular() -> list[Graph]:
    out = []
    for n in (4, 6, 8):
        out.extend(connected_cubic_graphs(n))
    out.append(build_family("petersen"))
    out.append(build_family("gm:4"))
    out.append(build_family("gm:3:2"))
    return out


def _default_hypergraphs(seed: int) -> list[Hypergraph]:
    rng = random.Random(seed)
    return [random_hypergraph(rng) for _ in range(60)]


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
        h = _load_hypergraph(args)
        if h is None:
            raise GrundyTDError("compute needs --family, --graph, or --hypergraph")
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


def _items_for_kind(kind: str, args):
    if kind == "hypergraphs":
        h = _load_hypergraph(args)
        if h is not None:
            return [h]
        return _default_hypergraphs(args.seed)
    graphs = _load_graphs(args)
    if graphs is not None:
        return graphs
    if kind == "trees":
        return _default_trees(args.seed)
    if kind == "regular":
        return _default_regular()
    return _default_graphs()


def _emit_check(res: CheckResult, as_json: bool) -> None:
    if as_json:
        json.dump(
            {
                "check": res.name,
                "passed": res.passed,
                "tested": res.tested,
                "counterexamples": list(res.counterexamples),
                "notes": list(res.notes),
            },
            sys.stdout,
        )
        print()
        return
    for note in res.notes[:20]:
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
    [res] = checks.run_checks([d.name], _items_for_kind(d.kind, args), d.kind, args.cap)
    _emit_check(res, args.json)
    return 0 if res.passed else 1


# -- generate ---------------------------------------------------------------------


def _emit_graphs(graphs, fmt: str, as_json: bool = False, certificates=None) -> None:
    if as_json:
        records = [{"n": g.n, "edges": [list(e) for e in g.edges()]} for g in graphs]
        for rec, cert in zip(records, certificates or ()):
            rec["certificate"] = {
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
    limit = args.limit
    fmt = args.format or "g6"
    if what == "familyT":
        if args.n is None:
            raise GrundyTDError("generate familyT needs --n")
        from .theorems import family_t_members

        members = family_t_members(args.n)
        if not members:
            print(
                f"no members of order {args.n}: orders are 2 mod 3 (2, 5, 8, ...)",
                file=sys.stderr,
            )
            return 0
        if limit is not None:
            members = members[:limit]
        _emit_graphs([t for t, _ in members], fmt, args.json, [c for _, c in members])
        return 0
    if what.startswith("connected:") or what.startswith("cubic:"):
        kind, _, rest = what.partition(":")
        n = _source_number(what, rest, 0)
        graphs = connected_graphs(n) if kind == "connected" else connected_cubic_graphs(n)
        if limit is not None:
            graphs = graphs[:limit]
        _emit_graphs(graphs, fmt, args.json)
        return 0
    _emit_graphs([build_family(what)], fmt, args.json)
    return 0


# -- sweep -----------------------------------------------------------------------


def _source_number(source: str, text: str, least: int, kind=int):
    try:
        value = kind(text)
    except ValueError:
        raise GrundyTDError(f"bad source {source!r}: {text!r} is not a number") from None
    if value < least:
        raise GrundyTDError(f"bad source {source!r}: {text} is below {least}")
    return value


def _sweep_items(source: str, seed: int):
    """Returns (items, kind) where kind is 'graphs' or 'hypergraphs'."""
    head, _, rest = source.partition(":")
    rng = random.Random(seed)
    # the top order is built first, so that one above the limit fails at once
    if head == "connected":
        n = _source_number(source, rest, 0)
        connected_graphs(n)
        return [g for k in range(2, n + 1) for g in connected_graphs(k)], "graphs"
    if head == "cubic":
        n = _source_number(source, rest, 0)
        connected_cubic_graphs(n)
        return [g for k in range(4, n + 1, 2) for g in connected_cubic_graphs(k)], "graphs"
    if head == "trees":
        n_str, _, count_str = rest.partition(":")
        n = _source_number(source, n_str, 1)
        count = _source_number(source, count_str or "100", 0)
        return [random_tree(n, rng) for _ in range(count)], "graphs"
    if head == "random":
        parts = rest.split(":")
        if len(parts) != 3:
            raise GrundyTDError("random source is random:N:COUNT:EDGE_PROB")
        n = _source_number(source, parts[0], 1)
        count = _source_number(source, parts[1], 0)
        p = _source_number(source, parts[2], 0, float)
        return [random_connected_graph(n, p, rng) for _ in range(count)], "graphs"
    if head == "hyper":
        count = _source_number(source, rest or "100", 0)
        return [random_hypergraph(rng) for _ in range(count)], "hypergraphs"
    if head == "g6":
        text = _read_text(rest)
        return _graphs_from_text(text, "g6"), "graphs"
    if head == "family":
        return [build_family(rest)], "graphs"
    raise GrundyTDError(
        f"unknown sweep source {source!r}; use connected:N, cubic:N, trees:N:COUNT, "
        "random:N:COUNT:P, hyper:COUNT, g6:PATH, or family:SPEC"
    )


def cmd_sweep(args) -> int:
    from . import checks

    items, item_kind = _sweep_items(args.source, args.seed)
    if args.checks:
        names = []
        for token in args.checks.split(","):
            token = token.strip()
            if token not in checks.TOKENS:
                raise GrundyTDError(f"unknown check {token!r}")
            names.append(checks.TOKENS[token])
    else:
        suite = args.suite
        if suite is None:
            suite = "hypergraphs" if item_kind == "hypergraphs" else "graphs"
        if suite not in checks.SUITES:
            raise GrundyTDError(
                f"unknown suite {suite!r}; available: " + ", ".join(checks.SUITES)
            )
        names = list(checks.SUITES[suite])
    results = checks.run_checks(names, items, item_kind, args.cap)
    if args.json:
        json.dump(
            {
                "source": args.source,
                "passed": all(r.passed for r in results),
                "results": [
                    {
                        "check": r.name,
                        "passed": r.passed,
                        "tested": r.tested,
                        "counterexamples": list(r.counterexamples),
                    }
                    for r in results
                ],
            },
            sys.stdout,
            indent=2,
        )
        print()
    else:
        print(f"source {args.source}: {len(items)} instances")
        for r in results:
            _emit_check(
                checks.CheckResult(r.name, r.passed, r.tested, r.counterexamples),
                False,
            )
    return 0 if all(r.passed for r in results) else 1


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
    p.add_argument("--family", help="inline family spec, e.g. path:7 or gm:4")
    p.add_argument("--graph", help="graph file path, or - for stdin")
    p.add_argument("--hypergraph", help="hypergraph file path, or - for stdin")
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

    p = sub.add_parser("generate", help="emit family members")
    p.add_argument(
        "what",
        help="family spec (path:7, gm:4, ...), familyT (with --n), "
        "connected:N, or cubic:N",
    )
    p.add_argument("--n", type=int, help="order for familyT")
    p.add_argument("--limit", type=int)
    p.add_argument("--format", choices=("g6", "edges"))
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_generate)

    p = sub.add_parser("sweep", help="run a checker suite over a source")
    p.add_argument(
        "source",
        help="connected:N, cubic:N, trees:N:COUNT, random:N:COUNT:P, "
        "hyper:COUNT, g6:PATH, family:SPEC",
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
    except GrundyTDError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
