"""Text formats: graph6, plain edge lists and hypergraph lists.

graph6 is the compact printable encoding of an undirected graph: a length
header followed by the upper triangle of the adjacency matrix in column
order, packed six bits per printable character (offset 63).  The edge-list
and hypergraph formats are line oriented with '#' comments; parse errors
carry 1-based line numbers.
"""

from __future__ import annotations

import math
import re

from .errors import ParameterError, ParseError
from .graph import MAX_ORDER, Graph, bits, check_adjacency_bits

# -- graph6 -----------------------------------------------------------------

_G6_HEADER = ">>graph6<<"
_G6_SET_BITS = re.compile(r"[^?]")  # '?' is six zero bits


def graph_to_graph6(g: Graph) -> str:
    n = g.n
    if n <= 62:
        out = [chr(n + 63)]
    elif n <= MAX_ORDER:
        out = [chr(126), chr((n >> 12) + 63), chr(((n >> 6) & 63) + 63), chr((n & 63) + 63)]
    else:
        raise ParameterError(f"graph6 encoding supported up to n = {MAX_ORDER}")
    acc = 0
    nbits = 0
    for j in range(1, n):
        for i in range(j):
            acc = (acc << 1) | ((g.adj[i] >> j) & 1)
            nbits += 1
            if nbits == 6:
                out.append(chr(acc + 63))
                acc = 0
                nbits = 0
    if nbits:
        acc <<= 6 - nbits
        out.append(chr(acc + 63))
    return "".join(out)


def graph_from_graph6(text: str, line: int | None = None) -> Graph:
    s = text.strip().removeprefix(_G6_HEADER)
    if not s:
        raise ParseError("empty graph6 string", line)
    if min(s) < "?" or max(s) > "~":
        raise ParseError("graph6 character out of range", line)
    n, start = ord(s[0]) - 63, 1
    if n == 63:
        head = [ord(c) - 63 for c in s[1:4]]
        if len(head) < 3:
            raise ParseError("truncated graph6 length header", line)
        if head[0] == 63:
            raise ParseError(f"graph6 orders beyond {MAX_ORDER} not supported", line)
        n, start = (head[0] << 12) | (head[1] << 6) | head[2], 4
    if n < 1:
        raise ParseError("graph6 order must be >= 1", line)
    pairs = n * (n - 1) // 2
    need, body = (pairs + 5) // 6, len(s) - start
    if body != need:
        raise ParseError(f"graph6 body has {body} characters, expected {need}", line)
    # bit k of the body is the pair (i, j) with k = j(j-1)/2 + i; bits past
    # the last pair pad the last character
    rows = [0] * n
    for found in _G6_SET_BITS.finditer(s, start):
        d = ord(found.group()) - 63
        for b in range(6):
            k = 6 * (found.start() - start) + b
            if (d >> (5 - b)) & 1 and k < pairs:
                j = (1 + math.isqrt(8 * k + 1)) // 2
                i = k - j * (j - 1) // 2
                rows[i] |= 1 << j
                rows[j] |= 1 << i
    return Graph(n, tuple(rows))


# -- edge list ---------------------------------------------------------------


def _content_lines(text: str):
    for lineno, raw in enumerate(text.splitlines(), start=1):
        stripped = raw.split("#", 1)[0].strip()
        if stripped:
            yield lineno, stripped


def _ints(parts, lineno: int) -> list[int]:
    out = []
    for p in parts:
        try:
            out.append(int(p))
        except ValueError:
            raise ParseError(f"expected an integer, got {p!r}", lineno) from None
    return out


def graph_to_edge_list(g: Graph) -> str:
    lines = [f"{g.n} {g.edge_count()}"]
    lines += [f"{u} {v}" for u, v in g.edges()]
    return "\n".join(lines) + "\n"


def graph_from_edge_list(text: str) -> Graph:
    it = _content_lines(text)
    try:
        lineno, head = next(it)
    except StopIteration:
        raise ParseError("empty edge list input") from None
    parts = head.split()
    if len(parts) != 2:
        raise ParseError("header must be '<order> <edge count>'", lineno)
    n, m = _ints(parts, lineno)
    if n < 1:
        raise ParseError(f"order must be >= 1, got {n}", lineno)
    if n > MAX_ORDER:
        raise ParseError(f"orders beyond {MAX_ORDER} not supported", lineno)
    try:
        check_adjacency_bits(n)
    except ParameterError as exc:
        raise ParseError(str(exc), lineno) from None
    edges = []
    for lineno, line in it:
        parts = line.split()
        if len(parts) != 2:
            raise ParseError("edge lines must be '<u> <v>'", lineno)
        u, v = _ints(parts, lineno)
        if not (0 <= u < n and 0 <= v < n):
            raise ParseError(f"edge ({u},{v}) out of range for order {n}", lineno)
        if u == v:
            raise ParseError(f"self-loop at vertex {u}", lineno)
        edges.append((u, v))
    if len(edges) != m:
        raise ParseError(f"header promised {m} edges, found {len(edges)}")
    return Graph.from_edges(n, edges)


# -- hypergraph --------------------------------------------------------------


def hypergraph_to_text(h) -> str:
    lines = [f"{h.n_vertices} {len(h.edges)}"]
    for mask in h.edges:
        lines.append(" ".join(str(x) for x in bits(mask)))
    return "\n".join(lines) + "\n"


def hypergraph_from_text(text: str):
    from .hypergraph import Hypergraph

    it = _content_lines(text)
    try:
        lineno, head = next(it)
    except StopIteration:
        raise ParseError("empty hypergraph input") from None
    parts = head.split()
    if len(parts) != 2:
        raise ParseError("header must be '<ground size> <edge count>'", lineno)
    nx, ne = _ints(parts, lineno)
    if nx < 1 or ne < 1:
        raise ParseError("ground size and edge count must be >= 1", lineno)
    if nx > MAX_ORDER:
        raise ParseError(f"ground sizes beyond {MAX_ORDER} not supported", lineno)
    edge_lists = []
    for lineno, line in it:
        members = _ints(line.split(), lineno)
        if not members:
            raise ParseError("hyperedge line is empty", lineno)
        for x in members:
            if not (0 <= x < nx):
                raise ParseError(f"vertex {x} out of range for ground size {nx}", lineno)
        edge_lists.append(members)
    if len(edge_lists) != ne:
        raise ParseError(f"header promised {ne} hyperedges, found {len(edge_lists)}")
    try:
        return Hypergraph.from_edge_lists(nx, edge_lists)
    except ParameterError as exc:  # a ground vertex in no hyperedge
        raise ParseError(str(exc)) from None
