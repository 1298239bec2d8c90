"""Undirected graphs as bitset adjacency rows, plus the named families.

Vertices are 0..n-1.  The adjacency of vertex v is a single int whose bit u
is set iff uv is an edge; Python ints grow as needed, so nothing here caps n
(the exact solvers apply their own size cap).  Graphs are immutable and
hashable on (n, adjacency).
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

from .errors import ParameterError


def bits(mask: int):
    """Yield the set bit positions of mask in ascending order."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


@dataclass(frozen=True)
class Graph:
    n: int
    adj: tuple[int, ...]

    def __post_init__(self):
        if self.n < 1:
            raise ParameterError(f"graph order must be >= 1, got {self.n}")
        if len(self.adj) != self.n:
            raise ParameterError(
                f"adjacency has {len(self.adj)} rows for order {self.n}"
            )
        full = (1 << self.n) - 1
        for v, row in enumerate(self.adj):
            if row & ~full:
                raise ParameterError(f"adjacency row of {v} mentions vertices >= n")
            if (row >> v) & 1:
                raise ParameterError(f"self-loop at vertex {v}")
        for u in range(self.n):
            for v in bits(self.adj[u]):
                if not (self.adj[v] >> u) & 1:
                    raise ParameterError(f"asymmetric adjacency between {u} and {v}")

    def __repr__(self):
        return f"Graph(n={self.n}, m={self.edge_count()})"

    @classmethod
    def from_edges(cls, n: int, edges) -> "Graph":
        if n < 1:
            raise ParameterError(f"graph order must be >= 1, got {n}")
        rows = [0] * n
        for u, v in edges:
            if not (0 <= u < n and 0 <= v < n):
                raise ParameterError(f"edge ({u},{v}) out of range for order {n}")
            if u == v:
                raise ParameterError(f"self-loop at vertex {u}")
            rows[u] |= 1 << v
            rows[v] |= 1 << u
        return cls(n, tuple(rows))

    # -- basic accessors ---------------------------------------------------

    @property
    def full_mask(self) -> int:
        return (1 << self.n) - 1

    def open_masks(self) -> list[int]:
        return list(self.adj)

    def closed_masks(self) -> list[int]:
        return [self.adj[v] | (1 << v) for v in range(self.n)]

    def degree(self, v: int) -> int:
        return self.adj[v].bit_count()

    def min_degree(self) -> int:
        return min(row.bit_count() for row in self.adj)

    def max_degree(self) -> int:
        return max(row.bit_count() for row in self.adj)

    def edges(self) -> list[tuple[int, int]]:
        out = []
        for u in range(self.n):
            for v in bits(self.adj[u] >> (u + 1)):
                out.append((u, u + 1 + v))
        return out

    def edge_count(self) -> int:
        return sum(row.bit_count() for row in self.adj) // 2

    def has_edge(self, u: int, v: int) -> bool:
        return bool((self.adj[u] >> v) & 1)

    def has_isolated_vertex(self) -> bool:
        return any(row == 0 for row in self.adj)


# -- structural predicates ------------------------------------------------


def strong_support_vertices(g: Graph) -> tuple[int, ...]:
    """The vertices adjacent to two or more leaves."""
    leaves = 0
    for v in range(g.n):
        if g.degree(v) == 1:
            leaves |= 1 << v
    return tuple(v for v in range(g.n) if (g.adj[v] & leaves).bit_count() >= 2)


def bipartition(g: Graph) -> tuple[tuple[int, ...], tuple[int, ...]] | None:
    """The two colour classes of a 2-colouring, or None if g is not bipartite.

    Each component's lowest vertex gets colour 0, so isolated vertices land
    on the first side.
    """
    color = [-1] * g.n
    for start in range(g.n):
        if color[start] != -1:
            continue
        color[start] = 0
        queue = [start]
        while queue:
            u = queue.pop()
            for v in bits(g.adj[u]):
                if color[v] == -1:
                    color[v] = color[u] ^ 1
                    queue.append(v)
                elif color[v] == color[u]:
                    return None
    return (
        tuple(v for v in range(g.n) if color[v] == 0),
        tuple(v for v in range(g.n) if color[v] == 1),
    )


def is_connected(g: Graph) -> bool:
    seen = 1
    frontier = 1
    while frontier:
        nxt = 0
        for v in bits(frontier):
            nxt |= g.adj[v]
        frontier = nxt & ~seen
        seen |= nxt
    return seen == g.full_mask


# -- named families --------------------------------------------------------


def path(n: int) -> Graph:
    if n < 1:
        raise ParameterError("path needs n >= 1")
    return Graph.from_edges(n, [(i, i + 1) for i in range(n - 1)])


def cycle(n: int) -> Graph:
    if n < 3:
        raise ParameterError("cycle needs n >= 3")
    return Graph.from_edges(n, [(i, (i + 1) % n) for i in range(n)])


def complete(n: int) -> Graph:
    if n < 1:
        raise ParameterError("complete graph needs n >= 1")
    return Graph.from_edges(n, itertools.combinations(range(n), 2))


def star(leaves: int) -> Graph:
    """K_{1,leaves}: vertex 0 is the center."""
    if leaves < 1:
        raise ParameterError("star needs at least one leaf")
    return Graph.from_edges(leaves + 1, [(0, i) for i in range(1, leaves + 1)])


def complete_multipartite(sizes) -> Graph:
    sizes = list(sizes)
    if not sizes or any(s < 1 for s in sizes):
        raise ParameterError("every part must have size >= 1")
    n = sum(sizes)
    part_of = []
    for p, s in enumerate(sizes):
        part_of.extend([p] * s)
    edges = [
        (u, v)
        for u in range(n)
        for v in range(u + 1, n)
        if part_of[u] != part_of[v]
    ]
    return Graph.from_edges(n, edges)


def complete_bipartite(a: int, b: int) -> Graph:
    return complete_multipartite([a, b])


def k_kk(k: int) -> Graph:
    """The balanced complete bipartite graph on k+k vertices."""
    if k < 1:
        raise ParameterError("k_kk needs k >= 1")
    return complete_bipartite(k, k)


def gm_graph(m: int, block_size: int = 1) -> Graph:
    """Block construction on m disjoint block pairs X_i, Y_i.

    A vertex of X_i is adjacent to a vertex of Y_j iff i != j; there are no
    other edges.  All blocks share the given size, so the result is
    (m-1)*block_size-regular on 2*m*block_size vertices.  gm_graph(4) is
    the cubic 8-vertex member, gm_graph(3, 2) the 4-regular 12-vertex one.
    """
    if m < 3:
        raise ParameterError("gm_graph needs m >= 3")
    if block_size < 1:
        raise ParameterError("block size must be >= 1")
    b = block_size
    n = 2 * m * b
    # X_i occupies [2*i*b, 2*i*b + b), Y_i the next b ids.
    edges = []
    for i in range(m):
        for j in range(m):
            if i == j:
                continue
            for s in range(b):
                for t in range(b):
                    edges.append((2 * i * b + s, 2 * j * b + b + t))
    return Graph.from_edges(n, edges)


def subset_bipartite(k: int) -> Graph:
    """Bipartite membership graph: 2k-1 ground elements vs their k-subsets.

    Side A is the ground set (ids 0..2k-2); side B has one vertex per
    k-element subset, adjacent to exactly its members.
    """
    if k < 2:
        raise ParameterError("subset_bipartite needs k >= 2")
    ground = 2 * k - 1
    subsets = list(itertools.combinations(range(ground), k))
    edges = []
    for j, s in enumerate(subsets):
        for x in s:
            edges.append((x, ground + j))
    return Graph.from_edges(ground + len(subsets), edges)


def spider(k: int) -> Graph:
    """k triangles sharing one common vertex (vertex 0); order 2k+1."""
    if k < 1:
        raise ParameterError("spider needs k >= 1")
    edges = []
    for i in range(k):
        a, b = 1 + 2 * i, 2 + 2 * i
        edges += [(0, a), (0, b), (a, b)]
    return Graph.from_edges(2 * k + 1, edges)


def tree_from_edges(n: int, edges) -> Graph:
    g = Graph.from_edges(n, edges)
    if g.edge_count() != n - 1 or not is_connected(g):
        raise ParameterError("edge list does not describe a tree")
    return g


def petersen() -> Graph:
    """The 3-regular graph on the 2-subsets of a 5-set, disjointness edges."""
    pairs = list(itertools.combinations(range(5), 2))
    idx = {p: i for i, p in enumerate(pairs)}
    edges = [
        (idx[p], idx[q])
        for p, q in itertools.combinations(pairs, 2)
        if not set(p) & set(q)
    ]
    return Graph.from_edges(10, edges)


# -- family spec strings (shared by the CLI and tests) ----------------------

_FAMILY_ALIASES = {
    "multipartite": "complete_multipartite",
    "gm": "family_gm",
    "gk": "subset_bipartite_gk",
    "kkk": "k_kk",
}


def build_family(spec: str) -> Graph:
    """Build a graph from a compact family spec like ``path:5``.

    Grammar: ``name[:params]`` with name one of path, cycle, complete, star,
    complete_multipartite (params a,b,...), k_kk, family_gm (m or m:blocksize),
    subset_bipartite_gk, spider, tree_from_edges (n:u-v,u-v,...), petersen.
    """
    head, _, rest = spec.partition(":")
    name = _FAMILY_ALIASES.get(head.strip().lower(), head.strip().lower())
    try:
        if name == "path":
            return path(int(rest))
        if name == "cycle":
            return cycle(int(rest))
        if name == "complete":
            return complete(int(rest))
        if name == "star":
            return star(int(rest))
        if name == "complete_multipartite":
            return complete_multipartite([int(x) for x in rest.split(",")])
        if name == "k_kk":
            return k_kk(int(rest))
        if name == "family_gm":
            parts = rest.split(":")
            m = int(parts[0])
            block = int(parts[1]) if len(parts) > 1 else 1
            return gm_graph(m, block)
        if name == "subset_bipartite_gk":
            return subset_bipartite(int(rest))
        if name == "spider":
            return spider(int(rest))
        if name == "tree_from_edges":
            head2, _, tail = rest.partition(":")
            edges = []
            for token in tail.split(","):
                a, _, b = token.partition("-")
                edges.append((int(a), int(b)))
            return tree_from_edges(int(head2), edges)
        if name == "petersen":
            return petersen()
    except ParameterError:
        raise
    except ValueError as exc:
        raise ParameterError(f"bad family spec {spec!r}: {exc}") from None
    raise ParameterError(f"unknown family {head!r}")
