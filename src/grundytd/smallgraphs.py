"""Small-graph enumeration, canonical forms, and random instance generators.

The sweeps need every connected graph up to order 8 and every connected
cubic graph up to order 12, one representative per isomorphism class.
Isomorph rejection uses a canonical form computed by color refinement plus
individualization: refine the coloring to a fixed point, split the first
non-singleton color class on each of its vertices in turn, and take the
minimum adjacency bitstring over the discrete leaves.

Refinement ranks the vertices by one integer each instead of a sorted
tuple of neighbour colours; _refine states the precondition under which
the ranks are the same.

The search is pruned by automorphisms (the orbit pruning of McKay and
Piperno, "Practical graph isomorphism, II", 2014).  Two leaves with the
same bitstring give an automorphism: the map from the first leaf's vertex
order to the second's.  Before branching on a vertex, the search skips it
when an automorphism found so far that fixes the individualized prefix
pointwise maps an already searched sibling onto it.  Refinement, the cell
choice and the leaf encoding all commute with automorphisms, so the
skipped subtree is an image of a searched one with the same bitstrings and
the minimum, hence the certificate, is exactly that of the full search
(tests/oracles.py keeps the full search as the reference).

connected_graphs skips most duplicate children before canonicalizing them,
by an edge-count rule and by the parent's automorphisms (see its
docstring); its output is that of trying every child, which
tests/oracles.py keeps as the reference.  The enumeration counts are
pinned to published values in the tests.
"""

from __future__ import annotations

import itertools
import random

from .errors import CapacityError
from .graph import Graph, bits

# The largest orders the enumerations are allowed to build.  Order 9 has
# 261,080 connected classes and took about 580 s; the 509 cubic graphs of
# order 14 took about 490 s (2 shared vCPUs).  Higher orders were not run.
MAX_CONNECTED_ORDER = 9
MAX_CUBIC_ORDER = 14

# -- canonical form ----------------------------------------------------------


def _refine(nbrs: list[list[int]], n: int, colors: list[int]) -> list[int]:
    # Precondition: every colour class of the input has one degree.  The
    # root starts from degree ranks, and individualizing a vertex of a
    # refined colouring keeps it.  Two vertices of a class then have
    # neighbour-colour multisets of equal size, whose sorted tuples compare
    # like their colour counts, lowest colour first, the larger count giving
    # the smaller tuple.  Counts are below base, so -sum(base**(top - c_u))
    # orders them the same way, and (c + 1) * span - sum orders by own colour
    # first.  Colour -1 (an individualized vertex) reads the last, largest
    # weight.
    base = n + 1
    while True:
        top = max(colors)
        weights = [base ** (top - c) for c in range(top + 1)]
        weights.append(base ** (top + 1))
        span = base ** (top + 2)
        w = [weights[c] for c in colors]
        w_at = w.__getitem__
        sigs = [(colors[v] + 1) * span - sum(map(w_at, nbrs[v])) for v in range(n)]
        remap = {s: i for i, s in enumerate(sorted(set(sigs)))}
        new = [remap[s] for s in sigs]
        if new == colors:
            return new
        colors = new


def _root(parent: list[int], x: int) -> int:
    while parent[x] != x:
        parent[x] = parent[parent[x]]
        x = parent[x]
    return x


def _search(adj, n: int) -> tuple[int, list[list[int]]]:
    """Smallest leaf adjacency integer and the automorphisms met on the way."""
    nbrs = [list(bits(adj[v])) for v in range(n)]
    best: int | None = None
    leaves: dict[int, list[int]] = {}  # adjacency integer -> first order giving it
    autos: list[list[int]] = []  # automorphisms found from equal leaves

    def leaf(colors: list[int]):
        nonlocal best
        order = sorted(range(n), key=colors.__getitem__)
        acc = 0
        for j in range(1, n):
            row = adj[order[j]]
            for i in range(j):
                acc = (acc << 1) | ((row >> order[i]) & 1)
        prev = leaves.get(acc)
        if prev is None:
            leaves[acc] = order
            if best is None or acc < best:
                best = acc
        else:
            perm = [0] * n
            for k in range(n):
                perm[prev[k]] = order[k]
            autos.append(perm)

    def search(colors: list[int], prefix: list[int]):
        colors = _refine(nbrs, n, colors)
        if max(colors) == n - 1:  # colours are ranks 0..k-1: discrete
            leaf(colors)
            return
        by_color: dict[int, list[int]] = {}
        for v, c in enumerate(colors):
            by_color.setdefault(c, []).append(v)
        cell = next(by_color[c] for c in range(len(by_color)) if len(by_color[c]) > 1)
        # Orbits of the automorphisms found so far that fix the prefix
        # pointwise, kept as a union-find; such an automorphism maps the
        # subtree of v onto the subtree of its image with equal leaf integers,
        # so only one vertex per orbit needs searching.
        orbit = list(range(n))
        used = 0
        explored: list[int] = []
        for v in cell:
            for perm in autos[used:]:
                if all(perm[p] == p for p in prefix):
                    for x in range(n):
                        a, b = _root(orbit, x), _root(orbit, perm[x])
                        if a != b:
                            orbit[a] = b
            used = len(autos)
            if used:
                root = _root(orbit, v)
                if any(_root(orbit, u) == root for u in explored):
                    continue
            explored.append(v)
            branched = list(colors)
            branched[v] = -1  # unique new color; refinement renumbers
            prefix.append(v)
            search(branched, prefix)
            prefix.pop()

    # The first refinement pass from one colour ranks vertices by degree.
    degrees = [len(row) for row in nbrs]
    rank = {d: i for i, d in enumerate(sorted(set(degrees)))}
    search([rank[d] for d in degrees], [])
    return best, autos


def canonical_form(adj, n: int) -> bytes:
    """Isomorphism-invariant certificate of a graph given as bitmask rows."""
    if n == 1:
        return (1).to_bytes(2, "big")
    best, _ = _search(adj, n)
    nbytes = max(1, (n * (n - 1) // 2 + 7) // 8)
    return n.to_bytes(2, "big") + best.to_bytes(nbytes, "big")


def graph_canonical_form(g: Graph) -> bytes:
    return canonical_form(g.adj, g.n)


def are_isomorphic(g: Graph, h: Graph) -> bool:
    return g.n == h.n and canonical_form(g.adj, g.n) == canonical_form(h.adj, h.n)


# -- exhaustive enumeration ----------------------------------------------------


def _check_order(n: int, limit: int, what: str) -> None:
    if n > limit:
        raise CapacityError(
            f"enumerating {what} graphs of order {n} is beyond the limit {limit}"
        )


_connected_cache: dict[int, list[Graph]] = {}


def _components_without(rows, n: int, v: int) -> list[int]:
    """Vertex masks of the components of the graph minus vertex v."""
    rest = ((1 << n) - 1) & ~(1 << v)
    comps = []
    while rest:
        comp = frontier = rest & -rest
        while frontier:
            nxt = 0
            for u in bits(frontier):
                nxt |= rows[u]
            frontier = nxt & rest & ~comp
            comp |= frontier
        comps.append(comp)
        rest &= ~comp
    return comps


def _neighborhood_representatives(parent: Graph) -> list[int]:
    """Smallest nonempty neighbourhood mask in each orbit of found automorphisms."""
    k = parent.n
    masks = range(1, 1 << k)
    _, autos = _search(parent.adj, k)
    if not autos:
        return list(masks)
    images = []  # images[i][m]: mask m mapped by the i-th automorphism
    for perm in autos:
        image = [0] * (1 << k)
        for m in masks:
            low = m & -m
            image[m] = image[m ^ low] | (1 << perm[low.bit_length() - 1])
        images.append(image)
    done = bytearray(1 << k)
    reps = []
    for nb in masks:
        if done[nb]:
            continue
        reps.append(nb)
        done[nb] = 1
        stack = [nb]
        while stack:
            m = stack.pop()
            for image in images:
                to = image[m]
                if not done[to]:
                    done[to] = 1
                    stack.append(to)
    return reps


def connected_graphs(n: int) -> list[Graph]:
    """All connected graphs of the given order, one per isomorphism class.

    Level augmentation: every connected graph on k vertices has a vertex
    whose removal leaves it connected, so attaching one new vertex w with
    every nonempty neighborhood to every connected (k-1)-vertex graph and
    deduplicating by canonical form reaches every class.  The result is
    sorted by (edge count, rows), and each class keeps the first child in
    parent order, then neighbourhood order, that reached it.

    Two rules skip a child before its canonical form is computed.  Each
    skips only children whose class an earlier child reached, so the result
    is exactly that of trying every child.
    - Degree rule: w has degree d.  If another vertex v has degree above d
      and the child minus v is connected, the child minus v has fewer edges
      than the parent, so its class is an earlier parent's in the sorted
      list, and every class reachable from an earlier parent was already
      seen (by induction on the parent index).  Ties go to the canonical
      form.
    - Orbit rule: an automorphism of the parent maps the child with
      neighbourhood nb onto an isomorphic child, so only the smallest mask
      of each orbit is tried; masks go up, so it comes first.  The orbits
      are those of the automorphisms that the parent's canonical search
      records, possibly of a subgroup, which only skips less.

    Orders above MAX_CONNECTED_ORDER raise CapacityError.
    """
    _check_order(n, MAX_CONNECTED_ORDER, "connected")
    if n < 1:
        return []
    if n in _connected_cache:
        return _connected_cache[n]
    if n == 1:
        result = [Graph(1, (0,))]
    else:
        result = []
        seen: set[bytes] = set()
        w = n - 1
        for parent in connected_graphs(n - 1):
            rows_base = [row for row in parent.adj]
            degrees = [row.bit_count() for row in rows_base]
            # components of the parent minus v, to tell whether child minus v
            # is connected: w must reach each of them
            splits = [(v, _components_without(rows_base, w, v)) for v in range(w)]
            for nb in _neighborhood_representatives(parent):
                d = nb.bit_count()
                if any(
                    degrees[v] + ((nb >> v) & 1) > d
                    and all(nb & comp for comp in comps)
                    for v, comps in splits
                ):
                    continue
                rows = rows_base + [nb]
                m = nb
                while m:
                    low = m & -m
                    rows[low.bit_length() - 1] |= 1 << w
                    m ^= low
                cert = canonical_form(rows, n)
                if cert not in seen:
                    seen.add(cert)
                    result.append(Graph(n, tuple(rows)))
        result.sort(key=lambda g: (g.edge_count(), g.adj))
    _connected_cache[n] = result
    return result


_cubic_cache: dict[int, list[Graph]] = {}


def connected_cubic_graphs(n: int) -> list[Graph]:
    """All connected 3-regular graphs of the given (even) order.

    Depth-first completion: repeatedly take the smallest vertex u with
    degree < 3 and branch over every way to finish its neighborhood with
    already-introduced deficient vertices plus a block of fresh ones (fresh
    ids are always taken in increasing order, so each labeled graph is
    produced along exactly one path).  Branches whose component saturates
    before absorbing all n vertices cannot end connected and are cut.
    Leaves are deduplicated by canonical form.  Orders above
    MAX_CUBIC_ORDER raise CapacityError.
    """
    _check_order(n, MAX_CUBIC_ORDER, "cubic")
    if n < 4 or n % 2:
        return []
    if n in _cubic_cache:
        return _cubic_cache[n]

    seen: set[bytes] = set()
    result: list[Graph] = []

    def component_saturated(rows, start) -> bool:
        comp = 1 << start
        frontier = comp
        while frontier:
            nxt = 0
            for v in bits(frontier):
                nxt |= rows[v]
            frontier = nxt & ~comp
            comp |= nxt
        return all(rows[v].bit_count() == 3 for v in bits(comp)) and (
            comp.bit_count() < n
        )

    def finish(rows, touched: int):
        u = -1
        for v in range(touched):
            if rows[v].bit_count() < 3:
                u = v
                break
        if u < 0:
            if touched < n:
                return  # all introduced vertices saturated, rest unreachable
            cert = canonical_form(rows, n)
            if cert not in seen:
                seen.add(cert)
                result.append(Graph(n, tuple(rows)))
            return
        missing = 3 - rows[u].bit_count()
        olds = [
            w
            for w in range(u + 1, touched)
            if rows[w].bit_count() < 3 and not (rows[u] >> w) & 1
        ]
        for fresh in range(min(missing, n - touched) + 1):
            take_old = missing - fresh
            if take_old > len(olds):
                continue
            for chosen in itertools.combinations(olds, take_old):
                new_rows = list(rows)
                ok = True
                for w in chosen:
                    new_rows[u] |= 1 << w
                    new_rows[w] |= 1 << u
                for t in range(fresh):
                    w = touched + t
                    new_rows[u] |= 1 << w
                    new_rows[w] |= 1 << u
                if component_saturated(new_rows, u):
                    ok = False
                if ok:
                    finish(new_rows, touched + fresh)

    start = [0] * n
    finish(start, 1)
    result.sort(key=lambda g: g.adj)
    _cubic_cache[n] = result
    return result


# -- random instances ----------------------------------------------------------


def random_tree(n: int, rng: random.Random) -> Graph:
    """Uniformly random labeled tree via a random parent code."""
    if n == 1:
        return Graph(1, (0,))
    if n == 2:
        return Graph.from_edges(2, [(0, 1)])
    code = [rng.randrange(n) for _ in range(n - 2)]
    deg = [1] * n
    for x in code:
        deg[x] += 1
    import heapq

    leaves = [v for v in range(n) if deg[v] == 1]
    heapq.heapify(leaves)
    edges = []
    for x in code:
        leaf = heapq.heappop(leaves)
        edges.append((leaf, x))
        deg[x] -= 1
        if deg[x] == 1:
            heapq.heappush(leaves, x)
    edges.append((heapq.heappop(leaves), heapq.heappop(leaves)))
    return Graph.from_edges(n, edges)


def random_connected_graph(n: int, p: float, rng: random.Random) -> Graph:
    """Random tree plus each extra edge independently with probability p."""
    tree = random_tree(n, rng)
    rows = list(tree.adj)
    for u in range(n):
        for v in range(u + 1, n):
            if not (rows[u] >> v) & 1 and rng.random() < p:
                rows[u] |= 1 << v
                rows[v] |= 1 << u
    return Graph(n, tuple(rows))


def random_hypergraph(rng: random.Random):
    """Random hypergraph: 2-6 ground vertices, 1-6 nonempty edges, none isolated."""
    from .hypergraph import Hypergraph

    nx = rng.randint(2, 6)
    ne = rng.randint(1, 6)
    masks = []
    for _ in range(ne):
        m = rng.getrandbits(nx)
        if m == 0:
            m = 1 << rng.randrange(nx)
        masks.append(m)
    covered = 0
    for m in masks:
        covered |= m
    for x in range(nx):
        if not (covered >> x) & 1:
            i = rng.randrange(ne)
            masks[i] |= 1 << x
    return Hypergraph(nx, tuple(masks))
