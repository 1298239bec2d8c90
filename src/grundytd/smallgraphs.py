"""Small-graph enumeration, canonical forms, and random instance generators.

The sweeps need every connected graph up to order 9 and every connected
cubic graph up to order 16, one representative per isomorphism class.
canonical_form is computed by color refinement plus individualization:
refine the coloring to a fixed point, split the first non-singleton color
class on each of its vertices in turn, and take the minimum adjacency
bitstring over the discrete leaves.

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

The recorded automorphisms generate all of Aut(G).  By induction from the
leaves, every leaf of the unpruned tree is searched, or it is the image
under recorded automorphisms of a searched leaf with the same integer.  Let
o be the vertex order of the first leaf searched.  For s in Aut(G), s(o) is
the order of a leaf with o's integer, so s(o) = h(o') for h in the generated
group and o' a searched leaf's order with that integer; either o' = o, or
meeting o' recorded the p with p(o) = o'.  So s is h or hp.

connected_graphs skips most children by an edge-count rule and by the
parent's automorphisms, and compares only the rest that share a refinement
invariant (see its docstring); its output is that of trying every child,
which tests/oracles.py keeps as the reference.  It compares two graphs, as
are_isomorphic does, with no certificate: _first_path follows one branch of
the first graph's tree, individualizing the first vertex of each cell, and
_reaches searches the second graph's tree, by the same refinement and cell
rule, for a leaf with the adjacency integer of that branch's leaf, cutting
a node whose colour histogram differs from the branch's at its depth.  This
is exact both ways.  An isomorphism maps the branch onto a branch of the
second tree: refinement and the cell rule commute with it, so the colourings
correspond, with equal histograms, and the leaf's vertex order is the image
of the first leaf's, with the same integer.  Conversely, two leaves with the
same integer list the two graphs' vertices in orders that map one adjacency
onto the other.

connected_regular_graphs is orderly (Meringer, "Fast generation of regular
graphs", J. Graph Theory 30, 1999): computing no canonical form, its DFS
keeps the first leaf of each class, the one that deduplicating by canonical
form kept (tests/oracles.py keeps that generator as the reference).  Why:
- A leaf is determined by its choice sequence: for each vertex in label
  order, (number of fresh neighbours, sorted tuple of the higher neighbours
  already touched); a vertex saturated before its turn has (0, ()).
- The DFS visits leaves in lexicographic order of these sequences.
- The leaves isomorphic to G are exactly G's BFS relabelings: any root,
  each vertex's newly found neighbours taking the next labels in any order.
So a leaf is kept iff no BFS relabeling has a smaller choice sequence.
The test compares the positions below done, a node's smallest vertex short
of degree k, and places only vertices of degree k, so a smaller choice at
an inner node rejects every leaf below it.  It is incremental: a node hands
its children the tied relabeling states at position done (the frontier),
the states where it skipped a vertex short of degree k (pending, by
vertex), its own choices (the target), and each child's degree-k vertices,
marking those that have just reached k.  A child extends the frontier to
its own done, resumes the pending states of the vertices that have just
reached degree k, and searches afresh only from the roots that have.  This
is exact: a degree-k row never changes deeper in the DFS, so every choice
the parent compared, and the target's first done choices, are the same at
the child (tests/oracles.py keeps the search from scratch at every node).
The counts are pinned to published values.
"""

from __future__ import annotations

import itertools
import random

from .errors import CapacityError
from .graph import Graph, bits

# The largest orders the enumerations may build (2 shared vCPUs): connected
# order 9 (261,080 classes) takes about 30 s; cubic order 16 (4,060) about
# 1.5 s and order 18 (41,301) 20 s; at order 11 quartic, 6- and 8-regular
# take 0.14, 0.46 and 0.42 s, and at order 12 6-regular (7,849) takes 18 s.
MAX_CONNECTED_ORDER = 9
MAX_CUBIC_ORDER = 16
MAX_REGULAR_ORDER = 11

# -- canonical form ----------------------------------------------------------


def _refine(nbrs: list[list[int]], n: int, colors: list[int]) -> tuple[list[int], list[int]]:
    # The stable colouring, and the signatures of the last round: an
    # isomorphism maps both onto the other graph's, so their multiset is a
    # key.  Precondition: every colour class of the input has one degree.  The
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
        if len(remap) == n or new == colors:  # a discrete colouring is stable
            return new, sigs
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
        acc, order = _leaf(adj, n, colors)
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
            search(_refine(nbrs, n, branched)[0], prefix)
            prefix.pop()

    search(_root_colors(nbrs, n)[0], [])
    return best, autos


def _leaf(adj, n: int, colors: list[int]) -> tuple[int, list[int]]:
    """Adjacency integer of a discrete colouring's vertex order, and the order."""
    order = [0] * n
    for v, c in enumerate(colors):  # discrete colours are the ranks 0..n-1
        order[c] = v
    acc = 0
    for j in range(1, n):
        row = adj[order[j]]
        for i in range(j):
            acc = (acc << 1) | ((row >> order[i]) & 1)
    return acc, order


def _root_colors(nbrs: list[list[int]], n: int) -> tuple[list[int], list[int]]:
    # The first refinement pass from one colour ranks vertices by degree.
    degrees = [len(row) for row in nbrs]
    rank = {d: i for i, d in enumerate(sorted(set(degrees)))}
    return _refine(nbrs, n, [rank[d] for d in degrees])


def _refinement(rows, n: int):
    """Neighbour lists, root colouring and its key: the sorted signatures of
    the last refinement round."""
    nbrs = [list(bits(row)) for row in rows]
    colors, sigs = _root_colors(nbrs, n)
    return nbrs, colors, tuple(sorted(sigs))


def _first_path(rows, n: int, colors: list[int]) -> tuple[list, int]:
    """The colour histograms and cells along the path that individualizes
    the first vertex of each cell, and the adjacency integer of its leaf."""
    nbrs = [list(bits(row)) for row in rows]
    path = []
    while True:
        hist = sorted(colors)  # colours are ranks, so this is the histogram
        if hist[-1] == n - 1:
            path.append((hist, -1))
            return path, _leaf(rows, n, colors)[0]
        cell = next(c for c, d in zip(hist, hist[1:]) if c == d)  # lowest held twice
        path.append((hist, cell))
        colors = list(colors)
        colors[colors.index(cell)] = -1
        colors = _refine(nbrs, n, colors)[0]


def _reaches(rows, nbrs, n: int, colors: list[int], path: list, target: int) -> bool:
    """Whether the graph is isomorphic to the one whose _first_path is
    (path, target), given its neighbour lists and root colouring: whether a
    search of its individualization tree, cut where a colour histogram
    differs from path's, reaches a leaf with adjacency integer target.  The
    module docstring argues that this is exact."""

    def search(depth: int, colors: list[int]) -> bool:
        hist, cell = path[depth]
        if sorted(colors) != hist:
            return False
        if cell < 0:
            return _leaf(rows, n, colors)[0] == target
        for v, c in enumerate(colors):
            if c == cell:
                branched = list(colors)
                branched[v] = -1
                if search(depth + 1, _refine(nbrs, n, branched)[0]):
                    return True
        return False

    return search(0, colors)


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
    if g.n != h.n:
        return False
    _, colors, key = _refinement(g.adj, g.n)
    nbrs, h_colors, h_key = _refinement(h.adj, h.n)
    return key == h_key and _reaches(h.adj, nbrs, h.n, h_colors, *_first_path(g.adj, g.n, colors))


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


def _neighborhood_representatives(k: int, autos) -> list[int]:
    """Smallest nonempty mask on k vertices in each orbit of the automorphisms."""
    masks = range(1, 1 << k)
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
    whose removal leaves it connected (a non-cut vertex), so attaching one
    new vertex w with every nonempty neighbourhood to every connected
    (k-1)-vertex graph reaches every class.  The result is sorted by (edge
    count, rows), and each class keeps the first child in parent order, then
    neighbourhood order, that reached it.

    Two rules skip a child.  Each skips only children whose class an earlier
    child reached, so the result is exactly that of trying every child.
    - Degree rule: w has degree d.  If a non-cut vertex v has degree above d,
      the child minus v has fewer edges than the parent, so its class is an
      earlier parent's in the sorted list, and every class reachable from an
      earlier parent was already seen (by induction on the parent index).
    - Orbit rule: an automorphism of the parent maps the child with
      neighbourhood nb onto an isomorphic child, so only the smallest mask
      of each orbit is tried; masks go up, so it comes first.  The orbits
      are exact: one _search per parent, run when this order is built (never
      for the order asked for), records generators of Aut(parent) (see the
      module docstring).
    A child that passes both is compared only when another could match it.
    - No tie: w is the only non-cut vertex of degree d.  An isomorphism from
      another child that passed the degree rule maps that child's new
      vertex, a non-cut vertex of greatest degree, onto w.  So it comes from
      the same parent, parents being pairwise non-isomorphic, by a
      neighbourhood in nb's orbit, which the orbit rule skipped: the child
      is new.  Having a tie is thus a property of the class.
    - Tie: children are grouped by their root refinement, the multiset of
      the signatures of its last round.  The first of a group is
      new and becomes the group's first class, kept as its rows and root
      colouring.  A later child is new iff _reaches matches it with no class
      of its group (see the module docstring); a class's first branch is
      computed when a child is first compared with it.

    Orders above MAX_CONNECTED_ORDER raise CapacityError.
    """
    _check_order(n, MAX_CONNECTED_ORDER, "connected")
    if n < 1:
        return []
    if n in _connected_cache:
        return _connected_cache[n]
    level = [Graph._from_valid_rows(1, (0,))]
    if n > 1:
        level = []
        groups: dict[int, list] = {}  # key hash -> classes: rows, colours[, path]
        w = n - 1
        for parent in connected_graphs(n - 1):
            rows_base = list(parent.adj)
            degrees = [row.bit_count() for row in rows_base]
            # components of the parent minus v, to tell whether child minus v
            # is connected: w must reach each of them
            splits = [(v, _components_without(rows_base, w, v)) for v in range(w)]
            autos = _search(rows_base, w)[1]
            nbrs_base = [list(bits(row)) for row in rows_base]
            for nb in _neighborhood_representatives(w, autos):
                d, tie = nb.bit_count(), False
                for v, comps in splits:
                    dv = degrees[v] + ((nb >> v) & 1)
                    if dv >= d and all(nb & comp for comp in comps):
                        if dv > d:
                            break  # degree rule
                        tie = True
                else:
                    rows = rows_base + [nb]
                    m = nb
                    while m:
                        low = m & -m
                        rows[low.bit_length() - 1] |= 1 << w
                        m ^= low
                    rows = tuple(rows)
                    if tie:
                        # the child's neighbour lists: the parent's, w last
                        nbrs = [r + [w] if (nb >> v) & 1 else r for v, r in enumerate(nbrs_base)]
                        nbrs.append(list(bits(nb)))
                        if not _new_in_group(rows, nbrs, n, groups):
                            continue
                    level.append(Graph._from_valid_rows(n, rows))
        level.sort(key=lambda g: (g.edge_count(), g.adj))
    _connected_cache[n] = level
    return level


def _new_in_group(rows: tuple, nbrs: list[list[int]], n: int, groups: dict[int, list]) -> bool:
    """Whether no class met so far with the same root refinement is
    isomorphic to rows, given its neighbour lists; if none is, rows joins
    that group as a new class."""
    colors, sigs = _root_colors(nbrs, n)
    sigs.sort()
    # keyed by hash: two keys that share one only cost searches
    group = groups.setdefault(hash(tuple(sigs)), [])
    for member in group:
        if len(member) == 2:  # its path, when first needed
            member.extend(_first_path(member[0], n, member[1]))
        if _reaches(rows, nbrs, n, colors, member[2], member[3]):
            return False
    group.append([rows, colors])
    return True


_regular_cache: dict[tuple[int, int], list[Graph]] = {}


def _resume_search(rows, done, target, complete, newly, frontier, pending):
    """Resume the parent's search for a BFS relabeling with a smaller choice
    than target at some position < done; None if there is one.

    Else returns the states reached at position done and, by vertex, the
    states where that vertex was skipped for lacking degree k, as linked
    (state, rest) pairs.  A state is (position, labeled mask, cells): labels
    given as a block stay cells (masks, in label order) until a tie splits
    each cell into the placed vertex's neighbours first.  newly marks the
    vertices of complete that just reached degree k.
    """
    reached = []
    waiting = dict(pending)

    def place(j: int, labeled: int, cells: list[int], v: int) -> bool:
        fresh = rows[v] & ~labeled
        want_fresh, want_old = target[j]
        if fresh.bit_count() != want_fresh:
            return fresh.bit_count() < want_fresh
        old, pos, split = 0, j + 1, []
        for cell in [cells[0] ^ (1 << v)] + cells[1:]:
            inner = rows[v] & cell
            if inner:
                old |= ((1 << inner.bit_count()) - 1) << pos
                split.append(inner)
            if inner != cell:
                split.append(cell ^ inner)
            pos += cell.bit_count()
        if old != want_old:
            diff = old ^ want_old
            return bool(old & diff & -diff)  # the lowest differing label is ours
        if fresh:
            split.append(fresh)
        return search(j + 1, labeled | fresh, split)

    def search(j: int, labeled: int, cells: list[int]) -> bool:
        state = (j, labeled, cells)
        if j >= done:
            if j < len(rows):  # a state at position n has nothing left to place
                reached.append(state)
            return False
        skipped = cells[0] & ~complete
        if skipped:
            for v in bits(skipped):
                waiting[v] = (state, waiting.get(v))
        for v in bits(cells[0] & complete):
            if place(j, labeled, cells, v):
                return True
        return False

    for v in bits(newly):
        link = waiting.pop(v, None)
        while link:
            state, link = link
            if place(*state, v):
                return None
    for state in frontier:
        if search(*state):
            return None
    for r in bits(newly):
        if search(1, rows[r] | 1 << r, [rows[r]]):
            return None
    return reached, waiting


def connected_regular_graphs(n: int, k: int) -> list[Graph]:
    """All connected k-regular graphs of order n, one per isomorphism class.

    Depth-first completion: finish the neighbourhood of the smallest vertex
    u with degree < k by fresh vertices (the next unused ids) plus deficient
    higher ones already introduced; fewer fresh first, then combinations in
    order.  A node whose completed rows lose to a BFS relabeling is cut, and
    a leaf that loses is dropped; each node passes its search to its
    children through finish's arguments (see the module docstring).  K_n is
    returned directly, since it has n! relabelings to try.  Returns [] if
    n * k is odd, k >= n or k < 0.  Orders above MAX_CUBIC_ORDER (k <= 3)
    or MAX_REGULAR_ORDER (k > 3) raise CapacityError.
    """
    limit = MAX_CUBIC_ORDER if k <= 3 else MAX_REGULAR_ORDER
    _check_order(n, limit, "cubic" if k == 3 else f"{k}-regular")
    if k < 0 or k >= n or n * k % 2:
        return []
    if k == n - 1:
        return [Graph._from_valid_rows(n, tuple(((1 << n) - 1) ^ (1 << v) for v in range(n)))]
    if (n, k) in _regular_cache:
        return _regular_cache[n, k]
    result: list[Graph] = []

    def finish(rows, touched: int, target, complete, newly, frontier, pending):
        deficient = ((1 << touched) - 1) & ~complete
        u = (deficient & -deficient).bit_length() - 1 if deficient else touched
        # u == touched: every introduced vertex is saturated, which is a leaf
        # if all n are introduced and a dead end (the rest unreachable) if not
        if u == touched < n:
            return
        # the vertices after the parent's u were saturated before their turn
        target = target + [(0, 0)] * (u - len(target))
        found = _resume_search(rows, u, target, complete, newly, frontier, pending)
        if found is None:
            return
        if u == n:
            result.append(Graph._from_valid_rows(n, tuple(rows)))
            return
        missing = k - rows[u].bit_count()
        olds = list(bits(deficient & ~rows[u] & -(2 << u)))
        for fresh in range(min(missing, n - touched) + 1):
            for chosen in itertools.combinations(olds, missing - fresh):
                new_rows, full = list(rows), 1 << u
                for w in chosen + tuple(range(touched, touched + fresh)):
                    new_rows[u] |= 1 << w
                    new_rows[w] |= 1 << u
                    if new_rows[w].bit_count() == k:
                        full |= 1 << w
                choice = (fresh, sum(1 << w for w in chosen))  # u's, in the child
                finish(new_rows, touched + fresh, target + [choice], complete | full, full, *found)

    finish([0] * n, 1, [], 0, 0, [], {})
    result.sort(key=lambda g: g.adj)
    _regular_cache[n, k] = result
    return result


def connected_cubic_graphs(n: int) -> list[Graph]:
    """All connected cubic graphs of order n: connected_regular_graphs(n, 3)."""
    return connected_regular_graphs(n, 3)


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
