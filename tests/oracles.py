"""Slow reference implementations used to pin expected values.

Everything here favors directness over speed: plain Python sets, explicit
sequence DFS, no memoization, no pruning beyond the definitions themselves.
The production solvers must agree with these on every input small enough
to sweep.
"""

from itertools import combinations, permutations
from math import factorial
from operator import itemgetter

from grundytd.engine import _check_coverable, _parts
from grundytd.errors import InvariantViolation, ParameterError
from grundytd.graph import MAX_ORDER, Graph, bits
from grundytd.smallgraphs import canonical_form
from grundytd.theorems import FamilyTCertificate


def neighborhoods(g, mode):
    """Open or closed neighborhoods as a list of sets."""
    out = []
    for v in range(g.n):
        s = {u for u in range(g.n) if g.adj[v] >> u & 1}
        if mode == "closed":
            s.add(v)
        out.append(s)
    return out


def is_legal_sequence(g, seq, mode):
    if len(set(seq)) != len(seq):
        return False
    hoods = neighborhoods(g, mode)
    covered = set()
    for v in seq:
        if hoods[v] <= covered:
            return False
        covered |= hoods[v]
    return True


def is_complete_sequence(g, seq, mode):
    hoods = neighborhoods(g, mode)
    covered = set()
    for v in seq:
        covered |= hoods[v]
    return covered == set(range(g.n))


def longest_sequence(g, mode):
    """Exhaustive DFS over all legal sequences; no state merging at all.

    Returns (length, witness) where the witness is the first maximum-length
    complete sequence in depth-first lexicographic order, or (0, ()) when no
    complete sequence exists (isolated vertex in open mode).
    """
    hoods = neighborhoods(g, mode)
    full = set(range(g.n))
    best = [-1, ()]

    def walk(seq, covered):
        if covered == full and len(seq) > best[0]:
            best[0] = len(seq)
            best[1] = tuple(seq)
        for v in range(g.n):
            if v in seq:
                continue
            if hoods[v] <= covered:
                continue
            seq.append(v)
            walk(seq, covered | hoods[v])
            seq.pop()

    walk([], set())
    if best[0] < 0:
        return 0, ()
    return best[0], best[1]


def sequence_lengths(g, mode):
    """Set of lengths of complete legal sequences, by the same full DFS."""
    hoods = neighborhoods(g, mode)
    full = set(range(g.n))
    found = set()

    def walk(seq, covered):
        if covered == full:
            found.add(len(seq))
        for v in range(g.n):
            if v in seq:
                continue
            if hoods[v] <= covered:
                continue
            seq.append(v)
            walk(seq, covered | hoods[v])
            seq.pop()

    walk([], set())
    return found


def game_value(g):
    """Dominator/Staller game by bare minimax on the full game tree."""
    hoods = neighborhoods(g, "open")
    full = set(range(g.n))

    def moves(covered):
        return [v for v in range(g.n) if not hoods[v] <= covered]

    def play(covered, staller):
        if covered == full:
            return 0
        opts = [play(covered | hoods[v], not staller) for v in moves(covered)]
        return 1 + (max(opts) if staller else min(opts))

    if any(not hoods[v] for v in range(g.n)):
        raise ValueError("isolated vertex")
    return play(set(), False)


def game_line(g):
    """Value and principal line of the game by bare minimax.

    The line takes, at every position, the smallest vertex whose subtree
    achieves the mover's optimum: the line game_cover_value reports.
    """
    hoods = neighborhoods(g, "open")
    full = set(range(g.n))
    if any(not hoods[v] for v in range(g.n)):
        raise ValueError("isolated vertex")

    def play(covered, staller):
        if covered == full:
            return 0, ()
        best = None
        for v in range(g.n):
            if hoods[v] <= covered:
                continue
            value, line = play(covered | hoods[v], not staller)
            if best is None or (value > best[0] if staller else value < best[0]):
                best = (value, (v,) + line)
        return best[0] + 1, best[1]

    return play(set(), False)


def total_dominating_sets(g):
    hoods = neighborhoods(g, "open")
    full = set(range(g.n))
    for k in range(g.n + 1):
        for combo in combinations(range(g.n), k):
            if set().union(*(hoods[v] for v in combo), set()) == full:
                yield set(combo)


def total_domination_number(g):
    for s in total_dominating_sets(g):
        return len(s)
    raise ValueError("no total dominating set")


def upper_total_domination(g):
    hoods = neighborhoods(g, "open")
    full = set(range(g.n))

    def dominates(s):
        return set().union(*(hoods[v] for v in s), set()) == full

    best = -1
    for k in range(g.n + 1):
        for combo in combinations(range(g.n), k):
            s = set(combo)
            if not dominates(s):
                continue
            if all(not dominates(s - {v}) for v in s):
                best = max(best, k)
    if best < 0:
        raise ValueError("no total dominating set")
    return best


def _zero_forcing_number(g, mode):
    """The fewest initially black vertices that turn every vertex black.

    Forcing rule: any vertex, black or white, with exactly one white vertex
    in its open or closed neighbourhood turns that vertex black.  Subsets
    are tried by increasing size.
    """
    hoods = neighborhoods(g, mode)

    def forces_all(black):
        changed = True
        while changed:
            changed = False
            for hood in hoods:
                white = hood - black
                if len(white) == 1:
                    black |= white
                    changed = True
        return len(black) == g.n

    for k in range(g.n + 1):
        for combo in combinations(range(g.n), k):
            if forces_all(set(combo)):
                return k


def skew_zero_forcing_number(g):
    """Z₋(G), zero forcing over open neighbourhoods (skew forcing).

    For graphs without isolated vertices gamma_grt = n - Z₋ (Brešar et al.,
    "Grundy dominating sequences and zero forcing sets", Discrete Optim.
    2017), a check that shares nothing with the cover-sequence search.
    """
    return _zero_forcing_number(g, "open")


def loop_zero_forcing_number(g):
    """Z_ℓ(G), zero forcing over closed neighbourhoods (every vertex looped).

    gamma_gr = n - Z_ℓ (Lin, "Zero forcing number, Grundy domination
    number, and their variants", Linear Algebra Appl. 2019).
    """
    return _zero_forcing_number(g, "closed")


def pair_labeling(g):
    """A pair labeling of g as the vertex order x1..xk yk..y1, or None.

    The labeling pairs all n = 2k vertices as x_i y_i such that each x_i y_i
    is an edge, x1..xk are pairwise non-adjacent, and y_j has no neighbour
    x_i with i < j.  Every vertex order is tried; gamma_grt = n exactly when
    one exists (Brešar, Henning and Rall, Thm 4.2).
    """
    if g.n % 2:
        return None
    k = g.n // 2
    hoods = neighborhoods(g, "open")
    for order in permutations(range(g.n)):
        xs, ys = order[:k], order[k:][::-1]
        if (
            all(ys[i] in hoods[xs[i]] for i in range(k))
            and not any(xs[j] in hoods[xs[i]] for i in range(k) for j in range(i + 1, k))
            and not any(xs[i] in hoods[ys[j]] for j in range(k) for i in range(j))
        ):
            return order
    return None


def edges_of(g):
    return [(u, v) for u in range(g.n) for v in range(u + 1, g.n) if g.adj[u] >> v & 1]


def _matching_ok(g, matching, semistrong):
    verts = {x for e in matching for x in e}

    def induced_degree(x):
        return sum(1 for y in verts if y != x and g.adj[x] >> y & 1)

    for u, v in matching:
        strong_u = induced_degree(u) == 1
        strong_v = induced_degree(v) == 1
        if semistrong:
            if not (strong_u or strong_v):
                return False
        else:
            if not (strong_u and strong_v):
                return False
    return True


def max_special_matching(g, semistrong):
    """Largest strong (induced) or semistrong matching by edge-subset DFS.

    Both properties are closed under deleting edges, so partial matchings
    that already fail can be pruned without losing any maximum.  There is
    no bound: every valid matching is visited, in edge order.  Returns
    (size, the first maximum matching found).
    """
    edges = edges_of(g)
    best = [0, []]

    def walk(start, matching, used):
        if len(matching) > best[0]:
            best[0] = len(matching)
            best[1] = list(matching)
        for i in range(start, len(edges)):
            u, v = edges[i]
            if u in used or v in used:
                continue
            matching.append((u, v))
            if _matching_ok(g, matching, semistrong):
                walk(i + 1, matching, used | {u, v})
            matching.pop()

    walk(0, [], set())
    return best[0], best[1]


def semistrong_vertex_sets(g):
    """Every vertex set S that is V(M) for a semistrong matching M.

    A matching M is semistrong when each edge has an endpoint of degree 1
    in G[V(M)].  So S = V(M) exactly when G[S] has no isolated vertex and
    the pairs {u, N_S(u)} for the degree-1 vertices u of G[S] partition S:
    those pairs are M.  Subsets are tested one by one, with no matching
    built or searched; nu_ss is the largest |S| / 2.
    """
    for k in range(0, g.n + 1, 2):
        for combo in combinations(range(g.n), k):
            s = set(combo)
            inside = {u: {v for v in s if g.adj[u] >> v & 1} for u in s}
            if any(not nbrs for nbrs in inside.values()):
                continue
            pairs = {frozenset((u, *nbrs)) for u, nbrs in inside.items() if len(nbrs) == 1}
            if sum(len(p) for p in pairs) == k and set().union(*pairs, set()) == s:
                yield s


def line_graph_square_independence(g):
    """alpha(L(G)^2), the strong matching number (Cameron 1989).

    Two edges of G are adjacent in the square of the line graph when they
    lie within distance 2 in L(G), so an independent set there is a set of
    edges no two of which share or are joined by an edge: an induced
    matching.  Exhaustive include/exclude branching over the edges.
    """
    edges = edges_of(g)
    m = len(edges)
    line = [{j for j in range(m) if j != i and set(edges[i]) & set(edges[j])}
            for i in range(m)]
    square = [(line[i] | {k for j in line[i] for k in line[j]}) - {i} for i in range(m)]

    def alpha(free):
        if not free:
            return 0
        i = min(free)
        return max(alpha(free - {i}), 1 + alpha(free - {i} - square[i]))

    return alpha(frozenset(range(m)))


def hyper_longest_cover(h):
    """Grundy covering number by full DFS over hyperedge sequences."""
    members = [set(h.edge_members(i)) for i in range(len(h.edges))]
    full = set(range(h.n_vertices))
    best = [-1, ()]

    def walk(seq, covered):
        if covered == full and len(seq) > best[0]:
            best[0] = len(seq)
            best[1] = tuple(seq)
        for i in range(len(members)):
            if i in seq or members[i] <= covered:
                continue
            seq.append(i)
            walk(seq, covered | members[i])
            seq.pop()

    walk([], set())
    if best[0] < 0:
        return 0, ()
    return best[0], best[1]


def hyper_longest_transversal(h):
    """Grundy transversal number by full DFS over vertex sequences."""
    members = [set(h.edge_members(i)) for i in range(len(h.edges))]
    all_edges = set(range(len(members)))
    best = [-1, ()]

    def hit_by(v):
        return {i for i in all_edges if v in members[i]}

    def walk(seq, hit):
        if hit == all_edges and len(seq) > best[0]:
            best[0] = len(seq)
            best[1] = tuple(seq)
        for v in range(h.n_vertices):
            if v in seq or hit_by(v) <= hit:
                continue
            seq.append(v)
            walk(seq, hit | hit_by(v))
            seq.pop()

    walk([], set())
    if best[0] < 0:
        return 0, ()
    return best[0], best[1]


def hyper_transversal_status(h, seq):
    """(legal, complete) of a vertex sequence, with edges as plain sets."""
    members = [set(h.edge_members(i)) for i in range(len(h.edges))]
    hit = set()
    legal = len(set(seq)) == len(seq)
    for v in seq:
        new = {i for i, m in enumerate(members) if v in m}
        if new <= hit:
            legal = False
        hit |= new
    return legal, legal and hit == set(range(len(members)))


def hyper_cover_number(h):
    members = [set(h.edge_members(i)) for i in range(len(h.edges))]
    full = set(range(h.n_vertices))
    for k in range(len(members) + 1):
        for combo in combinations(range(len(members)), k):
            if set().union(*(members[i] for i in combo), set()) == full:
                return k
    raise ValueError("edges do not cover the ground set")


def _refine_unpruned(adj, n, colors):
    while True:
        sigs = []
        for v in range(n):
            around = sorted(colors[u] for u in bits(adj[v]))
            sigs.append((colors[v], tuple(around)))
        remap = {s: i for i, s in enumerate(sorted(set(sigs)))}
        new = [remap[s] for s in sigs]
        if new == colors:
            return new
        colors = new


def canonical_form_unpruned(adj, n):
    """Canonical form by the full individualization tree, no pruning at all.

    Same refinement, cell choice and leaf encoding as
    smallgraphs.canonical_form, but every branch is searched, so the
    pruned search must return exactly these bytes.
    """
    if n == 1:
        return (1).to_bytes(2, "big")
    best = None

    def leaf(colors):
        nonlocal best
        order = sorted(range(n), key=colors.__getitem__)
        acc = 0
        for j in range(1, n):
            row = adj[order[j]]
            for i in range(j):
                acc = (acc << 1) | ((row >> order[i]) & 1)
        if best is None or acc < best:
            best = acc

    def search(colors):
        colors = _refine_unpruned(adj, n, colors)
        cell = None
        by_color = {}
        for v, c in enumerate(colors):
            by_color.setdefault(c, []).append(v)
        for c in range(len(by_color)):
            if len(by_color[c]) > 1:
                cell = by_color[c]
                break
        if cell is None:
            leaf(colors)
            return
        for v in cell:
            branched = list(colors)
            branched[v] = -1  # unique new color; refinement renumbers
            search(branched)

    search([0] * n)
    nbytes = max(1, (n * (n - 1) // 2 + 7) // 8)
    return n.to_bytes(2, "big") + best.to_bytes(nbytes, "big")


_reference_cache = {}


def connected_graphs_reference(n):
    """Connected graphs of order n by trying every child, before pruning.

    A verbatim copy of smallgraphs.connected_graphs before it skipped
    children: every nonempty neighbourhood of a new vertex is tried on every
    parent and deduplicated by canonical form, so the pruned generator must
    return exactly this list.
    """
    if n < 1:
        return []
    if n in _reference_cache:
        return _reference_cache[n]
    if n == 1:
        result = [Graph(1, (0,))]
    else:
        result = []
        seen = set()
        for parent in connected_graphs_reference(n - 1):
            rows_base = [row for row in parent.adj]
            for nb in range(1, 1 << (n - 1)):
                rows = rows_base + [nb]
                m = nb
                while m:
                    low = m & -m
                    rows[low.bit_length() - 1] |= 1 << (n - 1)
                    m ^= low
                cert = canonical_form(rows, n)
                if cert not in seen:
                    seen.add(cert)
                    result.append(Graph(n, tuple(rows)))
        result.sort(key=lambda g: (g.edge_count(), g.adj))
    _reference_cache[n] = result
    return result


_cubic_reference_cache = {}


def connected_cubic_graphs_reference(n):
    """Connected cubic graphs of order n by canonicalizing every leaf.

    A verbatim copy of smallgraphs.connected_cubic_graphs before it became
    orderly, with its own cache and no order limit.  The orderly generator
    keeps the first leaf of each class in the same DFS, so it must return
    exactly this list.

    Depth-first completion: repeatedly take the smallest vertex u with
    degree < 3 and branch over every way to finish its neighborhood with
    already-introduced deficient vertices plus a block of fresh ones (fresh
    ids are always taken in increasing order, so each labeled graph is
    produced along exactly one path).  Branches whose component saturates
    before absorbing all n vertices cannot end connected and are cut.
    Leaves are deduplicated by canonical form.
    """
    if n < 4 or n % 2:
        return []
    if n in _cubic_reference_cache:
        return _cubic_reference_cache[n]

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
            for chosen in combinations(olds, take_old):
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
    _cubic_reference_cache[n] = result
    return result


_regular_reference_cache = {}


def _first_in_class(rows, n: int, k: int, done: int) -> bool:
    """Whether no BFS relabeling has a smaller choice at some position < done.

    Branch and bound on the vertex placed at each position.  Only vertices
    of degree k are placed, so at an inner node a smaller choice rejects all
    leaves below.  Labels given as a block stay cells (masks, in label order)
    until a tie splits each cell into the placed vertex's neighbours first.
    """
    target = []  # the choices of rows itself: (fresh count, old label mask)
    touched = 1
    for u in range(done):
        higher = rows[u] >> (u + 1) << (u + 1)
        fresh = (higher >> touched).bit_count()
        target.append((fresh, higher & ((1 << touched) - 1)))
        touched += fresh
    complete = sum(1 << v for v in range(n) if rows[v].bit_count() == k)

    def smaller(j: int, labeled: int, cells: list[int]) -> bool:
        if j >= done:
            return False
        head = cells[0]
        want_fresh, want_old = target[j]
        for v in bits(head & complete):
            fresh = rows[v] & ~labeled
            if fresh.bit_count() != want_fresh:
                if fresh.bit_count() < want_fresh:
                    return True
                continue
            old, pos, split = 0, j + 1, []
            for cell in [head ^ (1 << v)] + cells[1:]:
                inner = rows[v] & cell
                if inner:
                    old |= ((1 << inner.bit_count()) - 1) << pos
                    split.append(inner)
                if inner != cell:
                    split.append(cell ^ inner)
                pos += cell.bit_count()
            if old != want_old:
                diff = old ^ want_old
                if old & diff & -diff:  # the lowest differing label is ours
                    return True
                continue
            if fresh:
                split.append(fresh)
            if smaller(j + 1, labeled | fresh, split):
                return True
        return False

    return not any(smaller(1, rows[r] | 1 << r, [rows[r]]) for r in bits(complete))


def connected_regular_graphs_reference(n, k):
    """Connected k-regular graphs of order n by the stateless orderly test.

    A verbatim copy of smallgraphs.connected_regular_graphs before its
    canonicity test resumed the parent node's search, with its own cache and
    no order limit.  The incremental test compares exactly the same choices,
    so it must return exactly this list.

    Depth-first completion: finish the neighbourhood of the smallest vertex
    u with degree < k by fresh vertices (the next unused ids) plus deficient
    higher ones already introduced; fewer fresh first, then combinations in
    order.  A node whose completed rows lose to a BFS relabeling is cut, and
    a leaf that loses is dropped (see the smallgraphs module docstring).
    Returns [] if n * k is odd, k >= n or k < 0.
    """
    if k < 0 or k >= n or n * k % 2:
        return []
    if (n, k) in _regular_reference_cache:
        return _regular_reference_cache[n, k]
    result: list[Graph] = []

    def finish(rows, touched: int):
        # u == touched: every introduced vertex is saturated, which is a leaf
        # if all n are introduced and a dead end (the rest unreachable) if not
        deficient = sum(1 << v for v in range(touched) if rows[v].bit_count() < k)
        u = (deficient & -deficient).bit_length() - 1 if deficient else touched
        if u == touched < n or not _first_in_class(rows, n, k, u):
            return
        if u == n:
            result.append(Graph(n, tuple(rows)))
            return
        missing = k - rows[u].bit_count()
        olds = list(bits(deficient & ~rows[u] & -(2 << u)))
        for fresh in range(min(missing, n - touched) + 1):
            for chosen in combinations(olds, missing - fresh):
                new_rows = list(rows)
                for w in chosen + tuple(range(touched, touched + fresh)):
                    new_rows[u] |= 1 << w
                    new_rows[w] |= 1 << u
                finish(new_rows, touched + fresh)

    finish([0] * n, 1)
    result.sort(key=lambda g: g.adj)
    _regular_reference_cache[n, k] = result
    return result


# Verbatim copies of the longest-sequence and game kernels before they were
# pruned.  Every state is expanded and the witness is read back from the
# complete memo table, so the pruned kernels must return exactly these values
# and witnesses.

def max_cover_sequence_unpruned(masks, universe):
    """Longest legal cover sequence.

    Returns (length, sequence of mask indices).  Requires the masks to
    jointly cover the universe, which guarantees every maximal legal
    sequence is complete (covers everything): whenever some element is
    uncovered, any mask containing it is a legal move.
    """
    masks = [m & universe for m in masks]
    _check_coverable(masks, universe)
    if universe == 0:
        return 0, []

    memo: dict[int, int] = {}

    def longest(covered: int) -> int:
        if covered == universe:
            return 0
        val = memo.get(covered)
        if val is None:
            best = 0
            for m in masks:
                if m & ~covered:
                    r = 1 + longest(covered | m)
                    if r > best:
                        best = r
            memo[covered] = val = best
        return val

    total = longest(0)

    # Walk the memo table back down, taking the smallest index that still
    # achieves the optimum at each step.  Every child of a visited state was
    # itself visited, so the lookups always hit.
    seq: list[int] = []
    covered = 0
    need = total
    while need:
        for i, m in enumerate(masks):
            if m & ~covered:
                child = covered | m
                child_val = 0 if child == universe else memo[child]
                if child_val == need - 1:
                    seq.append(i)
                    covered = child
                    need -= 1
                    break
        else:
            raise RuntimeError("witness reconstruction failed")
    return total, seq


def game_cover_value_unpruned(masks, universe):
    """Minimax length of the cover game; the minimizer moves first.

    Both players extend one legal sequence; the minimizer wants it to
    complete in as few moves as possible, the maximizer in as many.
    Returns (value, principal line of mask indices).
    """
    masks = [m & universe for m in masks]
    _check_coverable(masks, universe)
    if universe == 0:
        return 0, []

    memo_min: dict[int, int] = {}
    memo_max: dict[int, int] = {}

    def value(covered: int, minimizer: bool) -> int:
        if covered == universe:
            return 0
        memo = memo_min if minimizer else memo_max
        val = memo.get(covered)
        if val is None:
            best = -1
            for m in masks:
                if m & ~covered:
                    r = 1 + value(covered | m, not minimizer)
                    if best < 0 or (r < best if minimizer else r > best):
                        best = r
            memo[covered] = val = best
        return val

    total = value(0, True)

    trace: list[int] = []
    covered = 0
    minimizer = True
    need = total
    while covered != universe:
        # The mover alternates, so the child's value sits in the other table.
        child_memo = memo_max if minimizer else memo_min
        for i, m in enumerate(masks):
            if m & ~covered:
                child = covered | m
                child_val = 0 if child == universe else child_memo[child]
                if 1 + child_val == need:
                    trace.append(i)
                    covered = child
                    need -= 1
                    minimizer = not minimizer
                    break
        else:
            raise RuntimeError("principal line reconstruction failed")
    return total, trace


# A verbatim copy of engine.max_cover_sequence and its part search before the
# exact memo search gave way to probes over bounds.  It stores the exact
# longest of every state it expands and walks that table back down, so the
# bounded search must return exactly its values and witnesses.

def _longest_memo(masks, universe):
    """The pruned memo search over one part, where the masks of every other
    part are empty: (length, witness)."""
    memo: dict[int, int] = {universe: 0}  # a covered universe needs no move

    def longest(covered: int) -> int:
        uncovered = universe & ~covered
        # every move covers at least one new element, so no state can beat
        # this bound and the first child reaching it ends the loop
        bound = uncovered.bit_count()
        best = 0
        for m in masks:
            if m & uncovered:
                child = covered | m
                r = memo.get(child)
                if r is None:
                    r = longest(child)
                if r >= best:
                    best = r + 1
                    if best == bound:
                        break
        memo[covered] = best
        return best

    try:
        total = longest(0)
    finally:
        longest = None  # the closure refers to itself; free the table now

    # Walk the memo table back down, taking the smallest index that still
    # achieves the optimum at each step.  The loop above stopped no earlier
    # than that index, so every child looked up here was visited.
    seq: list[int] = []
    covered = 0
    need = total
    while need:
        for i, m in enumerate(masks):
            if m & ~covered:
                child = covered | m
                if memo[child] == need - 1:
                    seq.append(i)
                    covered = child
                    need -= 1
                    break
        else:
            raise InvariantViolation("witness reconstruction failed")
    return total, seq


def max_cover_sequence_memo(masks, universe):
    """Longest legal cover sequence.

    Returns (length, sequence of mask indices).  Requires the masks to
    jointly cover the universe, which guarantees every maximal legal
    sequence is complete (covers everything): whenever some element is
    uncovered, any mask containing it is a legal move.

    Each part of the universe that no mask bridges is searched alone, with
    its own masks and its own table; the length is the sum of the parts'
    lengths.  The witness interleaves the parts' own witnesses, taking at
    each step the part whose next index is smallest.  A move changes only
    its own part's remaining optimum, so that index is the smallest that
    keeps the whole optimum: the witness is the one a search of the whole
    universe would rebuild.
    """
    masks = [m & universe for m in masks]
    _check_coverable(masks, universe)
    total = 0
    walks = []
    for part in _parts(masks, universe):
        length, walk = _longest_memo([m & part for m in masks], part)
        total += length
        walks.append(walk)

    # merge by the next index until a single part has moves left
    seq: list[int] = []
    while len(walks) > 1:
        walk = min(walks, key=itemgetter(0))
        seq.append(walk.pop(0))
        walks = [w for w in walks if w]
    for walk in walks:
        seq += walk
    return total, seq


# The fixed-length search that engine.sequence_of_length's construction
# replaced: one table keyed by (covered, r), where r counts the moves still
# to make, serves every wanted length.  An entry is the smallest index of a
# legal move after which r - 1 more moves complete the cover, or -1 if none
# does, so each witness is read back from the table and is the
# smallest-index witness of its length.

def sequences_of_lengths(masks, universe, lengths):
    """A legal complete cover sequence of each wanted length that has one.

    Returns {length: sequence of mask indices} in the order of lengths,
    leaving out each length that no complete legal sequence has.
    """
    masks = [m & universe for m in masks]
    _check_coverable(masks, universe)
    memo: dict[tuple[int, int], int] = {}

    def first(covered: int, r: int) -> int:
        """The table entry for (covered, r), where r >= 1."""
        uncovered = universe & ~covered
        if r > uncovered.bit_count():
            return -1  # each move covers at least one new element
        key = (covered, r)
        found = memo.get(key)
        if found is None:
            found = -1
            for i, m in enumerate(masks):
                if m & uncovered:
                    child = covered | m
                    if (child == universe) if r == 1 else first(child, r - 1) >= 0:
                        found = i
                        break
            memo[key] = found
        return found

    witnesses: dict[int, list[int]] = {}
    for length in lengths:
        # a walk that takes its first step always completes the cover
        seq: list[int] = []
        covered = 0
        for r in range(length, 0, -1):
            i = first(covered, r)
            if i < 0:
                break
            seq.append(i)
            covered |= masks[i]
        if covered == universe and len(seq) == length:
            witnesses[length] = seq
    return witnesses


def graph_to_graph6_bitwise(g):
    """The graph6 encoder before it set only the edges' bits: every pair of
    the upper triangle in column order, one bit at a time."""
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


def complete_multipartite_parts(g):
    """The parts of a complete multipartite graph, or None, from the
    definition: being equal or non-adjacent must be an equivalence
    relation, and its classes are the parts, ordered by lowest vertex."""
    classes = [
        frozenset(v for v in range(g.n) if v == u or not g.adj[u] >> v & 1)
        for u in range(g.n)
    ]
    if any(classes[v] != classes[u] for u in range(g.n) for v in classes[u]):
        return None
    return tuple(sorted({tuple(sorted(c)) for c in classes}))


_family_t_reference_cache = {}


def family_t_reference(n):
    """Family T members of order n by growing the order three below.

    A verbatim copy of theorems.family_t_members before it was built from
    trees: every leaf path is attached at every support vertex of every
    smaller member and deduplicated by canonical form.
    """
    if n < 2 or n % 3 != 2:
        return []
    if n in _family_t_reference_cache:
        return _family_t_reference_cache[n]
    if n == 2:
        base = Graph.from_edges(2, [(0, 1)])
        out = [(base, FamilyTCertificate(2, (0, 1), ()))]
    else:
        seen: set[bytes] = set()
        out = []
        for smaller, cert in family_t_reference(n - 3):
            degs = [smaller.degree(v) for v in range(smaller.n)]
            supports = [
                v
                for v in range(smaller.n)
                if any(degs[u] == 1 for u in bits(smaller.adj[v]))
            ]
            for v in supports:
                a, b, c = smaller.n, smaller.n + 1, smaller.n + 2
                edges = smaller.edges() + [(v, a), (a, b), (b, c)]
                tree = Graph.from_edges(n, edges)
                key = canonical_form(tree.adj, n)
                if key in seen:
                    continue
                seen.add(key)
                out.append(
                    (tree, FamilyTCertificate(n, cert.base, cert.steps + ((v, (a, b, c)),)))
                )
    _family_t_reference_cache[n] = out
    return out


# -- mask families up to isomorphism -------------------------------------------


def connected_pseudoforest_families(k):
    """Every family of distinct nonempty masks on the ground set range(k)
    that covers it, is connected, and whose incidence graph has at most one
    cycle: at most as many element-mask incidences as nodes."""
    full = (1 << k) - 1
    found = []

    def grow(first, chosen, incidences, covered):
        if covered == full and chosen:
            part, grown = chosen[0], 0
            while grown != part:
                grown = part
                for m in chosen:
                    if m & part:
                        part |= m
            if part == full:
                found.append(tuple(chosen))
        for m in range(first, full + 1):
            if incidences + m.bit_count() <= k + len(chosen) + 1:
                chosen.append(m)
                grow(m + 1, chosen, incidences + m.bit_count(), covered | m)
                chosen.pop()

    grow(1, [], 0, 0)
    return found


def relabel_family(masks, perm):
    """The masks with each element i renamed perm[i]."""
    return [sum(1 << perm[i] for i in bits(m)) for m in masks]


def canonical_family(masks, k):
    """The least sorted relabelling of a set of masks on range(k), over every
    permutation: two families are isomorphic iff theirs are equal."""
    return min(tuple(sorted(set(relabel_family(masks, p)))) for p in permutations(range(k)))


def family_orbit_count(families, k):
    """The number of isomorphism classes among families, a set closed under
    relabelling, by Burnside's lemma: the mean number of families that a
    permutation fixes, summed over one permutation per cycle type."""
    total = 0
    for shape in _partitions(k):
        perm, start = [], 0
        for length in shape:
            perm += [start + (i + 1) % length for i in range(length)]
            start += length
        image = relabel_family(range(1 << k), perm)
        fixed = sum(sorted(map(image.__getitem__, f)) == list(f) for f in families)
        size = factorial(k)
        for length in shape:
            size //= length
        for length in set(shape):
            size //= factorial(shape.count(length))
        total += size * fixed
    return total // factorial(k)


def _partitions(k, largest=None):
    if k == 0:
        yield ()
        return
    for first in range(min(k, largest or k), 0, -1):
        for rest in _partitions(k - first, first):
            yield (first,) + rest
